// The complete measurement testbed of Fig. 2 wired together:
//
//   sender ──①──> [5G uplink | emulated wire] ──②──> WAN ──③──> SFU
//        ──③*──> WAN ──④──> receiver,
//
// with TWCC feedback returning over the WAN + 5G downlink, ICMP probes
// from the core to the SFU every 20 ms, per-host clocks with NTP-residual
// offsets, and capture points at ①②③③*④. A Session is the one-stop
// entry point for examples, tests and every bench binary.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "app/receiver.hpp"
#include "app/sender.hpp"
#include "app/sfu.hpp"
#include "core/correlator.hpp"
#include "core/wifi_correlator.hpp"
#include "net/capture.hpp"
#include "net/icmp.hpp"
#include "net/link.hpp"
#include "net/wireless_links.hpp"
#include "ran/downlink.hpp"
#include "ran/uplink.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace athena::app {

struct SessionConfig {
  std::uint64_t seed = 42;

  /// Access network under test: the 5G RAN model, the Fig. 7 wired
  /// baseline (fixed latency, rate replayed from a capacity trace), or the
  /// §5.1 alternative wireless technologies.
  enum class Access { k5G, kEmulated, kWifiLike, kLeoSat };
  Access access = Access::k5G;

  // --- 5G access ---
  ran::RanConfig cell = ran::RanConfig::PaperCell();
  ran::ChannelModel::Config channel;
  net::CapacityTrace cross_traffic;  ///< empty/0 = idle cell
  double cross_burstiness = 0.25;
  double cross_modulation_sigma = 0.0;  ///< slow (250 ms) demand wander
  /// Optional custom grant policy (§5.2 mitigations); null = BSR baseline.
  std::function<std::unique_ptr<ran::GrantPolicy>(const ran::RanConfig&)> grant_policy;

  // --- emulated access (Fig. 7 baseline) ---
  net::CapacityTrace emulated_capacity{net::CapacityTrace{8e6}};
  sim::Duration emulated_latency{std::chrono::milliseconds{15}};

  // --- alternative wireless access (§5.1) ---
  net::WifiLikeLink::Config wifi;
  net::LeoSatLink::Config leo;

  // --- WAN + server ---
  sim::Duration wan_delay{std::chrono::milliseconds{10}};
  sim::Duration wan_jitter{std::chrono::microseconds{300}};
  SfuServer::Config sfu;

  // --- endpoints ---
  VcaSender::Config sender;
  VcaReceiver::Config receiver = VcaReceiver::DefaultConfig();
  enum class Controller { kGcc, kNada, kScream, kL4s };
  Controller controller = Controller::kGcc;
  cc::GoogCc::Config gcc;
  cc::NadaController::Config nada;
  cc::ScreamController::Config scream;
  cc::L4sController::Config l4s;
  /// Override the controller entirely (takes precedence; §5.3 mitigation).
  std::function<std::unique_ptr<RateController>()> controller_factory;

  bool icmp_enabled = true;
  sim::Duration icmp_interval{std::chrono::milliseconds{20}};

  // --- NTP-residual clock offsets (relative to the core's clock) ---
  sim::Duration sender_clock_offset{std::chrono::microseconds{1500}};
  double sender_clock_drift_ppm = 0.0;
  sim::Duration receiver_clock_offset{std::chrono::microseconds{-2100}};
};

class Session {
 public:
  Session(sim::Simulator& sim, SessionConfig config);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Starts all components; the caller then advances the simulator.
  void Start();
  void Stop();

  /// Convenience: Start, run for `span`, Stop.
  void Run(sim::Duration span);

  // --- component access ---
  [[nodiscard]] VcaSender& sender() { return *sender_; }
  [[nodiscard]] VcaReceiver& receiver() { return *receiver_; }
  [[nodiscard]] media::QoeCollector& qoe() { return qoe_; }
  [[nodiscard]] ran::RanUplink* ran_uplink() { return ran_uplink_.get(); }
  [[nodiscard]] const ran::RanUplink* ran_uplink() const { return ran_uplink_.get(); }
  [[nodiscard]] net::IcmpProber* icmp_prober() { return icmp_prober_.get(); }
  [[nodiscard]] net::WifiLikeLink* wifi_uplink() { return wifi_uplink_.get(); }

  // --- capture points (Fig. 2 ①②③③*④); mutable ones take truth sinks ---
  [[nodiscard]] const net::CapturePoint& sender_capture() const { return *cap_sender_; }
  [[nodiscard]] const net::CapturePoint& core_capture() const { return *cap_core_; }
  [[nodiscard]] const net::CapturePoint& sfu_in_capture() const { return *cap_sfu_in_; }
  [[nodiscard]] const net::CapturePoint& sfu_out_capture() const { return *cap_sfu_out_; }
  [[nodiscard]] const net::CapturePoint& receiver_capture() const { return *cap_receiver_; }
  [[nodiscard]] net::CapturePoint& sender_capture() { return *cap_sender_; }
  [[nodiscard]] net::CapturePoint& core_capture() { return *cap_core_; }
  [[nodiscard]] net::CapturePoint& sfu_in_capture() { return *cap_sfu_in_; }
  [[nodiscard]] net::CapturePoint& sfu_out_capture() { return *cap_sfu_out_; }
  [[nodiscard]] net::CapturePoint& receiver_capture() { return *cap_receiver_; }

  /// Assembles the Athena correlator's input, a view of the session's logs,
  /// estimating clock offsets the way the measurement pipeline would
  /// (min-OWD filtering against the known wired floors).
  [[nodiscard]] core::CorrelatorInput BuildCorrelatorInput() const;

  /// The Wi-Fi flavour of the correlator input (valid only for
  /// Access::kWifiLike sessions).
  [[nodiscard]] core::WifiCorrelatorInput BuildWifiCorrelatorInput() const;

  [[nodiscard]] const SessionConfig& config() const { return config_; }

 private:
  void WireMediaPath();

  sim::Simulator& sim_;
  SessionConfig config_;
  sim::Rng rng_;
  net::PacketIdGenerator ids_;
  media::QoeCollector qoe_;

  // Capture points.
  std::unique_ptr<net::CapturePoint> cap_sender_;
  std::unique_ptr<net::CapturePoint> cap_core_;
  std::unique_ptr<net::CapturePoint> cap_sfu_in_;
  std::unique_ptr<net::CapturePoint> cap_sfu_out_;
  std::unique_ptr<net::CapturePoint> cap_receiver_;

  // Access network (exactly one uplink is non-null).
  std::unique_ptr<ran::RanUplink> ran_uplink_;
  std::unique_ptr<net::RateLimitedLink> emulated_uplink_;
  std::unique_ptr<net::WifiLikeLink> wifi_uplink_;
  std::unique_ptr<net::WifiLikeLink> wifi_downlink_;
  std::unique_ptr<net::LeoSatLink> leo_uplink_;
  std::unique_ptr<net::LeoSatLink> leo_downlink_;

  // WAN and server.
  std::unique_ptr<net::FixedDelayLink> wan_to_sfu_;
  std::unique_ptr<net::FixedDelayLink> wan_to_receiver_;
  std::unique_ptr<SfuServer> sfu_;

  // Feedback return path.
  std::unique_ptr<net::FixedDelayLink> feedback_wan_;
  std::unique_ptr<ran::DownlinkPath> downlink_;
  std::unique_ptr<net::FixedDelayLink> emulated_downlink_;

  // ICMP probing.
  std::unique_ptr<net::IcmpProber> icmp_prober_;
  std::unique_ptr<net::IcmpResponder> icmp_responder_;
  std::unique_ptr<net::FixedDelayLink> icmp_out_;
  std::unique_ptr<net::FixedDelayLink> icmp_back_;

  // Endpoints.
  std::unique_ptr<VcaSender> sender_;
  std::unique_ptr<VcaReceiver> receiver_;

  bool running_ = false;
};

}  // namespace athena::app
