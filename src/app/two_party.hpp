// A full two-party call with the mobile party behind real radio machinery
// in BOTH directions: party A's media climbs the 5G uplink (grants, BSR,
// HARQ — §3), party B's media descends the 5G downlink (dense self-
// scheduled slots — the reason the paper finds downlink delay "low and
// stable"), and A's RTCP feedback shares the uplink RLC queue with A's own
// media (as it does on a real phone).
//
//   A.sender ──① RanUplink  ──②→ WAN → SFU → WAN →④ B.receiver
//   B.sender ──⑤ wired      ──→ SFU → WAN ──⑥ RanDownlink ──⑦→ A.receiver
//
// Both directions are captured and correlable: the uplink with the 5G
// correlator as usual, the downlink with the same byte-conservation
// algorithm against the gNB's transmit telemetry.
#pragma once

#include <memory>

#include "app/receiver.hpp"
#include "app/sender.hpp"
#include "app/sfu.hpp"
#include "core/correlator.hpp"
#include "net/capture.hpp"
#include "net/link.hpp"
#include "ran/downlink_ran.hpp"
#include "ran/uplink.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace athena::app {

struct TwoPartyConfig {
  std::uint64_t seed = 42;
  ran::RanConfig cell = ran::RanConfig::PaperCell();
  ran::ChannelModel::Config channel;
  net::CapacityTrace uplink_cross_traffic;
  net::CapacityTrace downlink_cross_traffic;
  double cross_burstiness = 0.25;
  sim::Duration wan_delay{std::chrono::milliseconds{10}};
  sim::Duration wan_jitter{std::chrono::microseconds{300}};
  sim::Duration wired_party_delay{std::chrono::milliseconds{5}};
  SfuServer::Config sfu;
  VcaSender::Config sender_a;  ///< the mobile party
  VcaSender::Config sender_b;  ///< the wired party
};

class TwoPartySession {
 public:
  TwoPartySession(sim::Simulator& sim, TwoPartyConfig config);
  ~TwoPartySession();

  TwoPartySession(const TwoPartySession&) = delete;
  TwoPartySession& operator=(const TwoPartySession&) = delete;

  void Start();
  void Stop();
  void Run(sim::Duration span);

  // --- the mobile party (A) and the wired party (B) ---
  [[nodiscard]] VcaSender& sender_a() { return *sender_a_; }
  [[nodiscard]] VcaSender& sender_b() { return *sender_b_; }
  [[nodiscard]] VcaReceiver& receiver_a() { return *receiver_a_; }
  [[nodiscard]] VcaReceiver& receiver_b() { return *receiver_b_; }
  [[nodiscard]] media::QoeCollector& qoe_at_a() { return qoe_a_; }
  [[nodiscard]] media::QoeCollector& qoe_at_b() { return qoe_b_; }
  [[nodiscard]] ran::RanUplink& uplink() { return *uplink_; }
  [[nodiscard]] ran::RanDownlink& downlink() { return *downlink_; }

  // --- capture points (① ② ④ up, ⑥ ⑦ down) ---
  [[nodiscard]] const net::CapturePoint& a_out_capture() const { return *cap_a_out_; }
  [[nodiscard]] const net::CapturePoint& core_up_capture() const { return *cap_core_up_; }
  [[nodiscard]] const net::CapturePoint& b_in_capture() const { return *cap_b_in_; }
  [[nodiscard]] const net::CapturePoint& core_down_capture() const { return *cap_core_down_; }
  [[nodiscard]] const net::CapturePoint& a_in_capture() const { return *cap_a_in_; }

  /// Correlator input (a view) for the A→B direction (the 5G uplink).
  [[nodiscard]] core::CorrelatorInput BuildUplinkCorrelatorInput() const;

  /// Correlator input for the B→A direction (across the 5G downlink).
  /// The same byte-conservation correlator applies — the gNB transmit
  /// queue is FIFO; the returned cell config carries the DL slot period so
  /// root-cause thresholds scale correctly.
  [[nodiscard]] core::CorrelatorInput BuildDownlinkCorrelatorInput() const;

 private:
  sim::Simulator& sim_;
  TwoPartyConfig config_;
  sim::Rng rng_;
  net::PacketIdGenerator ids_;
  media::QoeCollector qoe_a_;  ///< what A sees of B's media
  media::QoeCollector qoe_b_;  ///< what B sees of A's media

  // Capture points.
  std::unique_ptr<net::CapturePoint> cap_a_out_;     // ① A's egress
  std::unique_ptr<net::CapturePoint> cap_core_up_;   // ② after the uplink
  std::unique_ptr<net::CapturePoint> cap_b_in_;      // ④ B's ingress
  std::unique_ptr<net::CapturePoint> cap_b_out_;     // ⑤ B's egress
  std::unique_ptr<net::CapturePoint> cap_core_down_; // ⑥ before the downlink
  std::unique_ptr<net::CapturePoint> cap_a_in_;      // ⑦ A's ingress

  std::unique_ptr<ran::RanUplink> uplink_;
  std::unique_ptr<ran::RanDownlink> downlink_;
  std::unique_ptr<net::FixedDelayLink> wan_up_;
  std::unique_ptr<net::FixedDelayLink> wan_b_;
  std::unique_ptr<net::FixedDelayLink> wired_b_;
  std::unique_ptr<net::FixedDelayLink> wan_down_;
  std::unique_ptr<SfuServer> sfu_ab_;
  std::unique_ptr<SfuServer> sfu_ba_;
  std::unique_ptr<net::FixedDelayLink> feedback_to_b_;

  std::unique_ptr<VcaSender> sender_a_;
  std::unique_ptr<VcaSender> sender_b_;
  std::unique_ptr<VcaReceiver> receiver_a_;
  std::unique_ptr<VcaReceiver> receiver_b_;

  bool running_ = false;
};

}  // namespace athena::app
