// The measured UE's 5G uplink (§§2–3): UE-side RLC buffer, slot-clocked
// grant issuance, TB filling with segmentation, HARQ retransmissions, and
// delivery to the mobile core.
//
// A one-UE view of `MultiUeUplink` (multi_ue.hpp), which runs the slot
// machine: the measured UE is attached as UE 0 to a private cell whose
// slot budget is shrunk by the competing cross traffic. This class adds
// what only a single session needs — the gNB→core transfer to capture
// point ②, the `ran.transit` span, and a ground-truth stream of which
// packet bytes rode which TB chain. `RanDownlink` (downlink_ran.hpp) is
// the same kind of view on the DL grid, with a self-scheduling gNB in
// place of the UE's grant policy.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/capacity_trace.hpp"
#include "net/packet.hpp"
#include "ran/channel.hpp"
#include "ran/config.hpp"
#include "ran/cross_traffic.hpp"
#include "ran/grant_policy.hpp"
#include "ran/multi_ue.hpp"
#include "ran/types.hpp"
#include "sim/simulator.hpp"

namespace athena::ran {

class RanUplink {
 public:
  /// `policy` may be null, in which case the paper-faithful BsrGrantPolicy
  /// is used.
  RanUplink(sim::Simulator& sim, RanConfig config, ChannelModel channel,
            CrossTraffic cross_traffic, std::unique_ptr<GrantPolicy> policy = nullptr);

  /// Starts the slot clock. Must be called before traffic is offered.
  void Start() { cell_.Start(); }

  /// Cancels the slot clock. After Stop() no further TBs are transmitted
  /// or delivered; buffered packets stay queued. Safe to call repeatedly.
  void Stop() { cell_.Stop(); }

  /// The UE's IP stack hands a datagram to the modem (enters the RLC
  /// transmission buffer).
  void SendFromUe(const net::Packet& p) { cell_.SendFromUe(kUe, p); }
  [[nodiscard]] net::PacketHandler AsHandler() {
    return [this](const net::Packet& p) { SendFromUe(p); };
  }

  /// Packets pop out here at the mobile core (capture point ② of Fig. 2).
  void set_core_sink(net::PacketHandler sink) { core_sink_ = std::move(sink); }

  // --- telemetry (what NG-Scope exposes; Athena's L1 input) ---
  [[nodiscard]] const std::vector<TbRecord>& telemetry() const { return radio().telemetry; }

  /// Streams each telemetry record as it is produced (for online
  /// consumers such as the §5.3 PHY-informed controller).
  void set_telemetry_listener(std::function<void(const TbRecord&)> listener);

  /// Streams each new TB chain's TbTruth (tests only); none is built without a sink.
  void set_truth_sink(MultiUeUplink::TruthFn sink) { cell_.set_truth_sink(std::move(sink)); }

  [[nodiscard]] const RanCounters& counters() const { return cell_.counters(); }
  [[nodiscard]] const RanConfig& config() const { return cell_.config(); }
  [[nodiscard]] GrantPolicy& policy() { return cell_.policy(kUe); }

  /// Current RLC buffer occupancy in bytes (diagnostics).
  [[nodiscard]] std::uint32_t buffer_bytes() const { return radio().TotalBufferBytes(); }

  /// Capacity trace computed from granted transport-block sizes, windowed —
  /// exactly how the paper derives the Fig. 7 emulated-baseline rate.
  [[nodiscard]] net::CapacityTrace ObservedCapacityTrace(sim::Duration window) const;

 private:
  static constexpr std::uint32_t kUe = 0;

  [[nodiscard]] const UeRadioState& radio() const { return *cell_.FindUe(kUe); }

  sim::Simulator& sim_;
  MultiUeUplink cell_;
  net::PacketHandler core_sink_;
};

}  // namespace athena::ran
