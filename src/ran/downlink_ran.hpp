// The 5G downlink (gNB → UE): like RanUplink, a one-UE view of the slot
// machine in multi_ue.hpp, here on the DL grid (4× as dense as the UL
// grid in the paper's cell). Only the grant policy differs: the gNB knows
// its own queue, so each DL slot it grants itself the smaller of the
// backlog and the slot budget, with no grant cycle, no BSR delay and no
// proactive-grant waste. The slot budget, HARQ and the handover slide are
// the shared machinery. The paper's takeaway (c), "the 5G RAN downlink
// provides low and stable delay", thus emerges from the grant policy
// alone, and two-party calls put a mobile receiver behind real radio
// machinery.
#pragma once

#include <cstdint>
#include <vector>

#include "net/packet.hpp"
#include "ran/channel.hpp"
#include "ran/config.hpp"
#include "ran/cross_traffic.hpp"
#include "ran/multi_ue.hpp"
#include "ran/types.hpp"
#include "sim/simulator.hpp"

namespace athena::ran {

class RanDownlink {
 public:
  /// Runs a cell on the DL grid of `config` (RanConfig::DlSlotPeriod).
  RanDownlink(sim::Simulator& sim, RanConfig config, ChannelModel channel,
              CrossTraffic cross_traffic);

  void Start() { cell_.Start(); }
  void Stop() { cell_.Stop(); }

  /// The core hands a datagram to the gNB for over-the-air delivery.
  void SendFromCore(const net::Packet& p);
  [[nodiscard]] net::PacketHandler AsHandler() {
    return [this](const net::Packet& p) { SendFromCore(p); };
  }

  /// Packets pop out at the UE.
  void set_ue_sink(net::PacketHandler sink) { ue_sink_ = std::move(sink); }

  /// DL slot spacing: the cell's RanConfig::DlSlotPeriod().
  [[nodiscard]] sim::Duration slot_period() const { return cell_.config().ul_slot_period; }

  [[nodiscard]] const std::vector<TbRecord>& telemetry() const { return radio().telemetry; }
  [[nodiscard]] const RanCounters& counters() const { return cell_.counters(); }
  [[nodiscard]] std::uint32_t queue_bytes() const { return radio().TotalBufferBytes(); }

 private:
  class SelfScheduler;
  static constexpr std::uint32_t kUe = 0;

  [[nodiscard]] const UeRadioState& radio() const { return *cell_.FindUe(kUe); }

  sim::Simulator& sim_;
  MultiUeUplink cell_;
  SelfScheduler* scheduler_ = nullptr;  ///< owned by cell_
  net::PacketHandler ue_sink_;
};

}  // namespace athena::ran
