// 5G RAN configuration: the Fig. 6 frame structure and the timing
// constants §3 of the paper measures on the private standalone cell.
//
//   - TDD with downlink slots 4× as frequent as uplink slots; an uplink
//     slot every 2.5 ms.
//   - BSR scheduling delay (BSR sent → grant usable) ≈ 10 ms.
//   - HARQ retransmission delay 10 ms per round.
//   - Proactive grants: small pre-allocated uplink TBs each UL slot.
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace athena::ran {

struct RanConfig {
  // --- frame structure ---
  /// Interval between consecutive uplink slots (TDD: 2.5 ms; an FDD-like
  /// configuration sets this to slot_duration).
  sim::Duration ul_slot_period{std::chrono::microseconds{2500}};
  /// Single slot length (30 kHz SCS ⇒ 0.5 ms).
  sim::Duration slot_duration{std::chrono::microseconds{500}};

  // --- scheduling ---
  /// Delay from the UE sending a BSR to the requested grant being usable.
  sim::Duration bsr_scheduling_delay{std::chrono::milliseconds{10}};
  /// Proactive (pre-allocated) grant size per UL slot; carries "one or two"
  /// media packets (§3.1). 0 disables proactive grants.
  std::uint32_t proactive_grant_bytes = 2500;
  /// Uplink cell capacity shared by all UEs.
  double cell_ul_capacity_bps = 30e6;
  /// Data enqueued closer than this to a slot cannot make that slot
  /// (UE-side L2 processing time).
  sim::Duration ue_processing_delay{std::chrono::microseconds{500}};

  // --- HARQ ---
  /// One retransmission round costs this much extra delay (§3.2: 10 ms).
  sim::Duration rtx_delay{std::chrono::milliseconds{10}};
  /// Rounds after which the TB is abandoned (RLC would take over; we count
  /// the packet as lost).
  std::uint8_t max_harq_rounds = 4;

  // --- L4S-style marking (§5.3 extension) ---
  /// When > 0, packets that waited longer than this in the RLC buffer
  /// before their transport block leave with ECN-CE set (the modem is the
  /// bottleneck, so it can mark precisely — the ABC/L4S idea the paper
  /// points to). 0 disables marking.
  sim::Duration ecn_marking_threshold{0};

  // --- wired tail ---
  /// gNB → mobile-core transfer (the capture point ② of Fig. 2).
  sim::Duration gnb_to_core_delay{std::chrono::milliseconds{1}};

  /// Interval between consecutive downlink slots: Fig. 6's TDD pattern
  /// has four downlink slots per uplink slot.
  [[nodiscard]] sim::Duration DlSlotPeriod() const { return ul_slot_period / 4; }

  /// Bytes a single UL slot can carry at cell capacity.
  [[nodiscard]] std::uint32_t SlotCapacityBytes() const {
    return static_cast<std::uint32_t>(cell_ul_capacity_bps *
                                      sim::ToSeconds(ul_slot_period) / 8.0);
  }

  /// The private 5G small cell of §2 (defaults above).
  static RanConfig PaperCell() { return RanConfig{}; }

  /// Same cell without proactive grants (every packet waits for a BSR
  /// grant) — the §3.1 ablation.
  static RanConfig PaperCellNoProactive() {
    RanConfig c;
    c.proactive_grant_bytes = 0;
    return c;
  }

  /// FDD-like configuration (§5.1: duplexing strategies differ): an uplink
  /// opportunity every slot, same aggregate capacity.
  static RanConfig FddLikeCell() {
    RanConfig c;
    c.ul_slot_period = c.slot_duration;
    c.proactive_grant_bytes = 500;  // same proactive *rate* (bytes/s)
    return c;
  }
};

}  // namespace athena::ran
