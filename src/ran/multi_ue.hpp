// The 5G slot machine: one cell, any number of contending UEs. It runs
// both directions. On the uplink each UE's grant policy decides its TB
// size; on the downlink (downlink_ran.hpp) the gNB's self-scheduler
// does, on the denser DL grid. The names (`MultiUeUplink`, `SendFromUe`,
// `GrantPolicy::OnUplinkSlot`) are the uplink's, the direction §§2–3
// measure.
//
// The uplink is the system under measurement in §§2–3: every delay
// artifact the paper explains (2.5 ms delay-spread quantization, ~10 ms BSR
// scheduling delay, 10 ms HARQ inflation, over-granting, empty-TB
// retransmissions) is an emergent behaviour of this component. Per UL
// slot the cell ticks every UE's channel, serves competing cross traffic
// first, retransmits due HARQ TBs (they preempt new data), then divides
// what is left of the slot budget among the UEs' grant policies, fills
// each granted TB from its UE's RLC buffer (FIFO, segmented, L2
// processing delay honoured) and lets UEs left without PUSCH send a
// scheduling request.
//
// Each attached UE owns a `GrantPolicy` (default `BsrGrantPolicy`). The
// cell arbitrates: UEs whose policy has a BSR-requested grant due decide
// first, in UE-id order; every other reachable UE then decides in turn
// from a slot-rotated offset, so a saturated cell starves nobody for
// good. Each reachable UE's policy is asked exactly once per slot, with
// the budget left (possibly 0). A UE is reachable unless the cell is in
// outage or its own channel is mid-handover; an unreachable UE gets no
// grant, sends no SR, and its due retransmissions slide one slot. A slot
// with nobody reachable is dark: no cross-traffic draw, no policy call.
//
// Three views run on it. `RanUplink` (uplink.hpp) is a single session's
// uplink and `RanDownlink` (downlink_ran.hpp) a two-party call's
// downlink; each attaches one UE to a private cell. The world's `NrCell`
// hosts a population and moves UEs between cells: a UE's radio state
// (`UeRadioState` — channel model, RLC queue, undelivered-packet ledger,
// telemetry stream) detaches from one cell and attaches to another
// mid-session. Detach drops the UE's pending
// HARQ retransmissions — RLC-UM style handover loss — and its grant
// policy, which stays with the cell; everything else travels intact, so
// packet conservation is exact:
//
//   offered == delivered + lost + |in_flight|      (per UE, at any time)
//
// The cell does not deliver to the core itself: decode completions
// surface through a callback with the decode timestamp, and the caller
// applies the gNB→core latency — in the sharded world that latency is a
// cross-shard mailbox hop.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/packet.hpp"
#include "ran/channel.hpp"
#include "ran/config.hpp"
#include "ran/cross_traffic.hpp"
#include "ran/grant_policy.hpp"
#include "ran/types.hpp"
#include "sim/simulator.hpp"

namespace athena::ran {

/// One queued datagram's remaining bytes in a UE's RLC buffer.
struct UeQueuedPacket {
  net::Packet pkt;
  std::uint32_t remaining = 0;
  sim::TimePoint enqueued_at;
};

/// A packet that entered the modem and has not yet fully delivered.
struct UeDeliveryState {
  net::Packet pkt;
  std::uint32_t undelivered = 0;
  sim::TimePoint enqueued_at;
};

/// Everything that travels with a UE across cells. Movable value type;
/// the sharded world ships it through a mailbox on handover.
struct UeRadioState {
  ChannelModel channel{ChannelModel::Config{}, sim::Rng{1}};
  std::deque<UeQueuedPacket> queue{};
  std::unordered_map<net::PacketId, UeDeliveryState> in_flight{};
  /// The UE's control-channel telemetry stream, accumulated across every
  /// cell it visits (slot-time ordered: handover is one-way in time).
  std::vector<TbRecord> telemetry{};

  // --- conservation ledger ---
  std::uint64_t offered = 0;    ///< packets handed to SendFromUe
  std::uint64_t delivered = 0;  ///< packets fully decoded (on their way to the core)
  std::uint64_t lost = 0;       ///< HARQ-chain drops + handover-dropped chains

  [[nodiscard]] std::uint32_t TotalBufferBytes() const {
    std::uint32_t bytes = 0;
    for (const auto& q : queue) bytes += q.remaining;
    return bytes;
  }
};

class MultiUeUplink {
 public:
  /// Decode completion: `pkt` fully decoded for `ue` at `decoded_at` (the
  /// slot time), having entered the modem at `enqueued_at`. The caller
  /// adds the gNB→core transfer latency.
  using DeliverFn = std::function<void(std::uint32_t ue, const net::Packet& pkt,
                                       sim::TimePoint decoded_at, sim::TimePoint enqueued_at)>;
  /// Every telemetry record as it is produced (online consumers such as
  /// the §5.3 PHY-informed controller).
  using TelemetryFn = std::function<void(std::uint32_t ue, const TbRecord& record)>;
  /// Ground truth of each new TB chain (tests only; see types.hpp).
  using TruthFn = std::function<void(const TbTruth& truth)>;

  /// `cell_tag` namespaces TB/chain ids (bits 40+) so the telemetry
  /// streams of different cells never collide in a handed-over UE's
  /// concatenated stream. `cross_traffic` is competing demand served
  /// ahead of the attached UEs; `CrossTraffic::Idle` draws nothing.
  MultiUeUplink(sim::Simulator& sim, RanConfig config, std::uint32_t cell_tag,
                CrossTraffic cross_traffic);
  MultiUeUplink(const MultiUeUplink&) = delete;  // the slot timer holds `this`
  MultiUeUplink& operator=(const MultiUeUplink&) = delete;

  /// Starts the slot clock (idempotent). Slots stay on the epoch-aligned
  /// UL grid, so every cell in a world ticks the same instants.
  void Start();
  /// Cancels the slot clock. After Stop() no further TBs are transmitted
  /// or delivered; buffered packets stay queued. Safe to call repeatedly.
  void Stop();

  /// Hands a UE's radio state to this cell, scheduled by `policy` (null =
  /// a fresh BsrGrantPolicy). The UE contends from the next slot.
  void AttachUe(std::uint32_t ue, UeRadioState state,
                std::unique_ptr<GrantPolicy> policy = nullptr);

  /// Removes the UE, returning its radio state for transfer. Pending HARQ
  /// retransmissions are dropped (their packets count as `lost` — the
  /// RLC-UM handover loss) and the UE's grant policy is discarded; queued
  /// and in-flight packets travel intact. Not callable from the cell's
  /// own callbacks while a slot runs.
  [[nodiscard]] UeRadioState DetachUe(std::uint32_t ue);

  [[nodiscard]] bool HasUe(std::uint32_t ue) const { return ues_.count(ue) != 0; }
  [[nodiscard]] std::vector<std::uint32_t> AttachedUes() const;
  [[nodiscard]] const UeRadioState* FindUe(std::uint32_t ue) const;
  [[nodiscard]] GrantPolicy& policy(std::uint32_t ue);

  /// A datagram from `ue`'s IP stack enters its RLC buffer.
  void SendFromUe(std::uint32_t ue, const net::Packet& p);

  void set_deliver_sink(DeliverFn sink) { deliver_ = std::move(sink); }
  void set_telemetry_listener(TelemetryFn listener) { telemetry_listener_ = std::move(listener); }
  void set_truth_sink(TruthFn sink) { truth_sink_ = std::move(sink); }

  /// Cell-wide outage window (world-scale chaos): while now ∈
  /// [start, end) no UE is reachable.
  void SetOutage(sim::TimePoint start, sim::TimePoint end) {
    outage_start_ = start;
    outage_end_ = end;
  }

  [[nodiscard]] const RanCounters& counters() const { return counters_; }
  [[nodiscard]] const RanConfig& config() const { return config_; }
  [[nodiscard]] std::uint64_t slots_run() const { return slot_index_; }

 private:
  struct Tb {
    std::uint32_t ue = 0;
    TbId id = 0;
    TbId chain_id = 0;
    GrantType grant = GrantType::kProactive;
    std::uint32_t tbs = 0;
    std::uint32_t used = 0;
    std::uint8_t round = 0;
    sim::TimePoint first_tx_slot;
    std::vector<SegmentTruth> segments;
    bool has_bsr = false;
    std::uint32_t bsr_bytes = 0;
  };

  /// An attached UE: the radio state that travels, the policy that does
  /// not, and the state of the slot in progress.
  struct AttachedUe {
    std::uint32_t id = 0;
    UeRadioState radio;
    std::unique_ptr<GrantPolicy> policy;
    bool reachable = false;
    bool served_first = false;
    GrantPolicy::Decision grant{};
  };

  void OnUplinkSlot();
  /// Divides `budget` among the reachable UEs, transmits their new-data
  /// TBs and their scheduling requests.
  void GrantNewData(sim::TimePoint slot_time, std::uint32_t budget);
  /// Builds and transmits a new-data TB of the granted size.
  void TransmitNewTb(AttachedUe& ue, sim::TimePoint slot_time);
  /// Transmits (or retransmits) `tb` and samples its decode outcome.
  void Transmit(AttachedUe& ue, Tb tb, sim::TimePoint slot_time);
  void OnTbDecoded(AttachedUe& ue, const Tb& tb, sim::TimePoint slot_time);
  /// Books the chain's undelivered packets as lost.
  void DropChain(UeRadioState& radio, const Tb& tb);
  void RecordTelemetry(AttachedUe& ue, const Tb& tb, sim::TimePoint slot_time, bool crc_ok);
  [[nodiscard]] AttachedUe& Attached(std::uint32_t ue, const char* violation);
  [[nodiscard]] bool InOutage(sim::TimePoint t) const {
    return outage_end_ > outage_start_ && t >= outage_start_ && t < outage_end_;
  }

  sim::Simulator& sim_;
  RanConfig config_;
  CrossTraffic cross_traffic_;
  DeliverFn deliver_;
  TelemetryFn telemetry_listener_;
  TruthFn truth_sink_;

  /// Ordered by UE id: all per-slot iteration is deterministic.
  std::map<std::uint32_t, AttachedUe> ues_;
  /// This slot's reachable UEs, in UE-id order.
  std::vector<AttachedUe*> reachable_;
  /// Retransmissions waiting for their slot, keyed by absolute slot time
  /// (µs); within a slot, insertion order.
  std::map<std::int64_t, std::vector<Tb>> pending_rtx_;

  RanCounters counters_;
  TbId next_tb_id_ = 1;
  std::uint64_t slot_index_ = 0;
  sim::TimePoint outage_start_;
  sim::TimePoint outage_end_;
  bool started_ = false;
  bool in_slot_ = false;
  sim::EventHandle slot_timer_;
};

}  // namespace athena::ran
