// Cross-shard mailboxes.
//
// Entities (UE sessions and cells) never call each other: all
// interaction is a `WorldMsg` posted with an arrival time at least one
// lookahead in the future. Messages posted during window k are
// exchanged at the window-k barrier and delivered (as simulator events
// at their arrival time) in window k+1 or later.
//
// Determinism across shard layouts hinges on one rule: before delivery,
// each shard sorts its due inbound messages by the canonical
// (arrival, src, seq) order — `MsgOrder`. The physical route a message
// took (same-shard loopback vs. cross-shard exchange) can differ
// between layouts; the delivery schedule cannot.
#pragma once

#include <cstdint>
#include <memory>

#include "net/packet.hpp"
#include "ran/multi_ue.hpp"
#include "sim/digest.hpp"
#include "sim/time.hpp"

namespace athena::world {

/// Entity ids: UEs are 0..U-1, cells are U..U+C-1.
using EntityId = std::uint32_t;

/// One cross-entity message. Move-only (handover radio state travels by
/// unique_ptr).
struct WorldMsg {
  enum class Kind : std::uint8_t {
    kUplink,        ///< session → cell: datagram enters the UE's RLC buffer
    kCoreDelivery,  ///< cell → session: decoded datagram reaches the core
    kDetach,        ///< session → serving cell: begin handover to `target_cell`
    kTransfer,      ///< old cell → new cell: the UE's radio state in flight
    kAttached,      ///< new cell → session: handover complete
  };

  Kind kind = Kind::kUplink;
  EntityId src = 0;
  EntityId dst = 0;
  /// Per-source monotonic sequence number — the tiebreak that makes the
  /// canonical order total.
  std::uint64_t seq = 0;
  sim::TimePoint arrival{};

  /// The UE the message concerns.
  std::uint32_t ue = 0;
  /// kDetach: destination cell of the handover.
  EntityId target_cell = 0;
  /// kUplink / kCoreDelivery payload.
  net::Packet pkt{};
  /// kTransfer payload.
  std::unique_ptr<ran::UeRadioState> radio;
};

/// Canonical delivery order: (arrival, src, seq). Total because `seq`
/// is monotonic per source.
struct MsgOrder {
  bool operator()(const WorldMsg& a, const WorldMsg& b) const {
    if (a.arrival != b.arrival) return a.arrival < b.arrival;
    if (a.src != b.src) return a.src < b.src;
    return a.seq < b.seq;
  }
};

/// Anything that can receive a WorldMsg. Delivery happens as a
/// simulator event on the entity's own shard at `msg.arrival`; the
/// reference is mutable so kTransfer handlers can steal the payload.
class Entity {
 public:
  virtual ~Entity() = default;
  virtual void OnMessage(WorldMsg& msg) = 0;
};

/// A pending message reduced to its canonical identity words. World
/// snapshots store these instead of full messages: restore is
/// replay-based (the engine re-derives every payload from the seed), so
/// the record only has to *witness* the pending mail — kind, routing,
/// canonical order and a payload digest — byte-for-byte.
struct WorldMsgRecord {
  std::uint8_t kind = 0;
  EntityId src = 0;
  EntityId dst = 0;
  std::uint64_t seq = 0;
  std::int64_t arrival_us = 0;
  std::uint32_t ue = 0;
  EntityId target_cell = 0;
  std::uint64_t payload_digest = 0;

  bool operator==(const WorldMsgRecord&) const = default;
};

/// Canonical order over records: the same (arrival, src, seq) total
/// order MsgOrder imposes on live messages.
struct MsgRecordOrder {
  bool operator()(const WorldMsgRecord& a, const WorldMsgRecord& b) const {
    if (a.arrival_us != b.arrival_us) return a.arrival_us < b.arrival_us;
    if (a.src != b.src) return a.src < b.src;
    return a.seq < b.seq;
  }
};

/// Reduces a live message to its record. The payload digest folds the
/// packet identity (kUplink/kCoreDelivery) or the carried radio-state
/// ledger (kTransfer) into one FNV-1a word.
[[nodiscard]] inline WorldMsgRecord MakeRecord(const WorldMsg& m) {
  sim::Fnv1a h;
  h.MixU64(m.pkt.id);
  h.MixU64(m.pkt.flow);
  h.MixU64(static_cast<std::uint64_t>(m.pkt.kind));
  h.MixU64(m.pkt.size_bytes);
  h.MixU64(static_cast<std::uint64_t>(m.pkt.created_at.us()));
  if (m.radio != nullptr) {
    h.MixU64(m.radio->offered);
    h.MixU64(m.radio->delivered);
    h.MixU64(m.radio->lost);
    h.MixU64(m.radio->in_flight.size());
    h.MixU64(m.radio->queue.size());
    h.MixU64(m.radio->TotalBufferBytes());
    h.MixU64(m.radio->telemetry.size());
  }
  WorldMsgRecord r;
  r.kind = static_cast<std::uint8_t>(m.kind);
  r.src = m.src;
  r.dst = m.dst;
  r.seq = m.seq;
  r.arrival_us = m.arrival.us();
  r.ue = m.ue;
  r.target_cell = m.target_cell;
  r.payload_digest = h.value();
  return r;
}

}  // namespace athena::world
