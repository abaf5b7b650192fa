// The Athena cross-layer correlator — the paper's primary contribution.
//
// Inputs are exactly what the real deployment has (Fig. 2): packet capture
// logs from the measurement points, the PHY control-channel telemetry
// stream (TbRecords), estimated clock offsets, and the public cell
// configuration. It never touches simulator ground truth.
//
// Correlation steps (§1, contributions 1–3):
//   1. Time-synchronize all logs onto one clock (offsets from ClockSync).
//   2. Match network datagrams to the transport blocks that carried them.
//      The UE's RLC queue is FIFO, so byte conservation determines the
//      mapping: replay the TB sequence, draining captured packet bytes in
//      send order; a TB can only carry bytes of packets that reached the
//      modem a processing-delay before its slot.
//   3. Lift packets to application semantics (frame id, SVC layer from the
//      RTP extension) and aggregate per frame.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/cross_layer.hpp"
#include "net/capture.hpp"
#include "ran/config.hpp"
#include "ran/types.hpp"
#include "sim/time.hpp"

namespace athena::core {

/// A non-owning view of the logs to correlate; the builders point it at the
/// logs their session, call or world cell holds. Each capture view stays valid
/// until its capture point is cleared or destroyed, as capture blocks never
/// move. `telemetry` points into a vector that grows, so the input as a whole
/// is valid until its owner runs again or is destroyed. Code that mutates or
/// keeps logs copies them into a CorrelatorLogs.
struct CorrelatorInput {
  /// Capture logs (local clocks). `sender` is required; others optional.
  net::CaptureView sender;
  net::CaptureView core;
  net::CaptureView receiver;

  /// PHY telemetry for the measured UE's uplink.
  std::span<const ran::TbRecord> telemetry;

  /// Clock offsets relative to the common (core) clock: add these to a
  /// local timestamp to land on the common clock.
  sim::Duration sender_offset{0};
  sim::Duration receiver_offset{0};

  /// Cell parameters (public configuration knowledge).
  ran::RanConfig cell;
};

/// An owned copy of a view, for fault injection, the overload governor and
/// checkpoints; its captures are copied chunk by chunk. It converts to a
/// view, with one chunk per capture log, from an lvalue only.
struct CorrelatorLogs {
  std::vector<net::CaptureRecord> sender;
  std::vector<net::CaptureRecord> core;
  std::vector<net::CaptureRecord> receiver;
  std::vector<ran::TbRecord> telemetry;
  sim::Duration sender_offset{0};
  sim::Duration receiver_offset{0};
  ran::RanConfig cell;

  CorrelatorLogs() = default;
  explicit CorrelatorLogs(const CorrelatorInput& v)
      : sender(v.sender.ToVector()), core(v.core.ToVector()), receiver(v.receiver.ToVector()),
        telemetry(v.telemetry.begin(), v.telemetry.end()), sender_offset(v.sender_offset),
        receiver_offset(v.receiver_offset), cell(v.cell) {}
  operator CorrelatorInput() const& {
    return {sender, core, receiver, telemetry, sender_offset, receiver_offset, cell};
  }
  operator CorrelatorInput() const&& = delete;
};

/// Health of one input stream after cleaning. The correlator tolerates
/// duplicate, out-of-order and missing records (deduping and re-sorting
/// internally) but it never hides that it had to: every repair is
/// counted here, and consumers must treat a degraded stream's
/// attributions as low-confidence rather than silently trusting them.
struct StreamHealth {
  enum class State : std::uint8_t {
    kMissing,   ///< stream empty (while others carried traffic)
    kHealthy,   ///< no repairs needed
    kDegraded,  ///< duplicates, reordering or silent gaps were observed
  };
  State state = State::kMissing;
  std::uint64_t records = 0;             ///< records after cleaning
  std::uint64_t duplicates_dropped = 0;  ///< exact re-deliveries removed
  std::uint64_t out_of_order = 0;        ///< records that arrived behind time order
  std::uint64_t gaps = 0;                ///< silent holes with corroborated traffic inside
  sim::Duration longest_gap{0};

  [[nodiscard]] bool degraded() const { return state == State::kDegraded; }
};

/// The degradation contract's summary verdict for one correlation run.
struct CorrelationHealth {
  StreamHealth telemetry;
  StreamHealth sender;
  StreamHealth core;
  StreamHealth receiver;

  /// Packets with zero TB coverage although the telemetry feed was still
  /// alive when they were sent (excludes the end-of-run in-flight tail).
  std::uint64_t uncovered_packets = 0;
  /// TB payload bytes that drained no captured packet. A healthy feed
  /// conserves bytes (payload ≙ captured traffic); a sizeable surplus
  /// means the telemetry *content* is wrong — corrupted size fields or
  /// records from another UE — even when every timestamp looks sane.
  std::uint64_t phantom_tb_bytes = 0;
  /// Set when phantom_tb_bytes exceeds the conservation tolerance.
  bool phantom_capacity = false;
  /// Mean of CrossLayerRecord::match_confidence (1.0 when empty).
  double mean_match_confidence = 1.0;

  /// True when any attribution in the dataset rests on repaired or
  /// missing evidence. A degraded dataset is still usable — the contract
  /// is that this flag (and the per-stream counters) make it *visible*.
  [[nodiscard]] bool degraded() const {
    return telemetry.degraded() || sender.degraded() || core.degraded() ||
           receiver.degraded() || uncovered_packets > 0 || phantom_capacity ||
           (telemetry.state == StreamHealth::State::kMissing && sender.records > 0);
  }
};

/// The correlated dataset: per-packet and per-frame views plus match
/// diagnostics.
struct CrossLayerDataset {
  std::vector<CrossLayerRecord> packets;
  std::vector<FrameRecord> frames;

  /// Per-stream repair counters and the dataset-level degradation verdict.
  CorrelationHealth health;

  /// Telemetry bytes that could not be matched to any captured packet
  /// (ideally 0; nonzero indicates clock error or missing captures).
  std::uint64_t unmatched_tb_bytes = 0;
  /// Packet bytes never covered by a TB (packets lost in the RAN, or
  /// telemetry truncated before their slots).
  std::uint64_t unmatched_packet_bytes = 0;

  [[nodiscard]] const CrossLayerRecord* FindPacket(net::PacketId id) const;
  [[nodiscard]] const FrameRecord* FindFrame(std::uint64_t frame_id) const;
};

class Correlator {
 public:
  /// Runs the full correlation. Deterministic, pure function of the input.
  [[nodiscard]] static CrossLayerDataset Correlate(const CorrelatorInput& input);

  struct TbChain;  // implementation detail, exposed for the .cpp helpers
};

}  // namespace athena::core
