// Deterministic fault injection for the measurement pipeline.
//
// Athena's correlator, analyzer and live engine consume three
// independently-collected feeds (PHY telemetry, per-hop captures, app
// logs). In deployment those feeds are lossy, duplicated, reordered,
// clock-skewed and occasionally garbage. This subsystem impairs any feed
// *systematically*: a `FaultPlan` declares per-stream fault models, and a
// `FaultInjector` applies them — offline to recorded vectors (the
// correlator path) or online as a packet-handler interposer (the live
// path). Every random decision flows from one `sim::Rng` sub-stream per
// (seed, stream), so an identical plan + seed reproduces a byte-identical
// impaired run regardless of which streams are transformed first or how
// many sweep workers are running (sim::ParallelRunner-safe: no globals).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "net/capture.hpp"
#include "net/packet.hpp"
#include "ran/types.hpp"
#include "resilience/supervisor.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace athena::fault {

/// The telemetry/capture feeds a plan can impair independently. kPackets
/// is the online interposer stream (FaultInjector::Wrap).
enum class Stream : std::uint8_t {
  kTelemetry,        ///< PHY TbRecords (the NG-Scope feed)
  kSenderCapture,    ///< pcap tap ① (sender egress)
  kCoreCapture,      ///< pcap tap ② (mobile core)
  kReceiverCapture,  ///< pcap tap ④ (receiver ingress)
  kPackets,          ///< a live packet path (online interposer)
};
inline constexpr std::size_t kStreamCount = 5;

[[nodiscard]] const char* ToString(Stream stream);

/// One stream's fault model. All probabilities are per-record and the
/// faults compose: a record can be clock-stepped, delayed *and*
/// duplicated in one pass. Zero-initialized = pass-through.
struct FaultSpec {
  // --- record-level faults ---
  double drop = 0.0;       ///< record vanishes
  double duplicate = 0.0;  ///< record is emitted twice (same timestamps)
  /// With probability `reorder` a record is held back and re-emitted
  /// after up to `reorder_depth` later records — a bounded reorder
  /// buffer, never an unbounded shuffle.
  double reorder = 0.0;
  std::size_t reorder_depth = 8;
  /// With probability `delay` the record's *local* timestamp is pushed
  /// late by Uniform[delay_min, delay_max] (collection latency, not
  /// transit delay; ground-truth fields are never touched).
  double delay = 0.0;
  sim::Duration delay_min{0};
  sim::Duration delay_max{0};
  /// With probability `corrupt` one field of the record is scrambled
  /// (sizes, HARQ metadata, CRC verdicts — never into values that are
  /// UB to consume, only into values that are *wrong*).
  double corrupt = 0.0;
  /// Telemetry flood: expected total copies per record (≥ 1.0; 1.0
  /// disables). Extra copies carry jittered local timestamps, so they
  /// are near-duplicates the correlator's exact-dedup cannot remove —
  /// a misbehaving collector re-reporting everything, the overload
  /// governor's natural enemy.
  double flood_factor = 1.0;

  // --- window faults ---
  /// Burst outage: every record timestamped inside [outage_begin,
  /// outage_end) vanishes (sniffer crash + restart). begin == end
  /// disables.
  sim::TimePoint outage_begin;
  sim::TimePoint outage_end;
  /// Truncation: the stream ends early — records in the last
  /// (1 - truncate_after_fraction) of the stream's observed time span
  /// vanish (collector died before the run finished). 1.0 disables.
  double truncate_after_fraction = 1.0;

  // --- clock faults (applied to local timestamps) ---
  /// Step the stream's clock by `clock_step` for every record at or
  /// after `clock_step_at` (NTP re-sync mid-run).
  sim::Duration clock_step{0};
  sim::TimePoint clock_step_at;
  /// Constant drift in parts-per-million relative to the stream's first
  /// record (a skewed local oscillator).
  double clock_drift_ppm = 0.0;

  [[nodiscard]] bool active() const {
    return drop > 0.0 || duplicate > 0.0 || reorder > 0.0 || delay > 0.0 ||
           corrupt > 0.0 || flood_factor > 1.0 || outage_end > outage_begin ||
           truncate_after_fraction < 1.0 || clock_step.count() != 0 ||
           clock_drift_ppm != 0.0;
  }
};

/// A named, composable set of per-stream fault models, plus the
/// process-level faults (kill points) the resilience supervisor injects.
struct FaultPlan {
  std::array<FaultSpec, kStreamCount> streams{};

  /// Process death, handled by resilience::Supervisor rather than the
  /// record-level injector: the whole collector process dies and is
  /// restarted from its latest checkpoint.
  resilience::ProcessFaultSpec process{};

  [[nodiscard]] FaultSpec& For(Stream s) { return streams[static_cast<std::size_t>(s)]; }
  [[nodiscard]] const FaultSpec& For(Stream s) const {
    return streams[static_cast<std::size_t>(s)];
  }

  /// True when any *stream* fault model is active (process faults are
  /// queried separately via `process.any()` — they act on the run, not
  /// on records).
  [[nodiscard]] bool active() const {
    for (const auto& s : streams) {
      if (s.active()) return true;
    }
    return false;
  }
};

/// What the injector actually did, per stream — the ground truth chaos
/// invariants compare degradation reports against.
struct FaultStats {
  struct PerStream {
    std::uint64_t seen = 0;
    std::uint64_t dropped = 0;          ///< random drops
    std::uint64_t outage_dropped = 0;   ///< burst-outage window
    std::uint64_t truncated = 0;        ///< truncation tail
    std::uint64_t duplicated = 0;
    std::uint64_t flooded = 0;          ///< extra near-duplicate copies emitted
    std::uint64_t reordered = 0;
    std::uint64_t delayed = 0;
    std::uint64_t corrupted = 0;
    std::uint64_t clock_stepped = 0;

    [[nodiscard]] std::uint64_t faults() const {
      return dropped + outage_dropped + truncated + duplicated + flooded + reordered +
             delayed + corrupted + clock_stepped;
    }
  };

  std::array<PerStream, kStreamCount> streams{};

  [[nodiscard]] PerStream& For(Stream s) { return streams[static_cast<std::size_t>(s)]; }
  [[nodiscard]] const PerStream& For(Stream s) const {
    return streams[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] std::uint64_t total_faults() const {
    std::uint64_t n = 0;
    for (const auto& s : streams) n += s.faults();
    return n;
  }

  /// Publishes per-stream tallies as `fault.<stream>.<kind>` gauges into
  /// the installed MetricsRegistry (no-op when metrics are disabled).
  void PublishMetrics() const;
};

/// Applies a FaultPlan. Each stream's randomness is an independent
/// sub-stream derived from (seed, stream index), so transforming the
/// telemetry never perturbs the capture faults and call order is
/// irrelevant to the output.
class FaultInjector {
 public:
  FaultInjector(FaultPlan plan, std::uint64_t seed);

  /// Impairs a telemetry vector in place (timestamp field: slot_time).
  void Apply(Stream stream, std::vector<ran::TbRecord>& records);
  /// Impairs a capture log in place (timestamp field: local_ts; ground
  /// truth never enters a capture record, so none can be touched).
  void Apply(Stream stream, std::vector<net::CaptureRecord>& records);

  /// Wraps a live packet handler: drop / duplicate / bounded-reorder /
  /// delay / burst-outage applied per packet at simulated time. Delayed
  /// and reordered packets are re-emitted through the simulator, so the
  /// impaired run stays deterministic and virtual-time ordered.
  [[nodiscard]] net::PacketHandler Wrap(sim::Simulator& sim, net::PacketHandler next);

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }
  [[nodiscard]] const FaultStats& stats() const { return stats_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

 private:
  template <typename Record, typename TsOf, typename SetTs, typename Corrupt>
  void ApplyImpl(Stream stream, std::vector<Record>& records, TsOf ts_of, SetTs set_ts,
                 Corrupt corrupt);

  FaultPlan plan_;
  std::uint64_t seed_;
  FaultStats stats_;
};

/// Order-insensitive-of-construction, content-sensitive digest of a
/// correlator input (FNV-1a over every field the correlator consumes).
/// Two impaired runs are "byte-identical" iff their digests match — the
/// reproducibility invariant `run_chaos_matrix.sh` checks across
/// --jobs=1/8. It mixes what resilience::StateDigest mixes except the
/// capture records' ICMP probe sequence; the digests recorded in
/// BENCH_chaos.json depend on that difference.
class InputDigest {
 public:
  void Mix(std::uint64_t v) { state_.Mix(v); }
  void Mix(std::span<const ran::TbRecord> records) { state_.Mix(records); }
  void Mix(net::CaptureView records);

  [[nodiscard]] std::uint64_t value() const { return state_.value(); }

 private:
  resilience::StateDigest state_;
};

}  // namespace athena::fault
