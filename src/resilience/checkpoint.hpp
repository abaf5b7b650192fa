// Deterministic checkpoint/restore for long-running sessions.
//
// Athena sessions are pure functions of (SessionConfig, seed): every
// random decision flows from seeded sim::Rng streams and virtual time,
// so an identical build replays to an identical state. A checkpoint
// exploits that: it is a versioned, self-describing, checksummed binary
// snapshot of the session's *observable* state at a virtual-time
// boundary — the accumulated correlator-input streams (PHY telemetry +
// the capture logs, i.e. everything the measurement pipeline has
// collected so far), the clock-offset estimates, progress counters and
// an FNV-1a state digest over all of it.
//
// Restore is replay-based: a fresh process rebuilds the session from the
// plan, fast-forwards to the checkpoint's virtual time, and *verifies*
// that the replayed state digest is byte-identical to the snapshot
// before continuing — catching nondeterminism, config drift and version
// skew instead of silently diverging. (Serializing the live event queue
// is impossible in general C++ — callbacks are closures — and
// unnecessary: determinism makes the reached state reproducible, and the
// digest makes the reproduction *checkable*.) A restored run therefore
// finishes with a final report digest byte-identical to an uninterrupted
// run; tests/resilience_test.cpp pins that across seeds × kill points.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "app/session.hpp"
#include "core/correlator.hpp"
#include "resilience/overload.hpp"
#include "sim/digest.hpp"
#include "sim/time.hpp"

namespace athena::obs {
class TraceSink;
}  // namespace athena::obs

namespace athena::resilience {

/// A malformed, truncated, corrupted or mismatched checkpoint. Always a
/// diagnostic, never UB: loading validates the magic, version, size and
/// payload checksum before any field is trusted.
class CheckpointError : public std::runtime_error {
 public:
  explicit CheckpointError(const std::string& what) : std::runtime_error(what) {}
};

/// Rolling FNV-1a digest over the fields the pipeline consumes — the
/// byte-identity witness for checkpoint verification and final-report
/// comparison.
class StateDigest {
 public:
  void Mix(std::uint64_t v) { fnv_.MixU64(v); }
  void Mix(std::string_view s);
  void Mix(std::span<const ran::TbRecord> records);
  void Mix(net::CaptureView records);
  void Mix(const core::CorrelatorInput& input);
  /// The radio knobs both config fingerprints cover, in one fixed order.
  void Mix(const ran::RanConfig& cell, const ran::ChannelModel::Config& channel);

  [[nodiscard]] std::uint64_t value() const { return fnv_.value(); }

 private:
  sim::Fnv1a fnv_;
};

/// Digest of the SessionConfig fields that shape a run's behaviour. A
/// checkpoint taken under one configuration refuses to restore under
/// another (the replay would silently diverge otherwise).
[[nodiscard]] std::uint64_t ConfigFingerprint(const app::SessionConfig& config);

/// One snapshot of a session at a virtual-time boundary.
struct Checkpoint {
  /// Version 2 dropped each capture record's ground-truth time, and keeps
  /// one tag for its RTP or ICMP metadata; a version-1 frame is refused.
  static constexpr std::uint32_t kVersion = 2;

  // --- identity ---
  std::uint64_t config_fingerprint = 0;
  std::uint64_t seed = 0;
  sim::Duration planned_duration{0};

  // --- progress ---
  sim::TimePoint virtual_time;          ///< boundary the snapshot was taken at
  std::uint64_t events_executed = 0;

  // --- observable state ---
  std::uint64_t state_digest = 0;       ///< StateDigest over `input`
  core::CorrelatorLogs input;           ///< streams collected so far (a copy)

  /// Serializes to the versioned binary format (magic + header + record
  /// payload + trailing FNV checksum).
  void Serialize(std::vector<std::uint8_t>& out) const;
  [[nodiscard]] std::size_t SerializedBytes() const;
  void WriteFile(const std::string& path) const;

  /// Parses and validates a serialized checkpoint. Throws CheckpointError
  /// with a diagnostic on bad magic, unsupported version, truncation or a
  /// checksum mismatch — never returns garbage.
  [[nodiscard]] static Checkpoint Deserialize(const std::uint8_t* data, std::size_t size);
  [[nodiscard]] static Checkpoint LoadFile(const std::string& path);
};

/// Everything a checkpointing run needs to be reproducible. The plan is
/// the unit of identity: the same plan always produces the same outcome,
/// checkpoints included.
struct RunPlan {
  app::SessionConfig config;
  sim::Duration duration{std::chrono::seconds{2}};

  /// Virtual-time checkpoint cadence; 0 disables periodic snapshots.
  sim::Duration checkpoint_every{0};

  /// Byte budgets for the overload governor; default = unbounded.
  MemoryBudget budget;

  /// Invoked (on the driving thread) each time a checkpoint is taken —
  /// the supervisor keeps the latest for crash recovery, the CLI spills
  /// it to disk. Observability only: must not mutate the run.
  std::function<void(const Checkpoint&)> on_checkpoint;

  /// Invoked once per Run()/Resume() with the freshly built simulator,
  /// before any event executes. The supervisor installs its crash-point
  /// and watchdog hooks here; tests plant livelock bombs. The callee must
  /// not advance the simulator.
  std::function<void(sim::Simulator&)> on_simulator;

  /// Invoked once per Run()/Resume() after the session is constructed
  /// (and after on_simulator), before Start(). The mitigation control
  /// plane binds its per-attempt state here — each supervisor restart
  /// gets a fresh controller whose replay-from-zero reproduces the same
  /// decision ledger. Must not advance the simulator.
  std::function<void(sim::Simulator&, app::Session&)> on_session;

  /// When non-null, installed as the current thread's trace sink for the
  /// whole Drive (session construction through teardown). The pointer
  /// must stay valid across the run; ownership stays with the caller.
  obs::TraceSink* trace_sink = nullptr;

  /// Appended to the rendered report before the report digest is taken —
  /// extra per-run text (the mitigation decision ledger) joins the
  /// byte-identity surface the restore tests pin.
  std::function<void(std::ostream&)> report_appendix;
};

/// What a completed run produced. `final_digest`/`report` are the
/// byte-identity surface the restore tests pin.
struct RunOutcome {
  std::uint64_t final_digest = 0;   ///< StateDigest over the final correlator input
  std::uint64_t report_digest = 0;  ///< FNV over the rendered report text
  std::string report;               ///< the full rendered core::Report
  std::uint64_t events_executed = 0;
  std::size_t packets_correlated = 0;
  std::size_t checkpoints_taken = 0;
  std::size_t last_checkpoint_bytes = 0;
  bool restored = false;            ///< this outcome came through Resume()
  ShedStats shed;                   ///< overload-governor ledger for the run
};

/// Drives one session to completion in checkpoint-cadence slices.
/// Stateless between calls: each Run()/Resume() builds a fresh
/// Simulator + Session, so a driver can be re-invoked after a crash.
class CheckpointingDriver {
 public:
  explicit CheckpointingDriver(RunPlan plan);

  /// Uninterrupted run from t=0, snapshotting at the plan's cadence.
  [[nodiscard]] RunOutcome Run();

  /// Restore: validates `ckpt` against the plan, replays a fresh session
  /// to the checkpoint's virtual time, verifies the replayed state
  /// digest byte-for-byte (CheckpointError on mismatch, with the first
  /// diverging record in the diagnostic), then continues to the end.
  [[nodiscard]] RunOutcome Resume(const Checkpoint& ckpt);

  [[nodiscard]] const RunPlan& plan() const { return plan_; }

 private:
  RunOutcome Drive(const Checkpoint* resume_from);

  RunPlan plan_;
};

/// Builds a Checkpoint from a live session at its current virtual time.
[[nodiscard]] Checkpoint SnapshotSession(const sim::Simulator& sim,
                                         const app::Session& session,
                                         const RunPlan& plan);

}  // namespace athena::resilience
