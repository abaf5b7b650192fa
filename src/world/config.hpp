// Configuration for the sharded multi-cell world.
//
// A world is U concurrent video-conferencing sessions (one per UE)
// sharing C cells, partitioned across S shards. Each shard owns one
// `sim::EventQueue` and advances under a conservative time-sync barrier
// (engine.hpp); `link_latency` is the lookahead — every cross-entity
// message travels at least this long, which is what makes windowed
// parallel execution safe.
//
// Defaults are sized for livability: the stock single-UE cell
// (30 Mbps ⇒ 9 375 B/slot) would starve a 64-UE population, so the
// world cell defaults to 100 Mbps shared uplink.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "app/receiver.hpp"
#include "app/sender.hpp"
#include "cc/gcc.hpp"
#include "ran/channel.hpp"
#include "ran/config.hpp"
#include "sim/time.hpp"

namespace athena::world {

struct WorldConfig {
  std::uint64_t seed = 42;

  // --- population & layout ---
  std::size_t ues = 64;
  std::size_t cells = 4;
  /// Shard count; must be in [1, cells] — the engine rejects layouts
  /// with empty shards (each cell lives on shard c mod S, each session
  /// on its initial cell's shard).
  std::size_t shards = 1;
  /// true: one worker thread per shard, barrier-synchronized.
  /// false: same window loop, round-robin on the calling thread —
  /// bit-identical results (the determinism tests prove it) and clean
  /// per-shard busy-time measurement.
  bool threaded = true;

  // --- time ---
  sim::Duration duration{std::chrono::seconds{2}};
  /// Minimum cross-entity (UE↔cell, cell→core) latency; doubles as the
  /// conservative lookahead. Must be > 0.
  sim::Duration link_latency{std::chrono::milliseconds{1}};

  // --- radio ---
  ran::RanConfig cell = WorldCell();
  ran::ChannelModel::Config channel{};

  // --- mobility ---
  /// Every k-th UE (ue mod k == 0) performs one mid-run handover to the
  /// next cell; 0 disables mobility.
  std::size_t handover_every = 0;
  /// Radio-state transfer time between cells (detach → attach).
  sim::Duration handover_latency{std::chrono::milliseconds{20}};

  // --- wired tail (per-session, downstream of the core) ---
  sim::Duration wan_delay{std::chrono::milliseconds{10}};
  sim::Duration wan_jitter{std::chrono::microseconds{300}};
  /// Receiver → sender feedback path (TWCC / NACK), modeled as a fixed
  /// link outside the contended uplink.
  sim::Duration feedback_delay{std::chrono::milliseconds{22}};

  // --- application ---
  app::VcaSender::Config sender{};
  app::VcaReceiver::Config receiver = app::VcaReceiver::DefaultConfig();
  cc::GoogCc::Config gcc{};

  // --- chaos (world-scale fault injection) ---
  /// Cell index to black out for [outage_start, outage_end); kNoOutage
  /// disables.
  static constexpr std::size_t kNoOutage = std::numeric_limits<std::size_t>::max();
  std::size_t outage_cell = kNoOutage;
  sim::TimePoint outage_start{};
  sim::TimePoint outage_end{};

  // --- resilience (world-scale fault tolerance) ---
  /// Deterministic shard-crash point: the worker for shard
  /// `crash_shard mod S` throws ShardCrash the moment it begins window
  /// `crash_window` (windows 1..crash_window-1 complete normally; the
  /// barrier protocol detects the dead shard without deadlocking its
  /// peers). kNoCrash disables. Driven by resilience::WorldSupervisor,
  /// which disarms the point once its kill budget is consumed.
  static constexpr std::size_t kNoCrash = std::numeric_limits<std::size_t>::max();
  std::size_t crash_shard = kNoCrash;
  std::uint64_t crash_window = 0;

  /// A quarantined cell: from `at` onward the cell stops transmitting
  /// (permanent outage) and the engine evacuates its population at every
  /// window boundary — each attached UE hands over to a surviving cell
  /// through the normal 4-message dance (in-flight HARQ chains are
  /// booked as `lost`, exactly like any handover). UEs without enough
  /// remaining run time to complete the dance are left attached and
  /// counted as stranded — their queued packets stay `in_flight`, so the
  /// conservation ledger balances either way.
  struct QuarantineSpec {
    std::size_t cell = 0;
    sim::TimePoint at{};
  };
  std::vector<QuarantineSpec> quarantines;

  // --- observability ---
  /// Scenario prefix for fleet grouping; sessions report as
  /// "<scenario>/cell<initial-cell>".
  std::string scenario = "world";
  /// Worker threads for the end-of-run correlate/summarize fan-out
  /// (deterministic at any value; results are folded in UE order).
  unsigned correlate_jobs = 1;

  /// The world's default shared cell: 100 Mbps uplink so a default
  /// population is capacity-constrained but not starved.
  [[nodiscard]] static ran::RanConfig WorldCell() {
    ran::RanConfig c;
    c.cell_ul_capacity_bps = 100e6;
    return c;
  }
};

}  // namespace athena::world
