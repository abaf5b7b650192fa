// The schedule/cancel/pop mix the event queue is measured on
// (bench_micro_perf for interactive runs, bench_perf for the committed
// BENCH_perf.json numbers). The queue is held at a steady
// ~16k-event depth (a busy kernel with in-flight packets, per-packet HARQ
// timers, and pacer/feedback timers all pending); then per item:
// schedule a callback capturing 32 bytes (a pointer plus three scalars —
// the shape of a typical `[this, pkt_id, ts, bytes]` packet event; beyond
// std::function's 16-byte inline buffer, within InlineCallback's 48),
// cancel every 4th (every PeriodicTimer tick is a cancel+reschedule, so
// real sessions cancel constantly), pop one to hold the depth.
// Benchmarks only — nothing in src/ may include this.
#pragma once

#include <cstdint>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace athena::bench {

inline constexpr int kQueueWorkloadDepth = 16384;

inline void QueueWorkload(sim::EventQueue& q, std::uint64_t* counter, int items) {
  std::int64_t t = 0;
  for (int i = 0; i < kQueueWorkloadDepth; ++i) {
    t += (i * 37) % 199 + 1;
    q.Schedule(sim::kEpoch + sim::Duration{t},
               [counter, i] { *counter += static_cast<std::uint64_t>(i); });
  }
  sim::EventHandle last;
  for (int i = 0; i < items; ++i) {
    t += (i * 37) % 199 + 1;
    const std::uint64_t tag = static_cast<std::uint64_t>(i);
    const std::uint64_t ts = tag * 33;
    const std::uint64_t bytes = 1200 + (tag & 63);
    last = q.Schedule(sim::kEpoch + sim::Duration{t},
                      [counter, tag, ts, bytes] { *counter += tag + ts + bytes; });
    if (i % 4 == 3) q.Cancel(last);
    if (q.size() > static_cast<std::size_t>(kQueueWorkloadDepth)) q.PopNext().cb();
  }
  while (!q.empty()) q.PopNext().cb();
}

}  // namespace athena::bench
