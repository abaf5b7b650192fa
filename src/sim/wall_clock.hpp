// Wall-clock time for self-measurement (profiling, bench timings, the
// world engine's busy/critical-path accounting). Virtual time lives in
// sim/time.hpp; nothing that shapes a simulation may read this clock.
#pragma once

#include <chrono>

namespace athena::sim {

/// Monotonic, real-world time: the one clock every wall-time
/// measurement in the tree agrees on.
using WallClock = std::chrono::steady_clock;

/// Seconds elapsed on the wall clock since `start`.
[[nodiscard]] inline double SecondsSince(WallClock::time_point start) {
  return std::chrono::duration<double>(WallClock::now() - start).count();
}

}  // namespace athena::sim
