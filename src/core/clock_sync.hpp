// Clock-offset estimation between capture points.
//
// The paper NTP-synchronizes all hosts, but one-way delays computed across
// two hosts still embed the residual clock offset. Athena estimates and
// removes it two ways:
//   1. Bidirectional (NTP/ICMP-style): offset = ((t1−t0) − (t3−t2)) / 2
//      from request/response timestamp quadruples, assuming symmetric paths.
//   2. Min-filter: when the minimum true one-way delay of a path is known
//      (e.g. the wired gNB→core hop), offset = min(observed OWD) − floor.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/capture.hpp"
#include "sim/time.hpp"

namespace athena::core {

class ClockSync {
 public:
  struct ExchangeSample {
    sim::TimePoint t0;  ///< request sent, clock A
    sim::TimePoint t1;  ///< request received, clock B
    sim::TimePoint t2;  ///< response sent, clock B
    sim::TimePoint t3;  ///< response received, clock A
  };

  /// Offset of clock B relative to clock A (local_B ≈ local_A + offset),
  /// median over samples. Empty input → nullopt.
  [[nodiscard]] static std::optional<sim::Duration> OffsetFromExchanges(
      const std::vector<ExchangeSample>& samples);

  /// Offset of clock B relative to clock A from one-way observations of
  /// the same packets captured at A then B, given the known minimum path
  /// delay between the points.
  struct OwdPair {
    sim::TimePoint a_ts;
    sim::TimePoint b_ts;
  };
  [[nodiscard]] static std::optional<sim::Duration> OffsetFromMinOwd(
      const std::vector<OwdPair>& pairs, sim::Duration min_path_delay);

  /// Joins two capture logs on packet id, yielding OwdPairs for packets
  /// seen at both points (in capture order of A).
  [[nodiscard]] static std::vector<OwdPair> JoinCaptures(net::CaptureView a, net::CaptureView b);
};

}  // namespace athena::core
