#include "core/clock_sync.hpp"

#include <algorithm>
#include <limits>
#include <unordered_map>

namespace athena::core {

std::optional<sim::Duration> ClockSync::OffsetFromExchanges(
    const std::vector<ExchangeSample>& samples) {
  if (samples.empty()) return std::nullopt;
  std::vector<std::int64_t> offsets;
  offsets.reserve(samples.size());
  for (const auto& s : samples) {
    const auto forward = (s.t1 - s.t0).count();   // owd + offset
    const auto backward = (s.t3 - s.t2).count();  // owd - offset
    offsets.push_back((forward - backward) / 2);
  }
  std::nth_element(offsets.begin(), offsets.begin() + offsets.size() / 2, offsets.end());
  return sim::Duration{offsets[offsets.size() / 2]};
}

std::optional<sim::Duration> ClockSync::OffsetFromMinOwd(const std::vector<OwdPair>& pairs,
                                                         sim::Duration min_path_delay) {
  if (pairs.empty()) return std::nullopt;
  std::int64_t min_observed = std::numeric_limits<std::int64_t>::max();
  for (const auto& p : pairs) {
    min_observed = std::min(min_observed, (p.b_ts - p.a_ts).count());
  }
  return sim::Duration{min_observed - min_path_delay.count()};
}

std::vector<ClockSync::OwdPair> ClockSync::JoinCaptures(net::CaptureView a,
                                                        net::CaptureView b) {
  std::unordered_map<net::PacketId, sim::TimePoint> b_by_id;
  b_by_id.reserve(b.size());
  for (const auto& r : b) b_by_id.emplace(r.packet_id, r.local_ts);
  std::vector<OwdPair> out;
  out.reserve(a.size());
  for (const auto& r : a) {
    const auto it = b_by_id.find(r.packet_id);
    if (it != b_by_id.end()) out.push_back(OwdPair{r.local_ts, it->second});
  }
  return out;
}

}  // namespace athena::core
