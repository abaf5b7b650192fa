#include "ran/uplink.hpp"

#include "obs/trace.hpp"

namespace athena::ran {

RanUplink::RanUplink(sim::Simulator& sim, RanConfig config, ChannelModel channel,
                     CrossTraffic cross_traffic, std::unique_ptr<GrantPolicy> policy)
    : sim_(sim), cell_(sim, config, /*cell_tag=*/0, std::move(cross_traffic)) {
  cell_.AttachUe(kUe, UeRadioState{.channel = std::move(channel)}, std::move(policy));
  cell_.set_deliver_sink([this](std::uint32_t, const net::Packet& pkt, sim::TimePoint,
                                sim::TimePoint enqueued_at) {
    sim_.ScheduleAfter(cell_.config().gnb_to_core_delay, [this, pkt, enqueued_at] {
      obs::TraceAsyncSpan(obs::Layer::kRan, obs::names::kRanTransit, pkt.id, enqueued_at,
                          sim_.Now(), {{"bytes", static_cast<double>(pkt.size_bytes)}});
      if (core_sink_) core_sink_(pkt);
    });
  });
}

void RanUplink::set_telemetry_listener(std::function<void(const TbRecord&)> listener) {
  if (!listener) {
    cell_.set_telemetry_listener(nullptr);
    return;
  }
  cell_.set_telemetry_listener(
      [listener = std::move(listener)](std::uint32_t, const TbRecord& tb) { listener(tb); });
}

net::CapacityTrace RanUplink::ObservedCapacityTrace(sim::Duration window) const {
  net::CapacityTrace trace;
  const std::vector<TbRecord>& records = telemetry();
  if (records.empty()) return trace;
  sim::TimePoint window_start = sim::kEpoch;
  std::uint64_t bytes = 0;
  for (const auto& tb : records) {
    while (tb.slot_time >= window_start + window) {
      trace.Append(window_start,
                   static_cast<double>(bytes) * 8.0 / sim::ToSeconds(window));
      window_start += window;
      bytes = 0;
    }
    if (tb.harq_round == 0) bytes += tb.tbs_bytes;
  }
  trace.Append(window_start, static_cast<double>(bytes) * 8.0 / sim::ToSeconds(window));
  return trace;
}

}  // namespace athena::ran
