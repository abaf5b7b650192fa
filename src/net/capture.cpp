#include "net/capture.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace athena::net {

void CapturePoint::OnPacket(const Packet& p) {
  const sim::TimePoint now = sim_.Now();
  if (blocks_.empty() || blocks_.back()->records.size() == blocks_.back()->records.capacity()) {
    auto block = std::make_unique<CaptureBlock>();
    block->records.reserve(blocks_.empty() ? kFirstBlock
                                           : std::min(2 * blocks_.back()->records.capacity(),
                                                      kMaxBlock));
    if (!blocks_.empty()) blocks_.back()->next = block.get();
    blocks_.push_back(std::move(block));
  }
  CaptureRecord& record = blocks_.back()->records.emplace_back(CaptureRecord{
      .packet_id = p.id,
      .local_ts = clock_.ToLocal(now),
      .kind = p.kind,
      .size_bytes = p.size_bytes,
      .flow = p.flow,
      .meta = {},
  });
  if (p.rtp) record.meta = *p.rtp;
  else if (p.icmp) record.meta = *p.icmp;
  ++count_;
  if (truth_sink_) truth_sink_(record, now);
  if (obs::trace_enabled()) {
    // One instant per tap, named after the capture point (Fig. 2 ①–④),
    // so a packet's journey reads as a row of dots across the net track.
    obs::TraceInstant(obs::Layer::kNet, trace_name_, now,
                      {{"packet", static_cast<double>(p.id)},
                       {"bytes", static_cast<double>(p.size_bytes)}});
  }
  static thread_local obs::CachedCounter counter_captured{"net.captured"};
  counter_captured.Inc();
  if (sink_) sink_(p);
}

}  // namespace athena::net
