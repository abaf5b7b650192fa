#include "ran/downlink_ran.hpp"

#include <algorithm>
#include <cassert>

#include "sim/check.hpp"

namespace athena::ran {

namespace {
/// DL slots per UL period in the paper's TDD pattern (Fig. 6: downlink
/// slots occur four times as frequently as uplink slots).
constexpr std::int64_t kDlSlotsPerUlPeriod = 4;
}  // namespace

RanDownlink::RanDownlink(sim::Simulator& sim, RanConfig config, ChannelModel channel,
                         CrossTraffic cross_traffic)
    : sim_(sim),
      config_(config),
      slot_period_(sim::Duration{config.ul_slot_period.count() / kDlSlotsPerUlPeriod}),
      channel_(channel),
      cross_traffic_(std::move(cross_traffic)) {
  ATHENA_CHECK(slot_period_.count() > 0,
               "RanDownlink: ul_slot_period too short for a positive DL slot period");
}

void RanDownlink::Start() {
  if (started_) return;
  started_ = true;
  const auto period = slot_period_.count();
  const auto next = ((sim_.Now().us() / period) + 1) * period;
  slot_timer_ = sim_.ScheduleAt(sim::TimePoint{sim::Duration{next}}, [this] { OnSlot(); });
}

void RanDownlink::Stop() {
  if (!started_) return;
  started_ = false;
  sim_.Cancel(slot_timer_);
}

void RanDownlink::SendFromCore(const net::Packet& p) {
  assert(started_ && "offer traffic only after Start()");
  queue_.push_back(Queued{p, p.size_bytes});
  in_flight_.emplace(p.id, std::make_pair(p, p.size_bytes));
}

std::uint32_t RanDownlink::queue_bytes() const {
  std::uint32_t bytes = 0;
  for (const auto& q : queue_) bytes += q.remaining;
  return bytes;
}

void RanDownlink::OnSlot() {
  const sim::TimePoint slot_time = sim_.Now();
  channel_.Tick(slot_period_);

  // Retransmissions due this slot leave the map before anything is
  // inserted into it: an insert may rehash and invalidate the iterator.
  std::vector<Tb> due;
  if (const auto it = pending_rtx_.find(slot_time.us()); it != pending_rtx_.end()) {
    due = std::move(it->second);
    pending_rtx_.erase(it);
  }

  // Handover: the UE is unreachable; the gNB buffers and HARQ slides.
  if (channel_.in_handover()) {
    if (!due.empty()) {
      auto& next = pending_rtx_[(slot_time + slot_period_).us()];
      for (Tb& tb : due) next.push_back(std::move(tb));
    }
    slot_timer_ = sim_.ScheduleAfter(slot_period_, [this] { OnSlot(); });
    return;
  }

  // Per-DL-slot capacity: the same aggregate cell rate, on a denser grid.
  const auto slot_capacity = static_cast<std::uint32_t>(
      config_.cell_ul_capacity_bps * sim::ToSeconds(slot_period_) / 8.0);
  const std::uint32_t cross =
      std::min(cross_traffic_.DemandBytes(slot_time, slot_period_), slot_capacity);
  std::uint32_t available = slot_capacity - cross;

  // HARQ retransmissions first.
  for (Tb& tb : due) {
    available = available > tb.tbs ? available - tb.tbs : 0;
    Transmit(std::move(tb), slot_time);
  }

  // New data: the gNB knows its own queue exactly — it grants itself the
  // smaller of the backlog and the slot budget. No BSR cycle, no waste.
  const std::uint32_t backlog = queue_bytes();
  const std::uint32_t tbs = std::min(backlog, available);
  if (tbs > 0) {
    Tb tb;
    tb.id = next_tb_id_++;
    tb.chain_id = tb.id;
    tb.tbs = tbs;
    std::uint32_t room = tbs;
    while (room > 0 && !queue_.empty()) {
      Queued& head = queue_.front();
      const std::uint32_t take = std::min(room, head.remaining);
      head.remaining -= take;
      room -= take;
      tb.segments.emplace_back(head.pkt.id, take);
      if (head.remaining == 0) queue_.pop_front();
    }
    tb.used = tbs - room;
    ++counters_.tb_new;
    counters_.granted_bytes += tb.tbs;
    counters_.used_bytes += tb.used;
    Transmit(std::move(tb), slot_time);
  }

  slot_timer_ = sim_.ScheduleAfter(slot_period_, [this] { OnSlot(); });
}

void RanDownlink::Transmit(Tb tb, sim::TimePoint slot_time) {
  ++counters_.tb_transmissions;
  if (tb.round > 0) ++counters_.tb_rtx;

  const bool crc_ok = channel_.SampleCrcOk(tb.round);
  telemetry_.push_back(TbRecord{
      .tb_id = tb.round == 0 ? tb.id : next_tb_id_++,
      .chain_id = tb.chain_id,
      .slot_time = slot_time,
      .grant = GrantType::kRequested,  // self-scheduled
      .tbs_bytes = tb.tbs,
      .used_bytes = tb.used,
      .harq_round = tb.round,
      .crc_ok = crc_ok,
  });

  if (crc_ok) {
    OnTbDecoded(tb);
    return;
  }
  ++counters_.tb_failed;
  if (tb.round + 1 >= config_.max_harq_rounds) {
    ++counters_.tb_dropped_chains;
    for (const auto& [id, bytes] : tb.segments) {
      if (in_flight_.erase(id) > 0) ++counters_.packets_lost;
    }
    return;
  }
  Tb rtx = std::move(tb);
  ++rtx.round;
  const auto period = slot_period_.count();
  const auto target = (slot_time + config_.rtx_delay).us();
  const auto aligned = ((target + period - 1) / period) * period;
  pending_rtx_[aligned].push_back(std::move(rtx));
}

void RanDownlink::OnTbDecoded(const Tb& tb) {
  for (const auto& [id, bytes] : tb.segments) {
    auto it = in_flight_.find(id);
    if (it == in_flight_.end()) continue;
    auto& [pkt, remaining] = it->second;
    ATHENA_CHECK(remaining >= bytes, "RanDownlink: segment delivers more bytes than queued");
    remaining -= bytes;
    if (remaining == 0) {
      const net::Packet out = pkt;
      in_flight_.erase(it);
      ++counters_.packets_delivered;
      // UE-side decode/delivery pipeline, symmetric with gnb_to_core.
      sim_.ScheduleAfter(config_.gnb_to_core_delay, [this, out] {
        if (ue_sink_) ue_sink_(out);
      });
    }
  }
}

}  // namespace athena::ran
