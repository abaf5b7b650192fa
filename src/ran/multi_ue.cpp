#include "ran/multi_ue.hpp"

#include <algorithm>
#include <tuple>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/check.hpp"

namespace athena::ran {

MultiUeUplink::MultiUeUplink(sim::Simulator& sim, RanConfig config, std::uint32_t cell_tag,
                             CrossTraffic cross_traffic)
    : sim_(sim),
      config_(config),
      cross_traffic_(std::move(cross_traffic)),
      next_tb_id_((static_cast<TbId>(cell_tag) << 40) + 1) {}

void MultiUeUplink::Start() {
  if (started_) return;
  started_ = true;
  // Align the first slot to the UL grid (slot 0 lives at the epoch).
  const auto period = config_.ul_slot_period.count();
  const auto now = sim_.Now().us();
  const auto next = ((now / period) + 1) * period;
  slot_timer_ =
      sim_.ScheduleAt(sim::TimePoint{sim::Duration{next}}, [this] { OnUplinkSlot(); });
}

void MultiUeUplink::Stop() {
  if (!started_) return;
  started_ = false;
  sim_.Cancel(slot_timer_);
}

MultiUeUplink::AttachedUe& MultiUeUplink::Attached(std::uint32_t ue, const char* violation) {
  const auto it = ues_.find(ue);
  ATHENA_CHECK(it != ues_.end(), violation);
  return it->second;
}

void MultiUeUplink::AttachUe(std::uint32_t ue, UeRadioState state,
                             std::unique_ptr<GrantPolicy> policy) {
  ATHENA_CHECK(ues_.count(ue) == 0, "MultiUeUplink::AttachUe: UE already attached");
  if (!policy) policy = std::make_unique<BsrGrantPolicy>(config_);
  ues_.emplace(std::piecewise_construct, std::forward_as_tuple(ue),
               std::forward_as_tuple(ue, std::move(state), std::move(policy)));
}

UeRadioState MultiUeUplink::DetachUe(std::uint32_t ue) {
  // A slot holds pointers to its reachable UEs until it ends.
  ATHENA_CHECK(!in_slot_, "MultiUeUplink::DetachUe: called from inside an uplink slot");
  UeRadioState state =
      std::move(Attached(ue, "MultiUeUplink::DetachUe: UE not attached").radio);
  ues_.erase(ue);

  // Drop the UE's pending HARQ retransmissions: the source gNB's soft
  // buffers do not follow the UE (RLC-UM). Each dropped chain's
  // not-yet-delivered packets become handover loss.
  for (auto& [slot_us, due] : pending_rtx_) {
    auto first_removed = std::stable_partition(
        due.begin(), due.end(), [ue](const Tb& tb) { return tb.ue != ue; });
    for (auto tb_it = first_removed; tb_it != due.end(); ++tb_it) DropChain(state, *tb_it);
    due.erase(first_removed, due.end());
  }
  return state;
}

std::vector<std::uint32_t> MultiUeUplink::AttachedUes() const {
  std::vector<std::uint32_t> out;
  out.reserve(ues_.size());
  for (const auto& [ue, state] : ues_) out.push_back(ue);
  return out;
}

const UeRadioState* MultiUeUplink::FindUe(std::uint32_t ue) const {
  const auto it = ues_.find(ue);
  return it == ues_.end() ? nullptr : &it->second.radio;
}

GrantPolicy& MultiUeUplink::policy(std::uint32_t ue) {
  return *Attached(ue, "MultiUeUplink::policy: UE not attached").policy;
}

void MultiUeUplink::SendFromUe(std::uint32_t ue, const net::Packet& p) {
  UeRadioState& state = Attached(ue, "MultiUeUplink::SendFromUe: UE not attached").radio;
  state.queue.push_back(UeQueuedPacket{p, p.size_bytes, sim_.Now()});
  state.in_flight.emplace(p.id, UeDeliveryState{p, p.size_bytes, sim_.Now()});
  ++state.offered;
}

void MultiUeUplink::OnUplinkSlot() {
  const sim::TimePoint slot_time = sim_.Now();
  ++slot_index_;
  in_slot_ = true;

  // Every attached UE's radio advances, reachable or not. During a
  // handover or an outage the UE has no serving cell: nothing of its
  // transmits and its demand queues — the source of the seconds-scale
  // delay tail under mobility.
  const bool outage = InOutage(slot_time);
  reachable_.clear();
  for (auto& [id, ue] : ues_) {
    ue.radio.channel.Tick(config_.ul_slot_period);
    ue.reachable = !outage && !ue.radio.channel.in_handover();
    if (ue.reachable) reachable_.push_back(&ue);
  }

  if (obs::trace_enabled()) {
    std::uint32_t cell_buffer = 0;
    for (const auto& [id, ue] : ues_) cell_buffer += ue.radio.TotalBufferBytes();
    obs::TraceCounter(obs::Layer::kRan, obs::names::kRanRlcBytes, slot_time,
                      static_cast<double>(cell_buffer));
  }

  // Capacity budget for this slot: cell capacity minus competing UEs. A
  // dark slot serves nobody, so it draws no cross-traffic demand either.
  std::uint32_t available = 0;
  if (!reachable_.empty()) {
    const std::uint32_t capacity = config_.SlotCapacityBytes();
    available = capacity - std::min(cross_traffic_.DemandBytes(slot_time, config_.ul_slot_period),
                                    capacity);
  }

  // HARQ retransmissions preempt new data (they reuse their original
  // allocation, so they always fit; clamp the remaining budget). An
  // unreachable UE's retransmissions slide to the next slot.
  const auto rtx_it = pending_rtx_.find(slot_time.us());
  if (rtx_it != pending_rtx_.end()) {
    std::vector<Tb> due = std::move(rtx_it->second);
    pending_rtx_.erase(rtx_it);
    for (Tb& tb : due) {
      AttachedUe& ue = Attached(tb.ue, "MultiUeUplink: transmission for a detached UE");
      if (!ue.reachable) {
        pending_rtx_[(slot_time + config_.ul_slot_period).us()].push_back(std::move(tb));
        continue;
      }
      available = available > tb.tbs ? available - tb.tbs : 0;
      Transmit(ue, std::move(tb), slot_time);
    }
  }

  if (!reachable_.empty()) GrantNewData(slot_time, available);
  in_slot_ = false;

  slot_timer_ = sim_.ScheduleAfter(config_.ul_slot_period, [this] { OnUplinkSlot(); });
}

void MultiUeUplink::GrantNewData(sim::TimePoint slot_time, std::uint32_t budget) {
  const auto decide = [&](AttachedUe& ue) {
    ue.grant = ue.policy->OnUplinkSlot(GrantPolicy::SlotInfo{slot_time, budget});
    budget -= std::min(ue.grant.tbs_bytes, budget);
  };
  // Due BSR-requested grants first, in UE-id order: they were promised,
  // and contention merely delays them (the §3.1 delay, population-induced).
  for (AttachedUe* ue : reachable_) {
    ue->served_first = ue->policy->HasDueRequest(slot_time);
    if (ue->served_first) decide(*ue);
  }
  // Everyone else in turn, from a slot-rotated offset.
  const std::size_t n = reachable_.size();
  const std::size_t offset = static_cast<std::size_t>(slot_index_ % n);
  for (std::size_t i = 0; i < n; ++i) {
    AttachedUe& ue = *reachable_[(offset + i) % n];
    if (!ue.served_first) decide(ue);
  }

  // One new-data TB per granted UE, in UE-id order. A UE left without
  // PUSCH surfaces its demand via a scheduling request on the control
  // channel (robust, not subject to data CRC).
  for (AttachedUe* ue : reachable_) {
    if (ue->grant.tbs_bytes > 0) TransmitNewTb(*ue, slot_time);
  }
  for (AttachedUe* ue : reachable_) {
    if (ue->grant.tbs_bytes > 0) continue;
    const std::uint32_t buffered = ue->radio.TotalBufferBytes();
    if (buffered == 0) continue;
    ++counters_.bsr_sent;
    ue->policy->OnBsrDecoded(slot_time, buffered);
  }
}

void MultiUeUplink::TransmitNewTb(AttachedUe& ue, sim::TimePoint slot_time) {
  UeRadioState& radio = ue.radio;
  Tb tb;
  tb.ue = ue.id;
  tb.id = next_tb_id_++;
  tb.chain_id = tb.id;
  tb.grant = ue.grant.grant;
  tb.tbs = ue.grant.tbs_bytes;
  tb.round = 0;
  tb.first_tx_slot = slot_time;

  // Fill from the RLC buffer: packets that reached the modem early enough
  // for this slot, in FIFO order, with segmentation.
  std::uint32_t room = tb.tbs;
  while (room > 0 && !radio.queue.empty()) {
    UeQueuedPacket& head = radio.queue.front();
    if (head.enqueued_at + config_.ue_processing_delay > slot_time) break;
    const std::uint32_t take = std::min(room, head.remaining);
    head.remaining -= take;
    room -= take;
    tb.segments.push_back(SegmentTruth{head.pkt.id, take, head.remaining == 0});
    if (config_.ecn_marking_threshold.count() > 0 &&
        slot_time - head.enqueued_at > config_.ecn_marking_threshold) {
      const auto flight = radio.in_flight.find(head.pkt.id);
      if (flight != radio.in_flight.end()) flight->second.pkt.ecn_ce = true;
      ++counters_.ecn_marked;
    }
    if (head.remaining == 0) radio.queue.pop_front();
  }
  tb.used = tb.tbs - room;

  // Piggy-backed BSR: reports the buffer left *after* this fill; decoded
  // by the gNB only if (a round of) the TB decodes.
  const std::uint32_t remaining = radio.TotalBufferBytes();
  if (remaining > 0) {
    tb.has_bsr = true;
    tb.bsr_bytes = remaining;
    ++counters_.bsr_sent;
  }

  ++counters_.tb_new;
  counters_.granted_bytes += tb.tbs;
  counters_.used_bytes += tb.used;
  if (tb.used < tb.tbs) {
    const std::uint32_t waste = tb.tbs - tb.used;
    if (tb.grant == GrantType::kRequested) {
      counters_.wasted_requested_bytes += waste;
    } else {
      counters_.wasted_proactive_bytes += waste;
    }
  }

  if (truth_sink_) truth_sink_(TbTruth{tb.chain_id, tb.segments});
  Transmit(ue, std::move(tb), slot_time);
}

void MultiUeUplink::Transmit(AttachedUe& ue, Tb tb, sim::TimePoint slot_time) {
  ++counters_.tb_transmissions;
  static thread_local obs::CachedCounter counter_tb_transmissions{"ran.tb_transmissions"};
  counter_tb_transmissions.Inc();
  if (tb.round > 0) {
    ++counters_.tb_rtx;
    static thread_local obs::CachedCounter counter_tb_rtx{"ran.tb_rtx"};
    counter_tb_rtx.Inc();
    if (tb.used == 0) ++counters_.empty_tb_rtx;
  }
  if (tb.used == 0) ++counters_.empty_tb_transmissions;

  const bool crc_ok = ue.radio.channel.SampleCrcOk(tb.round);
  RecordTelemetry(ue, tb, slot_time, crc_ok);

  if (crc_ok) {
    OnTbDecoded(ue, tb, slot_time);
    return;
  }

  ++counters_.tb_failed;
  if (tb.round + 1 >= config_.max_harq_rounds) {
    obs::TraceAsyncSpan(obs::Layer::kRan, obs::names::kHarqChain, tb.chain_id,
                        tb.first_tx_slot, slot_time,
                        {{"rounds", static_cast<double>(tb.round)}, {"dropped", 1.0}});
    DropChain(ue.radio, tb);
    return;
  }
  // The gNB NACKs; the UE retransmits one rtx_delay later. The base
  // station requires this even of empty TBs (§3.2's waste observation).
  ++tb.round;
  // Align the retransmission to the UL slot grid (rtx_delay is a grid
  // multiple in the paper's cell, but arbitrary configs must not lose TBs).
  const auto period = config_.ul_slot_period.count();
  const auto target = (slot_time + config_.rtx_delay).us();
  const auto aligned = ((target + period - 1) / period) * period;
  pending_rtx_[aligned].push_back(std::move(tb));
}

void MultiUeUplink::OnTbDecoded(AttachedUe& ue, const Tb& tb, sim::TimePoint slot_time) {
  // Segments land; packets whose bytes are now all delivered leave for
  // the core.
  for (const auto& seg : tb.segments) {
    auto it = ue.radio.in_flight.find(seg.packet_id);
    if (it == ue.radio.in_flight.end()) continue;  // aborted by a dropped chain
    UeDeliveryState& state = it->second;
    ATHENA_CHECK(state.undelivered >= seg.bytes,
                 "MultiUeUplink: segment delivers more bytes than queued");
    state.undelivered -= seg.bytes;
    if (state.undelivered == 0) {
      const net::Packet pkt = state.pkt;
      const sim::TimePoint enqueued_at = state.enqueued_at;
      ue.radio.in_flight.erase(it);
      ++ue.radio.delivered;
      ++counters_.packets_delivered;
      static thread_local obs::CachedCounter counter_packets_delivered{"ran.packets_delivered"};
      counter_packets_delivered.Inc();
      if (deliver_) deliver_(ue.id, pkt, slot_time, enqueued_at);
    }
  }

  if (tb.round > 0) {
    // The HARQ chain needed retransmissions: its whole first-tx → decode
    // life is the "rtx inflation" the correlator will later blame.
    obs::TraceAsyncSpan(obs::Layer::kRan, obs::names::kHarqChain, tb.chain_id,
                        tb.first_tx_slot, slot_time,
                        {{"rounds", static_cast<double>(tb.round)},
                         {"used_bytes", static_cast<double>(tb.used)}});
  }

  if (tb.has_bsr) ue.policy->OnBsrDecoded(slot_time, tb.bsr_bytes);
  ue.policy->OnTbFilled(tb.first_tx_slot, GrantPolicy::Decision{tb.tbs, tb.grant}, tb.used);
}

void MultiUeUplink::DropChain(UeRadioState& radio, const Tb& tb) {
  ++counters_.tb_dropped_chains;
  for (const auto& seg : tb.segments) {
    auto it = radio.in_flight.find(seg.packet_id);
    if (it == radio.in_flight.end()) continue;
    radio.in_flight.erase(it);
    ++radio.lost;
    ++counters_.packets_lost;
    static thread_local obs::CachedCounter counter_packets_lost{"ran.packets_lost"};
    counter_packets_lost.Inc();
  }
}

void MultiUeUplink::RecordTelemetry(AttachedUe& ue, const Tb& tb, sim::TimePoint slot_time,
                                    bool crc_ok) {
  ue.radio.telemetry.push_back(TbRecord{
      .tb_id = tb.round == 0 ? tb.id : next_tb_id_++,
      .chain_id = tb.chain_id,
      .slot_time = slot_time,
      .grant = tb.grant,
      .tbs_bytes = tb.tbs,
      .used_bytes = tb.used,
      .harq_round = tb.round,
      .crc_ok = crc_ok,
  });
  if (telemetry_listener_) telemetry_listener_(ue.id, ue.radio.telemetry.back());
  obs::TraceInstant(obs::Layer::kRan, tb.round == 0 ? obs::names::kTbTx : obs::names::kTbRtx,
                    slot_time,
                    {{"tbs", static_cast<double>(tb.tbs)},
                     {"used", static_cast<double>(tb.used)},
                     {"round", static_cast<double>(tb.round)},
                     {"crc_ok", crc_ok ? 1.0 : 0.0},
                     {"grant", tb.grant == GrantType::kRequested ? 1.0 : 0.0},
                     {"ue", static_cast<double>(tb.ue)}});
}

}  // namespace athena::ran
