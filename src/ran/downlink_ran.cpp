#include "ran/downlink_ran.hpp"

#include <algorithm>
#include <memory>

#include "ran/grant_policy.hpp"
#include "sim/check.hpp"

namespace athena::ran {

/// The gNB schedules its own queue: each DL slot it grants itself the
/// smaller of its backlog and the slot budget. It counts the bytes the
/// core enqueues; with no processing delay every fill takes exactly the
/// grant, so the count equals the queued bytes at every slot.
class RanDownlink::SelfScheduler final : public GrantPolicy {
 public:
  void Enqueued(std::uint32_t bytes) { backlog_ += bytes; }

  Decision OnUplinkSlot(const SlotInfo& slot) override {
    const std::uint32_t tbs = std::min(backlog_, slot.available_bytes);
    backlog_ -= tbs;
    return Decision{tbs, GrantType::kRequested};
  }
  void OnBsrDecoded(sim::TimePoint, std::uint32_t) override {}
  void OnTbFilled(sim::TimePoint, const Decision&, std::uint32_t) override {}

 private:
  std::uint32_t backlog_ = 0;
};

namespace {

/// The cell on the DL grid. The gNB's own queue is eligible at once, and
/// it neither marks ECN nor pre-grants.
RanConfig DownlinkCell(RanConfig config) {
  config.ul_slot_period = config.DlSlotPeriod();
  config.ue_processing_delay = sim::Duration{0};
  config.ecn_marking_threshold = sim::Duration{0};
  config.proactive_grant_bytes = 0;
  return config;
}

}  // namespace

RanDownlink::RanDownlink(sim::Simulator& sim, RanConfig config, ChannelModel channel,
                         CrossTraffic cross_traffic)
    : sim_(sim), cell_(sim, DownlinkCell(config), /*cell_tag=*/0, std::move(cross_traffic)) {
  ATHENA_CHECK(slot_period().count() > 0,
               "RanDownlink: ul_slot_period too short for a positive DL slot period");
  auto scheduler = std::make_unique<SelfScheduler>();
  scheduler_ = scheduler.get();
  cell_.AttachUe(kUe, UeRadioState{.channel = std::move(channel)}, std::move(scheduler));
  cell_.set_deliver_sink(
      [this](std::uint32_t, const net::Packet& pkt, sim::TimePoint, sim::TimePoint) {
        // UE-side decode/delivery pipeline, symmetric with gnb_to_core.
        sim_.ScheduleAfter(cell_.config().gnb_to_core_delay, [this, pkt] {
          if (ue_sink_) ue_sink_(pkt);
        });
      });
}

void RanDownlink::SendFromCore(const net::Packet& p) {
  scheduler_->Enqueued(p.size_bytes);
  cell_.SendFromUe(kUe, p);
}

}  // namespace athena::ran
