#include <chrono>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mitigation/app_aware_policy.hpp"
#include "mitigation/traffic_predictor.hpp"
#include "ran/channel.hpp"
#include "ran/config.hpp"
#include "ran/cross_traffic.hpp"
#include "ran/grant_policy.hpp"
#include "ran/multi_ue.hpp"
#include "ran/uplink.hpp"
#include "sim/check.hpp"
#include "sim/simulator.hpp"

namespace athena::ran {
namespace {

using namespace std::chrono_literals;
using sim::kEpoch;

// ---------- RanConfig ----------

TEST(RanConfigTest, SlotCapacityMath) {
  RanConfig c;
  c.cell_ul_capacity_bps = 32e6;
  c.ul_slot_period = 2500us;
  // 32 Mbps × 2.5 ms / 8 = 10 kB per UL slot.
  EXPECT_EQ(c.SlotCapacityBytes(), 10'000u);
}

TEST(RanConfigTest, PaperCellMatchesSection3) {
  const auto c = RanConfig::PaperCell();
  EXPECT_EQ(c.ul_slot_period, 2500us);            // UL slot every 2.5 ms
  EXPECT_EQ(c.bsr_scheduling_delay, 10ms);        // §3.1
  EXPECT_EQ(c.rtx_delay, 10ms);                   // §3.2
  EXPECT_GT(c.proactive_grant_bytes, 0u);
}

TEST(RanConfigTest, NoProactivePreset) {
  EXPECT_EQ(RanConfig::PaperCellNoProactive().proactive_grant_bytes, 0u);
}

TEST(RanConfigTest, FddLikeHasPerSlotUplink) {
  const auto c = RanConfig::FddLikeCell();
  EXPECT_EQ(c.ul_slot_period, c.slot_duration);
}

// ---------- ChannelModel ----------

TEST(ChannelModelTest, PerfectNeverFails) {
  auto ch = ChannelModel::Perfect(sim::Rng{1});
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(ch.SampleCrcOk(0));
}

TEST(ChannelModelTest, BlerFrequency) {
  ChannelModel ch{{.base_bler = 0.2}, sim::Rng{1}};
  int fails = 0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) fails += ch.SampleCrcOk(0) ? 0 : 1;
  EXPECT_NEAR(static_cast<double>(fails) / n, 0.2, 0.02);
}

TEST(ChannelModelTest, RtxRoundsAreMoreRobust) {
  ChannelModel ch{{.base_bler = 0.4, .rtx_bler_factor = 0.5}, sim::Rng{1}};
  EXPECT_DOUBLE_EQ(ch.CurrentBler(0), 0.4);
  EXPECT_DOUBLE_EQ(ch.CurrentBler(1), 0.2);
  EXPECT_DOUBLE_EQ(ch.CurrentBler(2), 0.1);
}

TEST(ChannelModelTest, GilbertElliottTransitions) {
  ChannelModel ch{{.base_bler = 0.01,
                   .bad_state_bler = 0.9,
                   .p_good_to_bad = 0.5,
                   .p_bad_to_good = 0.5},
                  sim::Rng{1}};
  bool saw_bad = false;
  bool saw_good = false;
  for (int i = 0; i < 200; ++i) {
    ch.Tick();
    (ch.in_bad_state() ? saw_bad : saw_good) = true;
  }
  EXPECT_TRUE(saw_bad);
  EXPECT_TRUE(saw_good);
}

TEST(ChannelModelTest, DisabledBurstStateStaysGood) {
  ChannelModel ch{{.base_bler = 0.1}, sim::Rng{1}};
  for (int i = 0; i < 100; ++i) ch.Tick();
  EXPECT_FALSE(ch.in_bad_state());
}

TEST(ChannelModelTest, HandoversRecurNearTheConfiguredInterval) {
  ChannelModel::Config config;
  config.handover_interval = std::chrono::seconds{2};
  config.handover_duration = 100ms;
  ChannelModel ch{config, sim::Rng{1}};
  // 20 simulated seconds of 2.5 ms ticks → ~10 handovers (±25% jitter).
  std::int64_t in_handover_ticks = 0;
  for (int i = 0; i < 8000; ++i) {
    ch.Tick(2500us);
    in_handover_ticks += ch.in_handover() ? 1 : 0;
  }
  EXPECT_GE(ch.handovers(), 7u);
  EXPECT_LE(ch.handovers(), 13u);
  // Each handover holds ~40 ticks (100 ms / 2.5 ms).
  EXPECT_NEAR(static_cast<double>(in_handover_ticks),
              static_cast<double>(ch.handovers()) * 40.0, 45.0);
}

TEST(ChannelModelTest, HandoverBlocksDecoding) {
  ChannelModel::Config config;
  config.base_bler = 0.0;
  config.handover_interval = std::chrono::milliseconds{10};
  config.handover_duration = std::chrono::seconds{100};  // effectively forever
  ChannelModel ch{config, sim::Rng{1}};
  for (int i = 0; i < 100; ++i) ch.Tick(2500us);  // enter the handover
  ASSERT_TRUE(ch.in_handover());
  EXPECT_GT(ch.CurrentBler(0), 0.9);
}

TEST(ChannelModelTest, NoHandoversByDefault) {
  ChannelModel ch{{.base_bler = 0.1}, sim::Rng{1}};
  for (int i = 0; i < 10'000; ++i) ch.Tick();
  EXPECT_EQ(ch.handovers(), 0u);
}

// ---------- CrossTraffic ----------

TEST(CrossTrafficTest, IdleHasNoDemand) {
  auto cross = CrossTraffic::Idle(sim::Rng{1});
  EXPECT_EQ(cross.DemandBytes(kEpoch + 1s, 2500us), 0u);
}

TEST(CrossTrafficTest, DemandFollowsTrace) {
  CrossTraffic cross{{net::CapacityTrace{16e6}, 0.0}, sim::Rng{1}};
  // 16 Mbps × 2.5 ms / 8 = 5000 bytes per slot.
  EXPECT_EQ(cross.DemandBytes(kEpoch, 2500us), 5000u);
}

TEST(CrossTrafficTest, BurstinessPreservesMean) {
  CrossTraffic cross{{net::CapacityTrace{16e6}, 0.4}, sim::Rng{1}};
  double total = 0.0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) total += cross.DemandBytes(kEpoch, 2500us);
  EXPECT_NEAR(total / n, 5000.0, 150.0);
}

// ---------- BsrGrantPolicy ----------

TEST(BsrGrantPolicyTest, ProactiveWhenNothingPending) {
  BsrGrantPolicy policy{RanConfig::PaperCell()};
  const auto d = policy.OnUplinkSlot({kEpoch + 2500us, 100'000});
  EXPECT_EQ(d.grant, GrantType::kProactive);
  EXPECT_EQ(d.tbs_bytes, RanConfig::PaperCell().proactive_grant_bytes);
}

TEST(BsrGrantPolicyTest, ProactiveClippedByCapacity) {
  BsrGrantPolicy policy{RanConfig::PaperCell()};
  const auto d = policy.OnUplinkSlot({kEpoch + 2500us, 1000});
  EXPECT_EQ(d.tbs_bytes, 1000u);
}

TEST(BsrGrantPolicyTest, RequestedGrantMaturesAfterSchedulingDelay) {
  const auto cell = RanConfig::PaperCell();
  BsrGrantPolicy policy{cell};
  policy.OnBsrDecoded(kEpoch + 2500us, 8000);
  // Before maturity: still proactive.
  EXPECT_EQ(policy.OnUplinkSlot({kEpoch + 5000us, 100'000}).grant, GrantType::kProactive);
  EXPECT_EQ(policy.OnUplinkSlot({kEpoch + 10'000us, 100'000}).grant, GrantType::kProactive);
  // 2.5 ms + 10 ms = 12.5 ms, already slot-aligned.
  const auto d = policy.OnUplinkSlot({kEpoch + 12'500us, 100'000});
  EXPECT_EQ(d.grant, GrantType::kRequested);
  EXPECT_EQ(d.tbs_bytes, 8000u);
}

TEST(BsrGrantPolicyTest, OutstandingPreventsDuplicateGrants) {
  BsrGrantPolicy policy{RanConfig::PaperCell()};
  policy.OnBsrDecoded(kEpoch, 8000);
  policy.OnBsrDecoded(kEpoch + 2500us, 6000);  // covered by the first grant
  EXPECT_EQ(policy.outstanding_requested_bytes(), 8000u);
  policy.OnBsrDecoded(kEpoch + 5000us, 9000);  // 1000 beyond coverage
  EXPECT_EQ(policy.outstanding_requested_bytes(), 9000u);
}

TEST(BsrGrantPolicyTest, CapacityClippingCarriesOver) {
  BsrGrantPolicy policy{RanConfig::PaperCell()};
  policy.OnBsrDecoded(kEpoch, 8000);
  const auto first = policy.OnUplinkSlot({kEpoch + 10'000us, 3000});
  EXPECT_EQ(first.grant, GrantType::kRequested);
  EXPECT_EQ(first.tbs_bytes, 3000u);
  const auto second = policy.OnUplinkSlot({kEpoch + 12'500us, 100'000});
  EXPECT_EQ(second.grant, GrantType::kRequested);
  EXPECT_EQ(second.tbs_bytes, 5000u);  // the clipped remainder
}

TEST(BsrGrantPolicyTest, MaturityAlignsToSlotGrid) {
  BsrGrantPolicy policy{RanConfig::PaperCell()};
  // BSR decoded off-grid: 3.1 ms + 10 ms = 13.1 ms → aligned up to 15 ms.
  policy.OnBsrDecoded(kEpoch + 3100us, 4000);
  EXPECT_EQ(policy.OnUplinkSlot({kEpoch + 12'500us, 100'000}).grant, GrantType::kProactive);
  EXPECT_EQ(policy.OnUplinkSlot({kEpoch + 15'000us, 100'000}).grant, GrantType::kRequested);
}

// ---------- RanUplink (integration of UE + scheduler + HARQ) ----------

class RanUplinkTest : public ::testing::Test {
 protected:
  struct Delivery {
    net::Packet pkt;
    sim::TimePoint at;
  };

  void Build(RanConfig config, ChannelModel::Config channel = {.base_bler = 0.0},
             double cross_bps = 0.0) {
    config_ = config;
    ran_ = std::make_unique<RanUplink>(
        sim_, config, ChannelModel{channel, sim::Rng{5}},
        CrossTraffic{{net::CapacityTrace{cross_bps}, 0.0}, sim::Rng{6}});
    ran_->set_core_sink([this](const net::Packet& p) {
      deliveries_.push_back({p, sim_.Now()});
    });
    ran_->Start();
  }

  void SendAt(sim::Duration when, net::PacketId id, std::uint32_t bytes) {
    sim_.ScheduleAt(kEpoch + when, [this, id, bytes] {
      net::Packet p;
      p.id = id;
      p.kind = net::PacketKind::kRtpVideo;
      p.size_bytes = bytes;
      p.created_at = sim_.Now();
      ran_->SendFromUe(p);
    });
  }

  const Delivery* Find(net::PacketId id) const {
    for (const auto& d : deliveries_) {
      if (d.pkt.id == id) return &d;
    }
    return nullptr;
  }

  sim::Simulator sim_;
  RanConfig config_;
  std::unique_ptr<RanUplink> ran_;
  std::vector<Delivery> deliveries_;
};

TEST_F(RanUplinkTest, SinglePacketRidesNextProactiveSlot) {
  Build(RanConfig::PaperCell());
  SendAt(1ms, 1, 1200);  // next eligible slot: 2.5 ms
  sim_.RunUntil(kEpoch + 100ms);
  const auto* d = Find(1);
  ASSERT_NE(d, nullptr);
  // Delivered at the slot + gNB→core transfer.
  EXPECT_EQ(d->at, kEpoch + 2500us + config_.gnb_to_core_delay);
}

TEST_F(RanUplinkTest, UeProcessingDelayPushesToNextSlot) {
  Build(RanConfig::PaperCell());
  SendAt(2300us, 1, 1200);  // only 200 µs before the 2.5 ms slot (< 500 µs proc)
  sim_.RunUntil(kEpoch + 100ms);
  const auto* d = Find(1);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->at, kEpoch + 5000us + config_.gnb_to_core_delay);
}

TEST_F(RanUplinkTest, DeliveriesQuantizedToSlotGrid) {
  Build(RanConfig::PaperCell());
  for (int i = 0; i < 40; ++i) {
    SendAt(sim::Duration{i * 7'300}, static_cast<net::PacketId>(i + 1), 900);
  }
  sim_.RunUntil(kEpoch + 2s);
  ASSERT_EQ(deliveries_.size(), 40u);
  for (const auto& d : deliveries_) {
    const auto on_air = d.at - config_.gnb_to_core_delay;
    EXPECT_EQ(on_air.us() % config_.ul_slot_period.count(), 0)
        << "delivery not on the UL slot grid";
  }
}

TEST_F(RanUplinkTest, FrameBurstTricklesThenBsrGrantFlushes) {
  Build(RanConfig::PaperCell());
  // A 9-packet video frame burst (10.8 kB) at t = 1 ms; proactive TBs are
  // 2500 B, so ~2 packets leave per slot until the BSR grant matures.
  for (int i = 0; i < 9; ++i) SendAt(1ms, static_cast<net::PacketId>(i + 1), 1200);
  sim_.RunUntil(kEpoch + 200ms);
  ASSERT_EQ(deliveries_.size(), 9u);

  // First packets at the first slot, last ones only after the BSR grant:
  const auto first = deliveries_.front().at - config_.gnb_to_core_delay;
  const auto last = deliveries_.back().at - config_.gnb_to_core_delay;
  EXPECT_EQ(first, kEpoch + 2500us);
  // BSR sent at 2.5 ms matures at 12.5 ms.
  EXPECT_EQ(last, kEpoch + 12'500us);

  // The frame-level delay spread is a multiple of the slot period (§3.1).
  const auto spread = last - first;
  EXPECT_EQ(spread.count() % config_.ul_slot_period.count(), 0);
  EXPECT_EQ(spread, 10ms);
}

TEST_F(RanUplinkTest, OverGrantingWastesRequestedBytes) {
  Build(RanConfig::PaperCell());
  for (int i = 0; i < 9; ++i) SendAt(1ms, static_cast<net::PacketId>(i + 1), 1200);
  sim_.RunUntil(kEpoch + 200ms);
  // Proactive TBs drained most of the buffer during the scheduling delay,
  // so the requested grant is (mostly) wasted — the §3.1 pathology.
  EXPECT_GT(ran_->counters().wasted_requested_bytes, 0u);
}

TEST_F(RanUplinkTest, WithoutProactiveEverythingWaitsForBsr) {
  Build(RanConfig::PaperCellNoProactive());
  SendAt(1ms, 1, 1200);
  sim_.RunUntil(kEpoch + 200ms);
  const auto* d = Find(1);
  ASSERT_NE(d, nullptr);
  // SR at 2.5 ms (no PUSCH to ride) → grant at 12.5 ms.
  EXPECT_EQ(d->at, kEpoch + 12'500us + config_.gnb_to_core_delay);
}

TEST_F(RanUplinkTest, HarqRetransmissionAddsExactlyOneRtxDelay) {
  // First transmission always fails, first retransmission always succeeds.
  Build(RanConfig::PaperCell(), {.base_bler = 1.0, .rtx_bler_factor = 0.0});
  SendAt(1ms, 1, 1200);
  sim_.RunUntil(kEpoch + 200ms);
  const auto* d = Find(1);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->at, kEpoch + 2500us + config_.rtx_delay + config_.gnb_to_core_delay);
  EXPECT_GE(ran_->counters().tb_rtx, 1u);
}

TEST_F(RanUplinkTest, RepeatedFailuresInflateByRtxMultiples) {
  // Fail twice, succeed on the third round: bler 1.0 with factor 1.0 for
  // round 1, then 0 — emulate via factor so round2 bler = 1*1*0... use a
  // channel failing rounds 0 and 1 only.
  ChannelModel::Config ch;
  ch.base_bler = 1.0;
  ch.rtx_bler_factor = 0.0;  // round 1 succeeds...
  // To force two failures we instead allow max rounds and check multiples
  // over many packets with a 50% channel.
  Build(RanConfig::PaperCell(), {.base_bler = 0.5, .rtx_bler_factor = 1.0});
  for (int i = 0; i < 60; ++i) {
    SendAt(sim::Duration{i * 7'500}, static_cast<net::PacketId>(i + 1), 800);
  }
  sim_.RunUntil(kEpoch + 3s);
  // Every delivery sits on the slot grid offset by k × 10 ms (k ≥ 0).
  for (const auto& d : deliveries_) {
    const auto on_air = (d.at - config_.gnb_to_core_delay).us();
    EXPECT_EQ(on_air % 2500, 0);
  }
  EXPECT_GT(ran_->counters().tb_rtx, 0u);
}

TEST_F(RanUplinkTest, ChainDropLosesPacket) {
  Build(RanConfig::PaperCell(), {.base_bler = 1.0, .rtx_bler_factor = 1.0});
  SendAt(1ms, 1, 1200);
  sim_.RunUntil(kEpoch + 500ms);
  EXPECT_EQ(Find(1), nullptr);
  EXPECT_EQ(ran_->counters().packets_lost, 1u);
  EXPECT_GT(ran_->counters().tb_dropped_chains, 0u);
}

TEST_F(RanUplinkTest, EmptyTbsAreRetransmittedToo) {
  // §3.2: the base station mandates retransmission of empty TBs as well.
  Build(RanConfig::PaperCell(), {.base_bler = 0.5, .rtx_bler_factor = 1.0});
  sim_.RunUntil(kEpoch + 1s);  // no traffic at all
  EXPECT_GT(ran_->counters().empty_tb_transmissions, 0u);
  EXPECT_GT(ran_->counters().empty_tb_rtx, 0u);
}

TEST_F(RanUplinkTest, FifoOrderPreservedAtCore) {
  Build(RanConfig::PaperCell(), {.base_bler = 0.3, .rtx_bler_factor = 0.0});
  for (int i = 0; i < 50; ++i) {
    SendAt(sim::Duration{i * 3'000}, static_cast<net::PacketId>(i + 1), 1000);
  }
  sim_.RunUntil(kEpoch + 3s);
  ASSERT_EQ(deliveries_.size(), 50u);
  // HARQ can reorder around a retransmission, but *within* a TB chain and
  // for packets sharing TBs order holds. Check at least nondecreasing
  // delivery times and full delivery.
  for (std::size_t i = 1; i < deliveries_.size(); ++i) {
    EXPECT_GE(deliveries_[i].at, deliveries_[i - 1].at);
  }
}

TEST_F(RanUplinkTest, TelemetryByteConservation) {
  Build(RanConfig::PaperCell());
  std::uint64_t truth_bytes = 0;
  ran_->set_truth_sink([&truth_bytes](const TbTruth& t) {
    for (const auto& s : t.segments) truth_bytes += s.bytes;
  });
  for (int i = 0; i < 20; ++i) {
    SendAt(sim::Duration{i * 5'000}, static_cast<net::PacketId>(i + 1), 1100);
  }
  sim_.RunUntil(kEpoch + 1s);
  // Sum of telemetry used bytes equals total offered bytes.
  std::uint64_t used = 0;
  for (const auto& tb : ran_->telemetry()) {
    if (tb.harq_round == 0) used += tb.used_bytes;
  }
  EXPECT_EQ(used, 20u * 1100u);
  // Ground truth segments agree per chain.
  EXPECT_EQ(truth_bytes, used);
}

TEST_F(RanUplinkTest, TelemetryRecordsGrantTypes) {
  Build(RanConfig::PaperCell());
  for (int i = 0; i < 9; ++i) SendAt(1ms, static_cast<net::PacketId>(i + 1), 1200);
  sim_.RunUntil(kEpoch + 100ms);
  bool saw_proactive = false;
  bool saw_requested = false;
  for (const auto& tb : ran_->telemetry()) {
    saw_proactive |= tb.grant == GrantType::kProactive;
    saw_requested |= tb.grant == GrantType::kRequested;
  }
  EXPECT_TRUE(saw_proactive);
  EXPECT_TRUE(saw_requested);
}

TEST_F(RanUplinkTest, CrossTrafficShrinksAvailableCapacity) {
  // Cell 25 Mbps, cross traffic 24 Mbps → ~312 B/slot for our UE.
  RanConfig cell = RanConfig::PaperCell();
  cell.cell_ul_capacity_bps = 25e6;
  Build(cell, {.base_bler = 0.0}, 24e6);
  for (int i = 0; i < 8; ++i) SendAt(1ms, static_cast<net::PacketId>(i + 1), 1200);
  sim_.RunUntil(kEpoch + 2s);
  ASSERT_EQ(deliveries_.size(), 8u);
  const auto last = deliveries_.back().at;
  // With full capacity this flushes by ~13.5 ms; under contention it takes
  // far longer.
  EXPECT_GT(last, kEpoch + 40ms);
}

TEST_F(RanUplinkTest, FddDeliversSinglePacketsFaster) {
  Build(RanConfig::FddLikeCell());
  SendAt(1ms, 1, 400);
  sim_.RunUntil(kEpoch + 100ms);
  const auto* d = Find(1);
  ASSERT_NE(d, nullptr);
  // Next 0.5 ms slot respecting the 0.5 ms processing delay: 1.5 ms.
  EXPECT_LE(d->at, kEpoch + 2ms + config_.gnb_to_core_delay);
}

TEST_F(RanUplinkTest, ObservedCapacityTraceReflectsGrantedTbs) {
  Build(RanConfig::PaperCell());
  sim_.RunUntil(kEpoch + 2s);  // proactive grants only
  const auto trace = ran_->ObservedCapacityTrace(1s);
  ASSERT_FALSE(trace.empty());
  // 2500 B per 2.5 ms = 8 Mbps of granted capacity.
  EXPECT_NEAR(trace.At(kEpoch + 500ms), 8e6, 0.1e6);
}

TEST_F(RanUplinkTest, BufferDrainsToZero) {
  Build(RanConfig::PaperCell());
  for (int i = 0; i < 9; ++i) SendAt(1ms, static_cast<net::PacketId>(i + 1), 1200);
  sim_.RunUntil(kEpoch + 100ms);
  EXPECT_EQ(ran_->buffer_bytes(), 0u);
  EXPECT_EQ(ran_->counters().packets_delivered, 9u);
}

TEST_F(RanUplinkTest, HandoverQueuesInsteadOfLosing) {
  ran::RanConfig cell = ran::RanConfig::PaperCell();
  ChannelModel::Config channel;
  channel.base_bler = 0.0;
  channel.handover_interval = std::chrono::milliseconds{200};
  channel.handover_duration = std::chrono::milliseconds{150};
  Build(cell, channel);
  for (int i = 0; i < 100; ++i) {
    SendAt(sim::Duration{i * 10'000}, static_cast<net::PacketId>(i + 1), 800);
  }
  sim_.RunUntil(kEpoch + 5s);
  // Every packet arrives (handover parks, never drops)...
  EXPECT_EQ(deliveries_.size(), 100u);
  EXPECT_EQ(ran_->counters().packets_lost, 0u);
  // ...but some carried the outage in their delay.
  sim::Duration worst{0};
  for (std::size_t i = 0; i < deliveries_.size(); ++i) {
    const auto sent = kEpoch + sim::Duration{static_cast<std::int64_t>(i) * 10'000};
    worst = std::max(worst, deliveries_[i].at - sent);
  }
  EXPECT_GT(worst, 100ms);
}

TEST_F(RanUplinkTest, GrantUtilizationLowWhenIdle) {
  Build(RanConfig::PaperCell());
  SendAt(1ms, 1, 1200);
  sim_.RunUntil(kEpoch + 1s);
  // One packet against a second of proactive grants: utilization ≈ 0.
  EXPECT_LT(ran_->counters().GrantUtilization(), 0.01);
}

// ---------- MultiUeUplink (the cell's contention contract) ----------

/// A cell whose slot budget is exactly one proactive grant: 2500 B per
/// 2.5 ms slot = 8 Mbps.
RanConfig OneGrantPerSlotCell() {
  RanConfig cell = RanConfig::PaperCell();
  cell.cell_ul_capacity_bps = 8e6;
  return cell;
}

/// The baseline policy, logging every slot at which the cell consulted it
/// for a grant or handed it a scheduling request.
class RecordingPolicy final : public GrantPolicy {
 public:
  RecordingPolicy(const RanConfig& cell, std::vector<sim::TimePoint>& calls)
      : inner_(cell), calls_(calls) {}

  Decision OnUplinkSlot(const SlotInfo& slot) override {
    calls_.push_back(slot.slot_time);
    return inner_.OnUplinkSlot(slot);
  }
  void OnBsrDecoded(sim::TimePoint decoded_at, std::uint32_t reported_bytes) override {
    calls_.push_back(decoded_at);
    inner_.OnBsrDecoded(decoded_at, reported_bytes);
  }
  void OnTbFilled(sim::TimePoint slot_time, const Decision& grant,
                  std::uint32_t used_bytes) override {
    inner_.OnTbFilled(slot_time, grant, used_bytes);
  }
  [[nodiscard]] bool HasDueRequest(sim::TimePoint slot_time) const override {
    return inner_.HasDueRequest(slot_time);
  }

 private:
  BsrGrantPolicy inner_;
  std::vector<sim::TimePoint>& calls_;
};

class MultiUeUplinkTest : public ::testing::Test {
 protected:
  void Build(RanConfig config) {
    config_ = config;
    cell_ = std::make_unique<MultiUeUplink>(sim_, config, /*cell_tag=*/0,
                                            CrossTraffic::Idle(sim::Rng{1}));
  }

  void Attach(std::uint32_t ue, ChannelModel::Config channel = {.base_bler = 0.0},
              std::unique_ptr<GrantPolicy> policy = nullptr) {
    UeRadioState radio;
    radio.channel = ChannelModel{channel, sim::Rng{100 + ue}};
    cell_->AttachUe(ue, std::move(radio), std::move(policy));
  }

  void SendAt(sim::Duration when, std::uint32_t ue, net::PacketId id, std::uint32_t bytes) {
    sim_.ScheduleAt(kEpoch + when, [this, ue, id, bytes] {
      net::Packet p;
      p.id = id;
      p.kind = net::PacketKind::kRtpVideo;
      p.size_bytes = bytes;
      p.created_at = sim_.Now();
      cell_->SendFromUe(ue, p);
    });
  }

  [[nodiscard]] const std::vector<TbRecord>& Telemetry(std::uint32_t ue) const {
    return cell_->FindUe(ue)->telemetry;
  }

  [[nodiscard]] bool HasRecordAt(std::uint32_t ue, sim::TimePoint slot) const {
    for (const TbRecord& tb : Telemetry(ue)) {
      if (tb.slot_time == slot) return true;
    }
    return false;
  }

  sim::Simulator sim_;
  RanConfig config_;
  std::unique_ptr<MultiUeUplink> cell_;
};

/// UE 2's grant policy. Each one issues its BSR machinery's requested
/// grants, so each must claim the slot a requested grant matures in.
struct PolicyCase {
  const char* name;
  std::unique_ptr<GrantPolicy> (*make)(const RanConfig&);
};

void PrintTo(const PolicyCase& policy, std::ostream* os) { *os << policy.name; }

const PolicyCase kDueRequestPolicies[] = {
    {"Bsr", [](const RanConfig& cell) -> std::unique_ptr<GrantPolicy> {
       return std::make_unique<BsrGrantPolicy>(cell);
     }},
    {"AppAware", [](const RanConfig& cell) -> std::unique_ptr<GrantPolicy> {
       return std::make_unique<mitigation::AppAwareGrantPolicy>(cell);
     }},
    {"TrafficPredictor", [](const RanConfig& cell) -> std::unique_ptr<GrantPolicy> {
       return std::make_unique<mitigation::TrafficPredictorPolicy>(cell);
     }},
};

class DueRequestTest : public MultiUeUplinkTest,
                       public ::testing::WithParamInterface<PolicyCase> {};

TEST_P(DueRequestTest, DueRequestedGrantIsServedBeforeProactiveGrants) {
  Build(OneGrantPerSlotCell());
  for (std::uint32_t ue = 0; ue < 4; ++ue) {
    Attach(ue, {.base_bler = 0.0}, ue == 2 ? GetParam().make(config_) : nullptr);
  }
  cell_->Start();
  // A 10 kB burst on UE 2. Its demand reaches the gNB at the 2.5 ms slot
  // (by SR or piggy-backed BSR), so a requested grant matures at 12.5 ms.
  for (net::PacketId id = 1; id <= 10; ++id) SendAt(1ms, 2, id, 1000);
  sim_.RunUntil(kEpoch + 13ms);

  // At 12.5 ms the requested grant takes the whole budget; the proactive
  // grant the rotation would have handed out that slot never goes out.
  const sim::TimePoint maturity = kEpoch + 12'500us;
  std::size_t tbs_at_maturity = 0;
  for (std::uint32_t ue = 0; ue < 4; ++ue) {
    for (const TbRecord& tb : Telemetry(ue)) {
      if (tb.slot_time != maturity) continue;
      ++tbs_at_maturity;
      EXPECT_EQ(ue, 2u);
      EXPECT_EQ(tb.grant, GrantType::kRequested);
      EXPECT_EQ(tb.tbs_bytes, 2500u);
    }
  }
  EXPECT_EQ(tbs_at_maturity, 1u);
}

INSTANTIATE_TEST_SUITE_P(UeTwoPolicy, DueRequestTest, ::testing::ValuesIn(kDueRequestPolicies),
                         [](const ::testing::TestParamInfo<PolicyCase>& info) {
                           return std::string{info.param.name};
                         });

TEST_F(MultiUeUplinkTest, ProactiveGrantsRotateSoNoUeStarves) {
  constexpr std::uint32_t kUes = 4;
  Build(OneGrantPerSlotCell());
  for (std::uint32_t ue = 0; ue < kUes; ++ue) Attach(ue);
  cell_->Start();
  sim_.RunUntil(kEpoch + 1s);  // idle UEs: only proactive grants contend

  std::map<std::int64_t, std::vector<std::uint32_t>> served;  // slot µs → UEs
  for (std::uint32_t ue = 0; ue < kUes; ++ue) {
    for (const TbRecord& tb : Telemetry(ue)) served[tb.slot_time.us()].push_back(ue);
  }
  ASSERT_EQ(served.size(), cell_->slots_run());
  std::vector<std::uint32_t> order;
  for (const auto& [slot_us, ues] : served) {
    ASSERT_EQ(ues.size(), 1u) << "the budget fits one grant per slot";
    order.push_back(ues.front());
  }
  // Every window of n consecutive slots serves all n UEs.
  for (std::size_t i = 0; i + kUes <= order.size(); ++i) {
    const std::set<std::uint32_t> window(order.begin() + static_cast<std::ptrdiff_t>(i),
                                         order.begin() + static_cast<std::ptrdiff_t>(i + kUes));
    EXPECT_EQ(window.size(), kUes) << "a UE starved in slots " << i << ".." << i + kUes - 1;
  }
}

TEST_F(MultiUeUplinkTest, AtMostOneNewDataTbPerUePerSlot) {
  constexpr std::uint32_t kUes = 3;
  Build(RanConfig::PaperCell());  // room for several grants per slot
  for (std::uint32_t ue = 0; ue < kUes; ++ue) Attach(ue, {.base_bler = 0.3});
  cell_->Start();
  // 30 fps frame bursts on every UE: requested and proactive grants overlap.
  net::PacketId id = 1;
  for (int frame = 0; frame < 30; ++frame) {
    for (std::uint32_t ue = 0; ue < kUes; ++ue) {
      for (int pkt = 0; pkt < 6; ++pkt) SendAt(frame * 33ms + 1ms, ue, id++, 1200);
    }
  }
  sim_.RunUntil(kEpoch + 2s);

  std::size_t requested = 0;
  for (std::uint32_t ue = 0; ue < kUes; ++ue) {
    std::set<std::int64_t> slots;
    for (const TbRecord& tb : Telemetry(ue)) {
      if (tb.harq_round != 0) continue;
      requested += tb.grant == GrantType::kRequested ? 1 : 0;
      EXPECT_TRUE(slots.insert(tb.slot_time.us()).second)
          << "UE " << ue << " got two new-data TBs at " << tb.slot_time.us() << " us";
    }
  }
  EXPECT_GT(requested, 0u);
  EXPECT_GT(cell_->counters().tb_rtx, 0u);
}

TEST_F(MultiUeUplinkTest, UeMidHandoverIsUnreachableWhileOthersTransmit) {
  Build(RanConfig::PaperCell());
  Attach(0);
  // UE 1: every first transmission fails and every retransmission decodes.
  // Its channel enters a 50 ms handover at the 7.5, 10 or 12.5 ms slot.
  ChannelModel::Config edge{.base_bler = 1.0, .rtx_bler_factor = 0.0};
  edge.handover_interval = 10ms;
  edge.handover_duration = 50ms;
  std::vector<sim::TimePoint> ue1_policy_calls;
  Attach(1, edge, std::make_unique<RecordingPolicy>(config_, ue1_policy_calls));

  // Probe UE 1's channel just after each slot k (at k × 2.5 ms).
  constexpr int kSlots = 48;
  std::vector<bool> mid_handover;
  for (int k = 1; k <= kSlots; ++k) {
    sim_.ScheduleAt(kEpoch + k * 2500us + 1us, [this, &mid_handover] {
      mid_handover.push_back(cell_->FindUe(1)->channel.in_handover());
    });
  }
  cell_->Start();
  SendAt(1ms, 1, 1, 1200);   // rides the 2.5 ms TB, which fails
  SendAt(20ms, 1, 2, 1200);  // waits in the buffer during the handover
  sim_.RunUntil(kEpoch + kSlots * 2500us + 1ms);
  ASSERT_EQ(mid_handover.size(), static_cast<std::size_t>(kSlots));
  ASSERT_TRUE(mid_handover[4]) << "the 12.5 ms slot must fall in the handover";

  int dark_slots = 0;
  for (int k = 1; k <= kSlots; ++k) {
    if (!mid_handover[static_cast<std::size_t>(k - 1)]) continue;
    ++dark_slots;
    const sim::TimePoint slot = kEpoch + k * 2500us;
    EXPECT_TRUE(HasRecordAt(0, slot)) << "UE 0 must keep transmitting at slot " << k;
    EXPECT_FALSE(HasRecordAt(1, slot)) << "UE 1 transmitted mid-handover at slot " << k;
    for (const sim::TimePoint call : ue1_policy_calls) {
      EXPECT_NE(call, slot) << "UE 1 got a grant decision or sent an SR at slot " << k;
    }
  }
  EXPECT_GE(dark_slots, 19);

  // The retransmission of the 2.5 ms TB fell due at 12.5 ms and moved one
  // slot at a time until the first slot UE 1 was reachable again.
  const TbRecord& first = Telemetry(1).front();
  ASSERT_EQ(first.slot_time, kEpoch + 2500us);
  ASSERT_FALSE(first.crc_ok);
  int reachable_again = 5;
  while (reachable_again <= kSlots && mid_handover[static_cast<std::size_t>(reachable_again - 1)]) {
    ++reachable_again;
  }
  ASSERT_LE(reachable_again, kSlots);
  bool retransmitted = false;
  for (const TbRecord& tb : Telemetry(1)) {
    if (tb.chain_id != first.chain_id || tb.harq_round != 1) continue;
    retransmitted = true;
    EXPECT_EQ(tb.slot_time, kEpoch + reachable_again * 2500us);
    EXPECT_TRUE(tb.crc_ok);
  }
  EXPECT_TRUE(retransmitted);
}

TEST_F(MultiUeUplinkTest, PreconditionsHoldInReleaseBuilds) {
  sim::ScopedCheckThrow guard;
  Build(RanConfig::PaperCell());
  Attach(0);
  EXPECT_THROW(Attach(0), sim::CheckViolation);
  EXPECT_THROW((void)cell_->DetachUe(7), sim::CheckViolation);
  net::Packet p;
  p.id = 1;
  p.size_bytes = 100;
  EXPECT_THROW(cell_->SendFromUe(7, p), sim::CheckViolation);
  EXPECT_THROW((void)cell_->policy(7), sim::CheckViolation);
  EXPECT_TRUE(cell_->HasUe(0));
}

TEST_F(MultiUeUplinkTest, DetachFromInsideASlotIsRejected) {
  // A callback that detached a UE mid-slot would leave the slot
  // transmitting for a UE that is gone.
  sim::ScopedCheckThrow guard;
  Build(RanConfig::PaperCell());
  Attach(0);
  Attach(1);
  cell_->set_telemetry_listener([this](std::uint32_t ue, const TbRecord&) {
    if (ue == 0) (void)cell_->DetachUe(1);
  });
  cell_->Start();
  EXPECT_THROW(sim_.RunUntil(kEpoch + 10ms), sim::CheckViolation);
  EXPECT_TRUE(cell_->HasUe(1));
}

TEST_F(MultiUeUplinkTest, DetachBooksPendingRetransmissionsAsLoss) {
  Build(RanConfig::PaperCell());
  Attach(0, {.base_bler = 1.0, .rtx_bler_factor = 1.0});
  cell_->Start();
  SendAt(1ms, 0, 1, 1200);
  SendAt(1ms, 0, 2, 800);
  sim_.RunUntil(kEpoch + 4ms);  // the 2.5 ms TB failed; its rtx is pending
  const UeRadioState radio = cell_->DetachUe(0);
  EXPECT_EQ(radio.offered, 2u);
  EXPECT_EQ(radio.lost, 2u);
  EXPECT_TRUE(radio.in_flight.empty());
  EXPECT_FALSE(cell_->HasUe(0));
  sim_.RunUntil(kEpoch + 50ms);  // nothing left to retransmit
  EXPECT_EQ(cell_->counters().tb_rtx, 0u);
}

}  // namespace
}  // namespace athena::ran
