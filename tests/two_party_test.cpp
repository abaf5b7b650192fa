// Tests for the bidirectional two-party session: the mobile party's media
// climbs the 5G uplink while the wired party's media descends the full
// downlink model — the complete Fig. 2 picture plus the reverse direction.
#include <chrono>
#include <span>

#include <gtest/gtest.h>

#include "app/two_party.hpp"
#include "capture_records.hpp"
#include "core/analyzer.hpp"
#include "sim/simulator.hpp"

namespace athena::app {
namespace {

using namespace std::chrono_literals;
using sim::kEpoch;

// ---------- RanDownlink in isolation ----------

class RanDownlinkTest : public ::testing::Test {
 protected:
  void Build(ran::RanConfig cell, ran::ChannelModel::Config channel = {.base_bler = 0.0}) {
    cell_ = cell;
    downlink_ = std::make_unique<ran::RanDownlink>(
        sim_, cell, ran::ChannelModel{channel, sim::Rng{5}},
        ran::CrossTraffic::Idle(sim::Rng{6}));
    downlink_->set_ue_sink([this](const net::Packet& p) {
      deliveries_.emplace_back(p.id, sim_.Now());
    });
    downlink_->Start();
  }

  void SendAt(sim::Duration when, net::PacketId id, std::uint32_t bytes) {
    sim_.ScheduleAt(kEpoch + when, [this, id, bytes] {
      net::Packet p;
      p.id = id;
      p.size_bytes = bytes;
      p.created_at = sim_.Now();
      downlink_->SendFromCore(p);
    });
  }

  sim::Simulator sim_;
  ran::RanConfig cell_;
  std::unique_ptr<ran::RanDownlink> downlink_;
  std::vector<std::pair<net::PacketId, sim::TimePoint>> deliveries_;
};

TEST_F(RanDownlinkTest, SlotGridIsFourTimesDenser) {
  Build(ran::RanConfig::PaperCell());
  EXPECT_EQ(downlink_->slot_period(), 625us);
}

TEST_F(RanDownlinkTest, SinglePacketRidesNextSlot) {
  Build(ran::RanConfig::PaperCell());
  SendAt(1ms, 1, 1200);
  sim_.RunUntil(kEpoch + 50ms);
  ASSERT_EQ(deliveries_.size(), 1u);
  // Next DL slot after 1 ms is 1.25 ms; plus the UE pipeline delay.
  EXPECT_EQ(deliveries_[0].second, kEpoch + 1250us + cell_.gnb_to_core_delay);
}

TEST_F(RanDownlinkTest, NoGrantCycleMeansWholeBurstInOneSlot) {
  // The §3.1 pathology cannot happen downlink: the gNB grants itself the
  // whole backlog immediately. A 6 kB burst fits one DL slot at 25 Mbps?
  // Slot budget = 25e6 × 0.625 ms / 8 ≈ 1953 B → the burst takes a few
  // *dense* slots, still finishing far faster than an uplink BSR cycle.
  Build(ran::RanConfig::PaperCell());
  for (int i = 0; i < 5; ++i) SendAt(1ms, static_cast<net::PacketId>(i + 1), 1200);
  sim_.RunUntil(kEpoch + 100ms);
  ASSERT_EQ(deliveries_.size(), 5u);
  const auto last = deliveries_.back().second - cell_.gnb_to_core_delay;
  EXPECT_LE(last, kEpoch + 4ms);  // vs ~12.5 ms on the uplink
}

TEST_F(RanDownlinkTest, HarqAddsRtxDelay) {
  Build(ran::RanConfig::PaperCell(), {.base_bler = 1.0, .rtx_bler_factor = 0.0});
  SendAt(1ms, 1, 1000);
  sim_.RunUntil(kEpoch + 100ms);
  ASSERT_EQ(deliveries_.size(), 1u);
  // First tx at 1.25 ms fails; rtx 10 ms later (grid-aligned) succeeds.
  EXPECT_GE(deliveries_[0].second, kEpoch + 11ms);
  EXPECT_GT(downlink_->counters().tb_rtx, 0u);
}

TEST_F(RanDownlinkTest, ChainDropLosesPacket) {
  Build(ran::RanConfig::PaperCell(), {.base_bler = 1.0, .rtx_bler_factor = 1.0});
  SendAt(1ms, 1, 1000);
  sim_.RunUntil(kEpoch + 500ms);
  EXPECT_TRUE(deliveries_.empty());
  EXPECT_EQ(downlink_->counters().packets_lost, 1u);
}

TEST_F(RanDownlinkTest, RetransmissionDueMidHandoverGoesOutRightAfterIt) {
  // Every first transmission fails and every retransmission decodes; the
  // first cell-edge crossing starts 6-10 ms in and lasts 20 ms, so the
  // retransmissions of packets sent at 1 ms and one DL slot later fall
  // due mid-handover, in consecutive slots.
  const ran::ChannelModel::Config channel{.base_bler = 1.0,
                                          .rtx_bler_factor = 0.0,
                                          .handover_interval = 8ms,
                                          .handover_duration = 20ms};
  Build(ran::RanConfig::PaperCell(), channel);
  const sim::Duration slot = downlink_->slot_period();
  SendAt(1ms, 1, 1000);
  SendAt(1ms + slot, 2, 1000);
  sim_.RunUntil(kEpoch + 100ms);

  // A twin of the downlink's channel (same seed, one tick per DL slot)
  // shows which slots the handover blacked out.
  ran::ChannelModel twin{channel, sim::Rng{5}};
  std::vector<bool> in_handover{false};  // slot 0 is the epoch
  for (int k = 1; k * slot <= 100ms; ++k) {
    twin.Tick(slot);
    in_handover.push_back(twin.in_handover());
  }
  const auto& tbs = downlink_->telemetry();
  ASSERT_EQ(tbs.size(), 4u);
  const auto due_slot = [&](const ran::TbRecord& tb) {
    return static_cast<std::size_t>((tb.slot_time + cell_.rtx_delay - kEpoch + slot - 1us) /
                                    slot);
  };
  ASSERT_TRUE(in_handover[due_slot(tbs[0])]);
  ASSERT_TRUE(in_handover[due_slot(tbs[1])]);
  std::size_t first_clear = due_slot(tbs[0]);
  while (in_handover[first_clear]) ++first_clear;

  const sim::TimePoint resent = kEpoch + static_cast<std::int64_t>(first_clear) * slot;
  for (std::size_t i = 2; i < 4; ++i) {
    EXPECT_EQ(tbs[i].slot_time, resent) << "retransmission " << i;
    EXPECT_EQ(tbs[i].harq_round, 1);
    EXPECT_TRUE(tbs[i].crc_ok);
  }
  ASSERT_EQ(deliveries_.size(), 2u);
  for (const auto& [id, at] : deliveries_) EXPECT_EQ(at, resent + cell_.gnb_to_core_delay);
  EXPECT_EQ(downlink_->counters().packets_delivered + downlink_->counters().packets_lost, 2u);
}

TEST_F(RanDownlinkTest, TelemetryByteConservation) {
  Build(ran::RanConfig::PaperCell());
  for (int i = 0; i < 20; ++i) {
    SendAt(sim::Duration{i * 5'000}, static_cast<net::PacketId>(i + 1), 900);
  }
  sim_.RunUntil(kEpoch + 1s);
  std::uint64_t used = 0;
  for (const auto& tb : downlink_->telemetry()) {
    if (tb.harq_round == 0) used += tb.used_bytes;
  }
  EXPECT_EQ(used, 20u * 900u);
  EXPECT_EQ(downlink_->queue_bytes(), 0u);
}

// ---------- the full two-party call ----------

class TwoPartyTest : public ::testing::Test {
 protected:
  void Run(TwoPartyConfig config, sim::Duration span = 20s) {
    session_ = std::make_unique<TwoPartySession>(sim_, std::move(config));
    session_->Run(span);
  }

  sim::Simulator sim_;
  std::unique_ptr<TwoPartySession> session_;
};

TEST_F(TwoPartyTest, BothDirectionsDeliverVideo) {
  TwoPartyConfig config;
  config.channel.base_bler = 0.08;
  Run(config);
  EXPECT_GT(session_->qoe_at_b().video_frames_rendered(), 400u);  // A → B
  EXPECT_GT(session_->qoe_at_a().video_frames_rendered(), 400u);  // B → A
  EXPECT_GT(session_->sender_a().feedback_received(), 100u);
  EXPECT_GT(session_->sender_b().feedback_received(), 100u);
}

// Both directions' correlator inputs are views of the call's own logs.
TEST_F(TwoPartyTest, CorrelatorInputsAliasTheCallLogs) {
  Run(TwoPartyConfig{}, 2s);
  const core::CorrelatorInput up = session_->BuildUplinkCorrelatorInput();
  const core::CorrelatorInput down = session_->BuildDownlinkCorrelatorInput();
  const auto expect_alias = [](std::span<const ran::TbRecord> view, const auto& log) {
    EXPECT_FALSE(view.empty());
    EXPECT_EQ(view.data(), log.data());
    EXPECT_EQ(view.size(), log.size());
  };
  ExpectAliases(up.sender, session_->a_out_capture().records());
  ExpectAliases(up.core, session_->core_up_capture().records());
  ExpectAliases(up.receiver, session_->b_in_capture().records());
  expect_alias(up.telemetry, session_->uplink().telemetry());
  ExpectAliases(down.sender, session_->core_down_capture().records());
  ExpectAliases(down.core, session_->a_in_capture().records());
  expect_alias(down.telemetry, session_->downlink().telemetry());
  EXPECT_GT(ChunksOf(up.sender).size(), 1u);
  EXPECT_TRUE(down.receiver.empty());
}

TEST_F(TwoPartyTest, UplinkJittersDownlinkDoesNot) {
  // The paper's takeaway (c), demonstrated with full machinery on both
  // paths: same cell, same radio, same HARQ — the *grant cycle* is what
  // makes the uplink jittery.
  TwoPartyConfig config;
  config.channel = ran::ChannelModel::FadingRadio();
  Run(config, 30s);

  const auto up = core::Correlator::Correlate(session_->BuildUplinkCorrelatorInput());
  const auto down = core::Correlator::Correlate(session_->BuildDownlinkCorrelatorInput());
  stats::Cdf up_owd{core::Analyzer::UplinkOwdSeries(up).Values()};
  stats::Cdf down_owd{core::Analyzer::UplinkOwdSeries(down).Values()};
  ASSERT_GT(up_owd.size(), 1000u);
  ASSERT_GT(down_owd.size(), 1000u);

  EXPECT_LT(down_owd.Median(), up_owd.Median());
  const double up_jitter = up_owd.P(95) - up_owd.P(5);
  const double down_jitter = down_owd.P(95) - down_owd.P(5);
  EXPECT_LT(down_jitter, up_jitter);
}

TEST_F(TwoPartyTest, DownlinkCorrelatorConservesBytes) {
  TwoPartyConfig config;
  config.channel.base_bler = 0.1;
  Run(config);
  const auto down = core::Correlator::Correlate(session_->BuildDownlinkCorrelatorInput());
  EXPECT_EQ(down.unmatched_tb_bytes, 0u);
  EXPECT_LT(down.unmatched_packet_bytes, 20'000u);  // shutdown in-flight only
}

TEST_F(TwoPartyTest, UplinkCorrelatorSeesFeedbackSharingTheQueue) {
  // A's RTCP about B's media is uplink traffic: the correlator must see
  // non-media packets in the uplink dataset.
  TwoPartyConfig config;
  Run(config, 10s);
  const auto up = core::Correlator::Correlate(session_->BuildUplinkCorrelatorInput());
  std::size_t rtcp = 0;
  for (const auto& p : up.packets) {
    if (p.kind == net::PacketKind::kRtcpFeedback) ++rtcp;
  }
  EXPECT_GT(rtcp, 50u);
  EXPECT_EQ(up.unmatched_tb_bytes, 0u);  // byte conservation incl. RTCP
}

TEST_F(TwoPartyTest, DownlinkHasNoGrantWaste) {
  TwoPartyConfig config;
  Run(config, 10s);
  // The gNB self-schedules: granted == used, no padding, no over-grant.
  EXPECT_DOUBLE_EQ(session_->downlink().counters().GrantUtilization(), 1.0);
  EXPECT_LT(session_->uplink().counters().GrantUtilization(), 0.5);
}

}  // namespace
}  // namespace athena::app
