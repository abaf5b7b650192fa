// Failure-injection and robustness tests: lossy feedback channels, clock
// drift, telemetry truncation, extreme configurations — the system must
// degrade gracefully, never crash or wedge. Input impairments go through
// fault::FaultInjector so each failure is a named, seeded, reproducible
// fault model rather than an ad-hoc mutation.
#include <chrono>

#include <gtest/gtest.h>

#include "app/session.hpp"
#include "core/analyzer.hpp"
#include "core/correlator.hpp"
#include "fault/fault.hpp"
#include "mitigation/phy_informed.hpp"
#include "sim/simulator.hpp"

namespace athena {
namespace {

using namespace std::chrono_literals;
using sim::kEpoch;

TEST(RobustnessTest, LossyFeedbackChannelStillConverges) {
  // 20% of RTCP feedback packets vanish: the controller sees gaps but the
  // call keeps working.
  sim::Simulator sim;
  app::SessionConfig config;
  config.seed = 31;
  config.wan_jitter = 500us;
  app::Session session{sim, config};
  // Splice loss into the feedback WAN by replacing the receiver's path.
  net::FixedDelayLink lossy{sim,
                           {.delay = 20ms, .loss_probability = 0.2},
                           sim::Rng{1}};
  session.receiver().set_feedback_path(lossy.AsHandler());
  lossy.set_sink(session.sender().FeedbackHandler());
  session.Run(20s);
  EXPECT_GT(session.sender().feedback_received(), 100u);
  EXPECT_GT(session.qoe().video_frames_rendered(), 400u);
}

TEST(RobustnessTest, ClockDriftDoesNotBreakCorrelation) {
  sim::Simulator sim;
  app::SessionConfig config;
  config.seed = 32;
  config.sender_clock_offset = 3ms;
  config.sender_clock_drift_ppm = 30.0;  // 30 µs/s of drift
  app::Session session{sim, config};
  session.Run(20s);
  const auto data = core::Correlator::Correlate(session.BuildCorrelatorInput());
  // Byte conservation is clock-independent.
  EXPECT_EQ(data.unmatched_tb_bytes, 0u);
  // OWDs absorb ≤ drift×duration ≈ 0.6 ms of error on top of estimation.
  const auto video = core::Analyzer::RanDelayCdf(data, false);
  EXPECT_GT(video.Median(), 0.0);
  EXPECT_LT(video.Median(), 50.0);
}

TEST(RobustnessTest, TruncatedTelemetryIsReportedNotFatal) {
  sim::Simulator sim;
  app::SessionConfig config;
  config.seed = 33;
  app::Session session{sim, config};
  session.Run(5s);
  core::CorrelatorLogs input{session.BuildCorrelatorInput()};
  // The sniffer dies halfway through the run.
  fault::FaultPlan plan;
  plan.For(fault::Stream::kTelemetry).truncate_after_fraction = 0.5;
  fault::FaultInjector injector{plan, config.seed};
  injector.Apply(fault::Stream::kTelemetry, input.telemetry);
  const auto data = core::Correlator::Correlate(input);
  EXPECT_GT(data.unmatched_packet_bytes, 0u);  // visible in diagnostics
  EXPECT_FALSE(data.packets.empty());          // early packets still correlated
}

TEST(RobustnessTest, BurstOutageMidCallIsFlagged) {
  // The telemetry sniffer blacks out for 400 ms mid-call: correlation
  // survives, and the hole is reported as a confirmed gap window, not
  // papered over.
  sim::Simulator sim;
  app::SessionConfig config;
  config.seed = 40;
  app::Session session{sim, config};
  session.Run(5s);
  core::CorrelatorLogs input{session.BuildCorrelatorInput()};
  fault::FaultPlan plan;
  plan.For(fault::Stream::kTelemetry).outage_begin = kEpoch + 2s;
  plan.For(fault::Stream::kTelemetry).outage_end = kEpoch + 2400ms;
  fault::FaultInjector injector{plan, config.seed};
  injector.Apply(fault::Stream::kTelemetry, input.telemetry);
  ASSERT_GT(injector.stats().For(fault::Stream::kTelemetry).outage_dropped, 0u);

  const auto data = core::Correlator::Correlate(input);
  EXPECT_FALSE(data.packets.empty());
  EXPECT_TRUE(data.health.degraded());
  EXPECT_GE(data.health.telemetry.gaps, 1u);
  EXPECT_GE(data.health.telemetry.longest_gap, 300ms);
  EXPECT_LT(data.health.mean_match_confidence, 1.0);
}

TEST(RobustnessTest, TelemetryTruncationAtRunEndIsFlagged) {
  // The feed dies at 40% of the call and never comes back: the tail gap
  // must drive both the gap counter and the aggregate match confidence.
  sim::Simulator sim;
  app::SessionConfig config;
  config.seed = 41;
  app::Session session{sim, config};
  session.Run(5s);
  core::CorrelatorLogs input{session.BuildCorrelatorInput()};
  fault::FaultPlan plan;
  plan.For(fault::Stream::kTelemetry).truncate_after_fraction = 0.4;
  fault::FaultInjector injector{plan, config.seed};
  injector.Apply(fault::Stream::kTelemetry, input.telemetry);

  const auto data = core::Correlator::Correlate(input);
  EXPECT_TRUE(data.health.degraded());
  EXPECT_GE(data.health.telemetry.gaps, 1u);
  EXPECT_GE(data.health.telemetry.longest_gap, 1s);
  EXPECT_LT(data.health.mean_match_confidence, 0.8);
}

TEST(RobustnessTest, ClockStepDuringActiveHarqRoundsIsSurvivable) {
  // An NTP step yanks the telemetry clock back 40 ms mid-run, while a
  // fading radio keeps multi-round HARQ chains in flight across the step.
  // Records land out of order; the correlator must repair, report, and
  // still produce a usable dataset.
  sim::Simulator sim;
  app::SessionConfig config;
  config.seed = 42;
  config.channel = ran::ChannelModel::FadingRadio();
  app::Session session{sim, config};
  session.Run(5s);
  core::CorrelatorLogs input{session.BuildCorrelatorInput()};
  fault::FaultPlan plan;
  plan.For(fault::Stream::kTelemetry).clock_step = -40ms;
  plan.For(fault::Stream::kTelemetry).clock_step_at = kEpoch + 2500ms;
  fault::FaultInjector injector{plan, config.seed};
  injector.Apply(fault::Stream::kTelemetry, input.telemetry);
  ASSERT_GT(injector.stats().For(fault::Stream::kTelemetry).clock_stepped, 0u);

  const auto data = core::Correlator::Correlate(input);
  EXPECT_FALSE(data.packets.empty());
  EXPECT_TRUE(data.health.degraded());
  EXPECT_GT(data.health.telemetry.out_of_order, 0u);
}

TEST(RobustnessTest, EmptyCorrelatorInputYieldsEmptyDataset) {
  const auto data = core::Correlator::Correlate(core::CorrelatorInput{});
  EXPECT_TRUE(data.packets.empty());
  EXPECT_TRUE(data.frames.empty());
  EXPECT_EQ(data.unmatched_tb_bytes, 0u);
}

TEST(RobustnessTest, ZeroCapacityCellDoesNotWedgeTheSimulation) {
  sim::Simulator sim;
  app::SessionConfig config;
  config.seed = 34;
  config.cell.cell_ul_capacity_bps = 25e6;
  config.cross_traffic = net::CapacityTrace{30e6};  // permanently saturated
  config.cross_burstiness = 0.0;
  config.icmp_enabled = false;
  app::Session session{sim, config};
  session.Run(10s);
  // Nothing gets through the uplink, but the simulation terminates and the
  // buffer simply holds the backlog.
  EXPECT_EQ(session.core_capture().count(), 0u);
  EXPECT_GT(session.ran_uplink()->buffer_bytes(), 0u);
}

TEST(RobustnessTest, TinyMtuPacketization) {
  // Extreme segmentation: 100-byte MTU on a normal call.
  sim::Simulator sim;
  app::SessionConfig config;
  config.seed = 35;
  config.sender.video.initial_bitrate_bps = 300e3;
  app::Session session{sim, config};
  session.Run(2s);
  EXPECT_GT(session.qoe().video_frames_rendered(), 30u);
}

TEST(RobustnessTest, PhyInformedControllerSurvivesTelemetryGap) {
  // The telemetry listener detaches mid-call: the controller must keep
  // operating (unmasked) instead of crashing or stalling.
  sim::Simulator sim;
  app::SessionConfig config;
  config.seed = 36;
  mitigation::PhyInformedController* phy = nullptr;
  config.controller_factory = [&phy] {
    auto c = std::make_unique<mitigation::PhyInformedController>();
    phy = c.get();
    return c;
  };
  app::Session session{sim, config};
  session.ran_uplink()->set_telemetry_listener(
      [&phy](const ran::TbRecord& tb) { phy->OnTbRecord(tb); });
  session.Start();
  sim.RunFor(5s);
  session.ran_uplink()->set_telemetry_listener(nullptr);  // sniffer dies
  sim.RunFor(5s);
  session.Stop();
  EXPECT_GT(session.qoe().video_frames_rendered(), 200u);
  EXPECT_GT(phy->gcc().target_bps(), 0.0);
}

TEST(RobustnessTest, BackToBackSessionsOnOneSimulator) {
  // Two sequential sessions sharing a simulator must not interfere.
  sim::Simulator sim;
  app::SessionConfig config;
  config.seed = 37;
  auto first = std::make_unique<app::Session>(sim, config);
  first->Run(3s);
  const auto first_count = first->core_capture().count();
  sim.RunFor(1s);  // drain in-flight deliveries the first session scheduled
  first.reset();   // tears down timers cleanly

  config.seed = 38;
  auto second = std::make_unique<app::Session>(sim, config);
  second->Run(3s);
  EXPECT_GT(first_count, 0u);
  EXPECT_GT(second->core_capture().count(), 0u);
}

TEST(RobustnessTest, AdaptationDisabledLeavesEncoderAlone) {
  sim::Simulator sim;
  app::SessionConfig config;
  config.seed = 39;
  config.sender.adaptation_enabled = false;
  net::CapacityTrace outage;
  outage.Append(kEpoch, 0.0);
  outage.Append(kEpoch + 2s, 26e6);
  outage.Append(kEpoch + 8s, 0.0);
  config.cross_traffic = outage;
  config.cell.cell_ul_capacity_bps = 25e6;
  app::Session session{sim, config};
  session.Run(20s);
  EXPECT_EQ(session.sender().adaptation().mode_downgrades(), 0u);
  EXPECT_EQ(session.sender().video_encoder().mode(), media::SvcMode::kHighFps28);
}

}  // namespace
}  // namespace athena
