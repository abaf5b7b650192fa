#include <chrono>

#include <gtest/gtest.h>

#include "app/adaptation.hpp"
#include "app/session.hpp"
#include "app/sfu.hpp"
#include "capture_records.hpp"
#include "core/analyzer.hpp"
#include "sim/simulator.hpp"

namespace athena::app {
namespace {

using namespace std::chrono_literals;
using sim::kEpoch;

// ---------- ZoomAdaptation ----------

class AdaptationTest : public ::testing::Test {
 protected:
  AdaptationTest()
      : encoder_(media::VideoEncoder::Config{}, sim::Rng{1}), adaptation_(encoder_) {}

  /// Feeds one feedback batch with the given relative OWD (ms) and
  /// per-packet jitter (ms).
  void Feed(sim::TimePoint now, double owd_ms, double jitter_ms = 0.0, int packets = 10) {
    std::vector<rtp::PacketReport> reports;
    for (int i = 0; i < packets; ++i) {
      const auto send = now - 200ms + sim::Duration{i * 10'000};
      const double owd = owd_ms + ((i % 2 == 0) ? jitter_ms : 0.0);
      reports.push_back(rtp::PacketReport{
          .transport_seq = seq_++,
          .send_ts = send,
          .recv_ts = send + sim::FromMs(5.0 + owd),  // 5 ms floor
          .size_bytes = 1200,
      });
    }
    adaptation_.OnFeedback(reports, now);
  }

  media::VideoEncoder encoder_;
  ZoomAdaptation adaptation_;
  std::uint16_t seq_ = 0;
};

TEST_F(AdaptationTest, StaysAt28FpsWhenHealthy) {
  for (int i = 0; i < 100; ++i) {
    Feed(kEpoch + sim::Duration{i * 100'000}, 5.0);
  }
  EXPECT_EQ(adaptation_.mode(), media::SvcMode::kHighFps28);
  EXPECT_FALSE(adaptation_.skipping());
  EXPECT_EQ(adaptation_.mode_downgrades(), 0u);
}

TEST_F(AdaptationTest, HighDelayLocksLowFpsMode) {
  Feed(kEpoch, 5.0);  // establish the baseline
  for (int i = 1; i < 60; ++i) {
    Feed(kEpoch + sim::Duration{i * 100'000}, 1500.0);  // 1.5 s of queue
  }
  EXPECT_EQ(adaptation_.mode(), media::SvcMode::kLowFps14);
  EXPECT_EQ(adaptation_.mode_downgrades(), 1u);
}

TEST_F(AdaptationTest, RecoveryRequiresSustainedLowDelay) {
  Feed(kEpoch, 5.0);
  for (int i = 1; i < 60; ++i) Feed(kEpoch + sim::Duration{i * 100'000}, 1500.0);
  ASSERT_EQ(adaptation_.mode(), media::SvcMode::kLowFps14);

  // A short calm period is not enough (recover_hold = 30 s).
  for (int i = 0; i < 50; ++i) Feed(kEpoch + 6s + sim::Duration{i * 100'000}, 2.0);
  EXPECT_EQ(adaptation_.mode(), media::SvcMode::kLowFps14);

  // A long calm period recovers 28 fps.
  for (int i = 0; i < 400; ++i) Feed(kEpoch + 11s + sim::Duration{i * 100'000}, 2.0);
  EXPECT_EQ(adaptation_.mode(), media::SvcMode::kHighFps28);
  EXPECT_EQ(adaptation_.mode_recoveries(), 1u);
}

TEST_F(AdaptationTest, JitterTriggersTransientSkipping) {
  Feed(kEpoch, 5.0);
  for (int i = 1; i < 60; ++i) {
    Feed(kEpoch + sim::Duration{i * 100'000}, 10.0, /*jitter_ms=*/40.0);
  }
  EXPECT_TRUE(adaptation_.skipping());
  EXPECT_EQ(adaptation_.mode(), media::SvcMode::kHighFps28);  // ladder unchanged
  EXPECT_GT(encoder_.enhancement_skip_fraction(), 0.0);
}

TEST_F(AdaptationTest, SkippingClearsWithHysteresis) {
  Feed(kEpoch, 5.0);
  for (int i = 1; i < 60; ++i) {
    Feed(kEpoch + sim::Duration{i * 100'000}, 10.0, 40.0);
  }
  ASSERT_TRUE(adaptation_.skipping());
  for (int i = 0; i < 200; ++i) {
    Feed(kEpoch + 7s + sim::Duration{i * 100'000}, 5.0, 0.0);
  }
  EXPECT_FALSE(adaptation_.skipping());
  EXPECT_DOUBLE_EQ(encoder_.enhancement_skip_fraction(), 0.0);
}

TEST_F(AdaptationTest, LogsDelayAndFps) {
  Feed(kEpoch, 5.0);
  Feed(kEpoch + 100ms, 5.0);
  EXPECT_EQ(adaptation_.delay_log().size(), 2u);
  EXPECT_EQ(adaptation_.fps_log().size(), 2u);
  EXPECT_NEAR(adaptation_.fps_log().samples()[0].value, 28.0, 0.1);
}

// ---------- SfuServer ----------

TEST(SfuTest, ForwardsWithProcessingDelay) {
  sim::Simulator sim;
  SfuServer sfu{sim, {}, sim::Rng{1}};
  std::vector<sim::TimePoint> out;
  sfu.set_forward_path([&](const net::Packet&) { out.push_back(sim.Now()); });
  net::Packet p;
  p.id = 1;
  p.kind = net::PacketKind::kRtpVideo;
  sfu.OnPacket(p);
  sim.RunAll();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_GT(out[0], kEpoch);          // some processing time
  EXPECT_LT(out[0], kEpoch + 100ms);  // but bounded
}

TEST(SfuTest, PreservesOrder) {
  sim::Simulator sim;
  SfuServer sfu{sim, {.spike_probability = 0.3}, sim::Rng{2}};
  std::vector<net::PacketId> order;
  sfu.set_forward_path([&](const net::Packet& p) { order.push_back(p.id); });
  for (net::PacketId i = 1; i <= 30; ++i) {
    sim.ScheduleAfter(sim::Duration{static_cast<std::int64_t>(i) * 1000}, [&sfu, i] {
      net::Packet p;
      p.id = i;
      sfu.OnPacket(p);
    });
  }
  sim.RunAll();
  ASSERT_EQ(order.size(), 30u);
  for (std::size_t i = 1; i < order.size(); ++i) EXPECT_LT(order[i - 1], order[i]);
}

TEST(SfuTest, SpikesAddHeavyTail) {
  sim::Simulator sim;
  SfuServer always_spikes{sim, {.spike_probability = 1.0}, sim::Rng{3}};
  sim::TimePoint out;
  always_spikes.set_forward_path([&](const net::Packet&) { out = sim.Now(); });
  net::Packet p;
  p.id = 1;
  always_spikes.OnPacket(p);
  sim.RunAll();
  EXPECT_GT(out, kEpoch + 5ms);
}

// ---------- VcaSender / VcaReceiver through a loopback ----------

TEST(SenderReceiverTest, LoopbackDeliversMediaAndAdaptsRate) {
  sim::Simulator sim;
  net::PacketIdGenerator ids;
  media::QoeCollector qoe;

  VcaSender::Config sender_config;
  auto sender = std::make_unique<VcaSender>(sim, sender_config,
                                            std::make_unique<GccController>(), ids,
                                            sim::Rng{4});
  auto receiver =
      std::make_unique<VcaReceiver>(sim, VcaReceiver::DefaultConfig(), ids, qoe);
  sender->set_qoe(&qoe);

  net::FixedDelayLink forward{sim, {.delay = 20ms}};
  net::FixedDelayLink back{sim, {.delay = 20ms}};
  sender->set_outbound(forward.AsHandler());
  forward.set_sink(receiver->AsHandler());
  receiver->set_feedback_path(back.AsHandler());
  back.set_sink(sender->FeedbackHandler());

  receiver->Start();
  sender->Start();
  sim.RunUntil(kEpoch + 10s);
  sender->Stop();
  receiver->Stop();

  EXPECT_GT(sender->media_packets_sent(), 500u);
  EXPECT_GT(sender->feedback_received(), 50u);
  // Everything arrives except what was still on the 20 ms wire at cutoff.
  EXPECT_GE(receiver->packets_received() + 10, sender->media_packets_sent());
  EXPECT_GT(qoe.video_frames_rendered(), 200u);
  // On a clean 20 ms path GCC ramps up from its initial 600 kbps.
  EXPECT_GT(sender->controller().target_bps(), 700e3);
  // Frame rate at the receiver is the full 28 fps ladder.
  EXPECT_NEAR(qoe.FrameRateFps().Median(), 28.0, 2.0);
}

TEST(SenderReceiverTest, StopHaltsTraffic) {
  sim::Simulator sim;
  net::PacketIdGenerator ids;
  media::QoeCollector qoe;
  auto sender = std::make_unique<VcaSender>(sim, VcaSender::Config{},
                                            std::make_unique<GccController>(), ids,
                                            sim::Rng{4});
  int packets = 0;
  sender->set_outbound([&](const net::Packet&) { ++packets; });
  sender->Start();
  sim.RunUntil(kEpoch + 1s);
  sender->Stop();
  const int at_stop = packets;
  sim.RunUntil(kEpoch + 2s);
  EXPECT_EQ(packets, at_stop);
}

TEST(SenderReceiverTest, AudioAndVideoUseDistinctSsrcs) {
  sim::Simulator sim;
  net::PacketIdGenerator ids;
  auto sender = std::make_unique<VcaSender>(sim, VcaSender::Config{},
                                            std::make_unique<GccController>(), ids,
                                            sim::Rng{4});
  bool saw_audio = false;
  bool saw_video = false;
  sender->set_outbound([&](const net::Packet& p) {
    if (p.is_audio()) {
      saw_audio = true;
      EXPECT_EQ(p.rtp->ssrc, 0x20u);
    } else if (p.is_video()) {
      saw_video = true;
      EXPECT_EQ(p.rtp->ssrc, 0x10u);
    }
  });
  sender->Start();
  sim.RunUntil(kEpoch + 1s);
  sender->Stop();
  EXPECT_TRUE(saw_audio);
  EXPECT_TRUE(saw_video);
}

// ---------- Pacer ----------

TEST(PacerTest, SpacesPacketsAtPacingRate) {
  sim::Simulator sim;
  Pacer pacer{sim, Pacer::Config{.rate_factor = 1.0, .min_rate_bps = 8e6}};
  pacer.set_target_bitrate(8e6);  // 1000 B packet → 1 ms spacing
  std::vector<sim::TimePoint> out;
  pacer.set_sink([&](const net::Packet&) { out.push_back(sim.Now()); });
  for (int i = 0; i < 5; ++i) {
    net::Packet p;
    p.id = static_cast<net::PacketId>(i + 1);
    p.size_bytes = 1000;
    pacer.Send(p);
  }
  sim.RunAll();
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out[0], kEpoch);           // head leaves immediately
  EXPECT_EQ(out[1], kEpoch + 1ms);
  EXPECT_EQ(out[4], kEpoch + 4ms);
}

TEST(PacerTest, IdlePeriodsDoNotAccumulateCredit) {
  sim::Simulator sim;
  Pacer pacer{sim, Pacer::Config{.rate_factor = 1.0, .min_rate_bps = 8e6}};
  pacer.set_target_bitrate(8e6);
  std::vector<sim::TimePoint> out;
  pacer.set_sink([&](const net::Packet&) { out.push_back(sim.Now()); });
  auto send = [&](net::PacketId id) {
    net::Packet p;
    p.id = id;
    p.size_bytes = 1000;
    pacer.Send(p);
  };
  send(1);
  sim.ScheduleAfter(10ms, [&] {
    send(2);
    send(3);
  });
  sim.RunAll();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[1], kEpoch + 10ms);   // sent on arrival (bucket idle)
  EXPECT_EQ(out[2], kEpoch + 11ms);   // then paced
}

TEST(PacerTest, DropsWhenQueueOverflows) {
  sim::Simulator sim;
  Pacer pacer{sim, Pacer::Config{.rate_factor = 1.0, .min_rate_bps = 3e5,
                                 .max_queue_packets = 3}};
  pacer.set_sink([](const net::Packet&) {});
  for (int i = 0; i < 10; ++i) {
    net::Packet p;
    p.id = static_cast<net::PacketId>(i + 1);
    p.size_bytes = 1200;
    pacer.Send(p);
  }
  EXPECT_GT(pacer.dropped(), 0u);
  sim.RunAll();
}

TEST(PacerTest, SenderIntegrationPacesBursts) {
  sim::Simulator sim;
  net::PacketIdGenerator ids;
  VcaSender::Config config;
  config.pacing_enabled = true;
  config.pacer.rate_factor = 2.0;
  auto sender = std::make_unique<VcaSender>(sim, config, std::make_unique<GccController>(),
                                            ids, sim::Rng{4});
  std::vector<sim::TimePoint> video_times;
  sender->set_outbound([&](const net::Packet& p) {
    if (p.is_video()) video_times.push_back(sim.Now());
  });
  sender->Start();
  sim.RunUntil(kEpoch + 2s);
  sender->Stop();
  ASSERT_GT(video_times.size(), 50u);
  // With pacing, consecutive same-frame packets never share an instant.
  std::size_t coincident = 0;
  for (std::size_t i = 1; i < video_times.size(); ++i) {
    if (video_times[i] == video_times[i - 1]) ++coincident;
  }
  EXPECT_EQ(coincident, 0u);
}

// ---------- Session integration ----------

TEST(SessionTest, FiveGSessionProducesAllArtifacts) {
  sim::Simulator sim;
  SessionConfig config;
  config.channel.base_bler = 0.08;
  Session session{sim, config};
  session.Run(10s);

  EXPECT_GT(session.sender_capture().count(), 1000u);
  EXPECT_GT(session.core_capture().count(), 1000u);
  EXPECT_GT(session.sfu_in_capture().count(), 1000u);
  EXPECT_GT(session.sfu_out_capture().count(), 1000u);
  EXPECT_GT(session.receiver_capture().count(), 1000u);
  ASSERT_NE(session.ran_uplink(), nullptr);
  EXPECT_GT(session.ran_uplink()->telemetry().size(), 3000u);
  ASSERT_NE(session.icmp_prober(), nullptr);
  EXPECT_GT(session.icmp_prober()->results().size(), 400u);
  EXPECT_GT(session.qoe().video_frames_rendered(), 200u);
}

TEST(SessionTest, EmulatedSessionHasNoRan) {
  sim::Simulator sim;
  SessionConfig config;
  config.access = SessionConfig::Access::kEmulated;
  config.emulated_capacity = net::CapacityTrace{8e6};
  Session session{sim, config};
  session.Run(5s);
  EXPECT_EQ(session.ran_uplink(), nullptr);
  EXPECT_GT(session.receiver_capture().count(), 500u);
  EXPECT_GT(session.qoe().video_frames_rendered(), 100u);
}

TEST(SessionTest, IcmpSeesWanButNotSfuProcessing) {
  sim::Simulator sim;
  SessionConfig config;
  config.sfu.proc_median_ms = 8.0;  // make app-layer processing visible
  Session session{sim, config};
  session.Run(10s);

  stats::Cdf icmp_rtt;
  for (const auto& r : session.icmp_prober()->results()) {
    icmp_rtt.Add(sim::ToMs(r.rtt));
  }
  ASSERT_FALSE(icmp_rtt.empty());
  // Kernel reflection: RTT ≈ 2 × wan_delay, unaffected by SFU processing.
  EXPECT_NEAR(icmp_rtt.Median(), 20.0, 3.0);
}

TEST(SessionTest, ClockOffsetEstimationIsAccurate) {
  sim::Simulator sim;
  SessionConfig config;
  config.sender_clock_offset = 2500us;
  config.receiver_clock_offset = -1700us;
  Session session{sim, config};
  session.Run(10s);
  const auto input = session.BuildCorrelatorInput();
  // Estimated offsets must cancel the configured ones within a millisecond.
  EXPECT_NEAR(sim::ToMs(input.sender_offset), -2.5, 1.0);
  EXPECT_NEAR(sim::ToMs(input.receiver_offset), 1.7, 1.5);
}

// The correlator input is a view: it reads the capture points' and the
// RAN's own logs, and copies no record.
TEST(SessionTest, CorrelatorInputAliasesTheSessionLogs) {
  sim::Simulator sim;
  Session session{sim, SessionConfig{}};
  session.Run(2s);
  const core::CorrelatorInput input = session.BuildCorrelatorInput();
  ExpectAliases(input.sender, session.sender_capture().records());
  ExpectAliases(input.core, session.core_capture().records());
  ExpectAliases(input.receiver, session.receiver_capture().records());
  EXPECT_GT(ChunksOf(input.sender).size(), 1u);
  EXPECT_FALSE(input.telemetry.empty());
  EXPECT_EQ(input.telemetry.data(), session.ran_uplink()->telemetry().data());
  EXPECT_EQ(input.telemetry.size(), session.ran_uplink()->telemetry().size());
}

TEST(SessionTest, DeterministicForFixedSeed) {
  auto run = [](std::uint64_t seed) {
    sim::Simulator sim;
    SessionConfig config;
    config.seed = seed;
    config.channel.base_bler = 0.1;
    Session session{sim, config};
    session.Run(5s);
    return session.core_capture().count();
  };
  EXPECT_EQ(run(9), run(9));
  EXPECT_NE(run(9), run(10));  // different seed, different trajectory (almost surely)
}

TEST(SessionTest, NadaControllerOptionWorks) {
  sim::Simulator sim;
  SessionConfig config;
  config.controller = SessionConfig::Controller::kNada;
  Session session{sim, config};
  session.Run(5s);
  EXPECT_GT(session.qoe().video_frames_rendered(), 100u);
}

}  // namespace
}  // namespace athena::app
