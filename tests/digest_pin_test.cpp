// Digest pins: the exact outputs of representative session and world
// runs, recorded as constants. Any refactor of the RAN, session or world
// stack must keep every value byte-identical. A deliberate behaviour
// change re-baselines the constants once, with a written justification.
//
// Each session case pins five witnesses: the StateDigest of the
// correlator input (every capture and telemetry record), a digest of the
// rendered cross-layer report, a digest of the RAN ground truth (which
// packet bytes rode which TB chain), the kernel's event count, and a
// digest of every field of the correlated dataset. Each
// two-party case pins both directions' correlator inputs, the downlink's
// telemetry and backlog, both directions' RAN counters, each end's QoE
// and packet counts, and the event count. Each world case pins the world
// digest and a digest of the fleet report.
//
// The pins hold only for libstdc++: the std::*_distribution algorithms
// behind sim::Rng are implementation-defined, so other standard
// libraries draw different (equally valid) random streams.
#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "app/session.hpp"
#include "app/two_party.hpp"
#include "core/correlator.hpp"
#include "core/report.hpp"
#include "fault/fault.hpp"
#include "mitigation/app_aware_policy.hpp"
#include "ran/grant_policy.hpp"
#include "resilience/checkpoint.hpp"
#include "world/engine.hpp"

namespace athena {
namespace {

using namespace std::chrono_literals;

#if defined(__GLIBCXX__)
#define ATHENA_REQUIRE_PINNED_RNG() (void)0
#else
#define ATHENA_REQUIRE_PINNED_RNG() \
  GTEST_SKIP() << "digest pins are recorded against libstdc++ distributions"
#endif

struct SessionPin {
  std::uint64_t input = 0;
  std::uint64_t report = 0;
  std::uint64_t truth = 0;
  std::uint64_t events = 0;
  std::uint64_t dataset = 0;
};

struct PinnedRun {
  SessionPin pin;
  ran::RanCounters counters;
};

using Arm = std::function<void(sim::Simulator&, app::Session&)>;
/// Rewrites a copy of the correlator input before it is digested and
/// correlated.
using Impair = std::function<void(core::CorrelatorLogs&)>;

/// Every field of the correlated dataset: each packet record (its chains
/// and the bits of its match confidence included), each frame record, the
/// four stream healths, the health scalars and both unmatched-byte counts.
std::uint64_t DatasetDigest(const core::CrossLayerDataset& data) {
  resilience::StateDigest d;
  const auto at = [&d](sim::TimePoint t) { d.Mix(static_cast<std::uint64_t>(t.us())); };
  const auto span = [&d](sim::Duration x) { d.Mix(static_cast<std::uint64_t>(x.count())); };
  const auto real = [&d](double v) { d.Mix(std::bit_cast<std::uint64_t>(v)); };
  d.Mix(data.packets.size());
  for (const core::CrossLayerRecord& r : data.packets) {
    d.Mix(r.packet_id);
    d.Mix(static_cast<std::uint64_t>(r.kind));
    d.Mix(r.size_bytes);
    d.Mix(r.frame_id);
    d.Mix(static_cast<std::uint64_t>(r.layer));
    at(r.sent_at);
    at(r.core_at);
    d.Mix(r.reached_core ? 1u : 0u);
    at(r.receiver_at);
    d.Mix(r.reached_receiver ? 1u : 0u);
    d.Mix(r.tb_chains.size());
    for (const ran::TbId chain : r.tb_chains) d.Mix(chain);
    d.Mix(r.max_harq_rounds);
    d.Mix(static_cast<std::uint64_t>(r.last_grant));
    span(r.uplink_owd);
    span(r.sched_wait);
    span(r.transmission_spread);
    span(r.rtx_inflation);
    span(r.wan_owd);
    d.Mix(static_cast<std::uint64_t>(r.primary_cause));
    real(r.match_confidence);
  }
  d.Mix(data.frames.size());
  for (const core::FrameRecord& f : data.frames) {
    d.Mix(f.frame_id);
    d.Mix(static_cast<std::uint64_t>(f.layer));
    d.Mix(f.is_audio ? 1u : 0u);
    d.Mix(f.packets);
    at(f.first_sent);
    at(f.last_sent);
    at(f.first_core);
    at(f.last_core);
    d.Mix(f.complete_at_core ? 1u : 0u);
  }
  const core::CorrelationHealth& h = data.health;
  for (const core::StreamHealth* s : {&h.telemetry, &h.sender, &h.core, &h.receiver}) {
    d.Mix(static_cast<std::uint64_t>(s->state));
    d.Mix(s->records);
    d.Mix(s->duplicates_dropped);
    d.Mix(s->out_of_order);
    d.Mix(s->gaps);
    span(s->longest_gap);
  }
  d.Mix(h.uncovered_packets);
  d.Mix(h.phantom_tb_bytes);
  d.Mix(h.phantom_capacity ? 1u : 0u);
  real(h.mean_match_confidence);
  d.Mix(data.unmatched_tb_bytes);
  d.Mix(data.unmatched_packet_bytes);
  return d.value();
}

PinnedRun RunSession(const app::SessionConfig& config, sim::Duration span,
                     const Arm& arm = {}, const Impair& impair = {}) {
  sim::Simulator sim;
  app::Session session{sim, config};
  if (arm) arm(sim, session);
  resilience::StateDigest truth_digest;
  session.ran_uplink()->set_truth_sink([&truth_digest](const ran::TbTruth& chain) {
    truth_digest.Mix(chain.chain_id);
    for (const ran::SegmentTruth& seg : chain.segments) {
      truth_digest.Mix(seg.packet_id);
      truth_digest.Mix(seg.bytes);
      truth_digest.Mix(seg.last_segment ? 1 : 0);
    }
  });
  session.Run(span);

  PinnedRun run;
  core::CorrelatorInput input = session.BuildCorrelatorInput();
  core::CorrelatorLogs impaired;
  if (impair) {
    impaired = core::CorrelatorLogs{input};
    impair(impaired);
    input = impaired;
  }
  resilience::StateDigest input_digest;
  input_digest.Mix(input);
  run.pin.input = input_digest.value();

  const ran::RanUplink& uplink = *session.ran_uplink();
  const core::CrossLayerDataset data = core::Correlator::Correlate(input);
  std::ostringstream report;
  core::Report::Render(report, core::Report::Inputs{
                                   .dataset = &data,
                                   .qoe = &session.qoe(),
                                   .ran_counters = &uplink.counters(),
                                   .controller_target_bps =
                                       session.sender().controller().target_bps(),
                               });
  resilience::StateDigest report_digest;
  report_digest.Mix(report.str());
  run.pin.report = report_digest.value();
  run.pin.dataset = DatasetDigest(data);

  run.pin.truth = truth_digest.value();
  run.pin.events = sim.events_executed();
  run.counters = uplink.counters();
  return run;
}

std::string Hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llxULL", static_cast<unsigned long long>(v));
  return buf;
}

void ExpectPinned(const SessionPin& got, const SessionPin& want) {
  EXPECT_EQ(got.input, want.input) << "correlator input digest " << Hex(got.input);
  EXPECT_EQ(got.report, want.report) << "report digest " << Hex(got.report);
  EXPECT_EQ(got.truth, want.truth) << "ground-truth digest " << Hex(got.truth);
  EXPECT_EQ(got.events, want.events) << "events executed " << got.events;
  EXPECT_EQ(got.dataset, want.dataset) << "dataset digest " << Hex(got.dataset);
}

/// A loaded fading cell: cross traffic with slow modulation, so every
/// slot draws from the cross-traffic stream and HARQ rounds are common.
app::SessionConfig LoadedCell(std::uint64_t seed) {
  app::SessionConfig config;
  config.seed = seed;
  config.channel = ran::ChannelModel::FadingRadio();
  config.cross_traffic = net::CapacityTrace{14e6};
  config.cross_modulation_sigma = 0.3;
  return config;
}

/// Grants whatever the last BSR reported, at once, plus a little slack:
/// a policy with no scheduling delay and no proactive grants.
class GreedyGrantPolicy final : public ran::GrantPolicy {
 public:
  Decision OnUplinkSlot(const SlotInfo& slot) override {
    const std::uint32_t want = reported_ > 0 ? reported_ + 300 : 0;
    reported_ = 0;
    return Decision{std::min(want, slot.available_bytes), ran::GrantType::kRequested};
  }
  void OnBsrDecoded(sim::TimePoint, std::uint32_t reported_bytes) override {
    reported_ = reported_bytes;
  }
  void OnTbFilled(sim::TimePoint, const Decision&, std::uint32_t) override {}

 private:
  std::uint32_t reported_ = 0;
};

TEST(DigestPinTest, ChannelHandovers) {
  ATHENA_REQUIRE_PINNED_RNG();
  app::SessionConfig config = LoadedCell(21);
  config.channel.handover_interval = 900ms;
  config.channel.handover_duration = 150ms;
  const PinnedRun run = RunSession(config, 10s);
  ExpectPinned(run.pin, {0x0e4a540f5dfa5ae1ULL, 0x3e97c280c23517e0ULL,
                         0x4ad3938c2e85327aULL, 13467, 0x67ea857063d857d2ULL});
}

TEST(DigestPinTest, HarqChainDrops) {
  ATHENA_REQUIRE_PINNED_RNG();
  app::SessionConfig config = LoadedCell(22);
  config.cell.max_harq_rounds = 2;
  config.channel.bad_state_bler = 0.9;
  const PinnedRun run = RunSession(config, 10s);
  EXPECT_GT(run.counters.tb_dropped_chains, 0u);
  ExpectPinned(run.pin, {0x6a0acdec41f769c7ULL, 0x8685402d35ae6d4bULL,
                         0xb357d55e1280fe0fULL, 15865, 0xbdb9d55acebccf95ULL});
}

TEST(DigestPinTest, L4sEcnMarking) {
  ATHENA_REQUIRE_PINNED_RNG();
  app::SessionConfig config = LoadedCell(23);
  config.cross_traffic = net::CapacityTrace{18e6};
  config.controller = app::SessionConfig::Controller::kL4s;
  const PinnedRun run = RunSession(config, 10s);
  EXPECT_GT(run.counters.ecn_marked, 0u);
  ExpectPinned(run.pin, {0x5ccf4eb04bb446dbULL, 0x347fb7547cb49974ULL,
                         0xc545d8a7fb1ccca6ULL, 16403, 0x5c33f734f38ce02fULL});
}

TEST(DigestPinTest, FddLikeCell) {
  ATHENA_REQUIRE_PINNED_RNG();
  app::SessionConfig config = LoadedCell(24);
  config.cell = ran::RanConfig::FddLikeCell();
  const PinnedRun run = RunSession(config, 10s);
  ExpectPinned(run.pin, {0x7f0455f87d8ef5e3ULL, 0x2bbd0afc7eb5c921ULL,
                         0x48f7d04a11c09c6eULL, 31721, 0x64e32a5111c2b12aULL});
}

TEST(DigestPinTest, NoProactiveGrants) {
  ATHENA_REQUIRE_PINNED_RNG();
  app::SessionConfig config = LoadedCell(25);
  config.cell = ran::RanConfig::PaperCellNoProactive();
  const PinnedRun run = RunSession(config, 10s);
  ExpectPinned(run.pin, {0xfb750b1fbfc09872ULL, 0x34819922737121e1ULL,
                         0xcfe239c8ce670ed4ULL, 15211, 0x42fac2b33b20190cULL});
}

TEST(DigestPinTest, CustomGrantPolicy) {
  ATHENA_REQUIRE_PINNED_RNG();
  app::SessionConfig config = LoadedCell(26);
  config.grant_policy = [](const ran::RanConfig&) -> std::unique_ptr<ran::GrantPolicy> {
    return std::make_unique<GreedyGrantPolicy>();
  };
  const PinnedRun run = RunSession(config, 10s);
  ExpectPinned(run.pin, {0x5827ecc499e98d1aULL, 0xee09efeea244d144ULL,
                         0x2aa5732102d39585ULL, 15920, 0xd73b69ec84ddb9d0ULL});
}

TEST(DigestPinTest, TunablePolicySwitchedMidRun) {
  ATHENA_REQUIRE_PINNED_RNG();
  app::SessionConfig config = LoadedCell(27);
  config.grant_policy = [](const ran::RanConfig& cell) -> std::unique_ptr<ran::GrantPolicy> {
    return std::make_unique<ran::TunableGrantPolicy>(
        std::make_unique<ran::BsrGrantPolicy>(cell),
        std::make_unique<mitigation::AppAwareGrantPolicy>(cell));
  };
  const Arm arm = [](sim::Simulator& sim, app::Session& session) {
    auto* tunable = dynamic_cast<ran::TunableGrantPolicy*>(&session.ran_uplink()->policy());
    ASSERT_NE(tunable, nullptr);
    sim.ScheduleAt(sim::kEpoch + 2s, [tunable] {
      tunable->set_use_alternate(true);
      tunable->set_proactive_scale(0.5);
    });
    sim.ScheduleAt(sim::kEpoch + 4s, [tunable] {
      tunable->set_use_alternate(false);
      tunable->set_proactive_scale(2.0);
    });
  };
  const PinnedRun run = RunSession(config, 10s, arm);
  ExpectPinned(run.pin, {0x07ff800cf0f3fd28ULL, 0xf15be5a7d2aeb5ebULL,
                         0x821a346aecb222c1ULL, 15877, 0x5bb95c145a62ec1eULL});
}

/// Drives the correlator's repair paths: chain ids relabelled by a
/// non-monotone bijection, every 16th new chain moved onto its
/// predecessor's slot (so chains share a first slot and must be ordered
/// by id), then all four feeds dropped, duplicated, reordered and delayed.
void ImpairAllFeeds(core::CorrelatorLogs& input) {
  for (std::size_t i = 0; i < input.telemetry.size(); ++i) {
    ran::TbRecord& tb = input.telemetry[i];
    tb.chain_id *= 0x9e3779b97f4a7c15ULL;  // odd factor: a bijection mod 2^64
    if (i > 0 && i % 16 == 0 && tb.harq_round == 0) {
      tb.slot_time = input.telemetry[i - 1].slot_time;
    }
  }
  fault::FaultPlan plan;
  for (const fault::Stream stream :
       {fault::Stream::kTelemetry, fault::Stream::kSenderCapture, fault::Stream::kCoreCapture,
        fault::Stream::kReceiverCapture}) {
    fault::FaultSpec& spec = plan.For(stream);
    spec.drop = 0.02;
    spec.duplicate = 0.05;
    spec.reorder = 0.1;
    spec.reorder_depth = 6;
    spec.delay = 0.02;
    spec.delay_min = 100us;
    spec.delay_max = 3ms;
  }
  fault::FaultInjector injector{plan, 91};
  injector.Apply(fault::Stream::kTelemetry, input.telemetry);
  injector.Apply(fault::Stream::kSenderCapture, input.sender);
  injector.Apply(fault::Stream::kCoreCapture, input.core);
  injector.Apply(fault::Stream::kReceiverCapture, input.receiver);
}

TEST(DigestPinTest, ImpairedFeedsWithRelabelledChains) {
  ATHENA_REQUIRE_PINNED_RNG();
  app::SessionConfig config = LoadedCell(28);
  config.channel.handover_interval = 3s;
  config.channel.handover_duration = 150ms;
  const PinnedRun run = RunSession(config, 10s, {}, ImpairAllFeeds);
  ExpectPinned(run.pin, {0x15c3c6e50498a18bULL, 0x772d8dc117a25d87ULL,
                         0x6f2f82b610e17972ULL, 14494, 0x73a9178cdf499494ULL});
}

// ---------- two-party call ----------

/// RanCounters fields in declaration order.
constexpr std::array<const char*, 15> kCounterNames = {
    "tb_transmissions",       "tb_new",
    "tb_rtx",                 "tb_failed",
    "tb_dropped_chains",      "empty_tb_transmissions",
    "empty_tb_rtx",           "granted_bytes",
    "used_bytes",             "wasted_requested_bytes",
    "wasted_proactive_bytes", "packets_delivered",
    "packets_lost",           "bsr_sent",
    "ecn_marked"};
constexpr std::size_t kDroppedChains = 4;
constexpr std::size_t kBsrSent = 13;
using CounterFields = std::array<std::uint64_t, kCounterNames.size()>;

CounterFields Fields(const ran::RanCounters& c) {
  return {c.tb_transmissions,       c.tb_new,
          c.tb_rtx,                 c.tb_failed,
          c.tb_dropped_chains,      c.empty_tb_transmissions,
          c.empty_tb_rtx,           c.granted_bytes,
          c.used_bytes,             c.wasted_requested_bytes,
          c.wasted_proactive_bytes, c.packets_delivered,
          c.packets_lost,           c.bsr_sent,
          c.ecn_marked};
}

struct TwoPartyPin {
  std::uint64_t up_input = 0;
  std::uint64_t down_input = 0;
  std::uint64_t down_telemetry = 0;
  std::uint64_t down_queue_bytes = 0;
  CounterFields up{};
  /// The downlink's bsr_sent is not pinned: it counts buffer reports,
  /// which a gNB scheduling its own queue has no use for.
  CounterFields down{};
  std::uint64_t rendered_a = 0, late_a = 0, rendered_b = 0, late_b = 0;
  std::uint64_t received_a = 0, received_b = 0, feedback_a = 0, feedback_b = 0;
  std::uint64_t events = 0;
};

TwoPartyPin RunTwoParty(const app::TwoPartyConfig& config, sim::Duration span) {
  sim::Simulator sim;
  app::TwoPartySession session{sim, config};
  session.Run(span);

  TwoPartyPin pin;
  resilience::StateDigest up;
  up.Mix(session.BuildUplinkCorrelatorInput());
  pin.up_input = up.value();
  resilience::StateDigest down;
  down.Mix(session.BuildDownlinkCorrelatorInput());
  pin.down_input = down.value();
  resilience::StateDigest telemetry;
  telemetry.Mix(session.downlink().telemetry());
  pin.down_telemetry = telemetry.value();
  pin.down_queue_bytes = session.downlink().queue_bytes();
  pin.up = Fields(session.uplink().counters());
  pin.down = Fields(session.downlink().counters());
  pin.down[kBsrSent] = 0;
  pin.rendered_a = session.qoe_at_a().video_frames_rendered();
  pin.late_a = session.qoe_at_a().late_frames();
  pin.rendered_b = session.qoe_at_b().video_frames_rendered();
  pin.late_b = session.qoe_at_b().late_frames();
  pin.received_a = session.receiver_a().packets_received();
  pin.received_b = session.receiver_b().packets_received();
  pin.feedback_a = session.sender_a().feedback_received();
  pin.feedback_b = session.sender_b().feedback_received();
  pin.events = sim.events_executed();
  return pin;
}

void ExpectCounters(const char* direction, const CounterFields& got,
                    const CounterFields& want) {
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << direction << " " << kCounterNames[i];
  }
}

void ExpectTwoPartyPinned(const TwoPartyPin& got, const TwoPartyPin& want) {
  EXPECT_EQ(got.up_input, want.up_input) << "uplink input digest " << Hex(got.up_input);
  EXPECT_EQ(got.down_input, want.down_input) << "downlink input digest " << Hex(got.down_input);
  EXPECT_EQ(got.down_telemetry, want.down_telemetry)
      << "downlink telemetry digest " << Hex(got.down_telemetry);
  EXPECT_EQ(got.down_queue_bytes, want.down_queue_bytes);
  ExpectCounters("uplink", got.up, want.up);
  ExpectCounters("downlink", got.down, want.down);
  EXPECT_EQ(got.rendered_a, want.rendered_a);
  EXPECT_EQ(got.late_a, want.late_a);
  EXPECT_EQ(got.rendered_b, want.rendered_b);
  EXPECT_EQ(got.late_b, want.late_b);
  EXPECT_EQ(got.received_a, want.received_a);
  EXPECT_EQ(got.received_b, want.received_b);
  EXPECT_EQ(got.feedback_a, want.feedback_a);
  EXPECT_EQ(got.feedback_b, want.feedback_b);
  EXPECT_EQ(got.events, want.events);
}

TEST(DigestPinTest, TwoPartyDefaultCall) {
  ATHENA_REQUIRE_PINNED_RNG();
  const TwoPartyPin pin = RunTwoParty(app::TwoPartyConfig{}, 10s);
  ExpectTwoPartyPinned(
      pin, {0x3556b224b975a34eULL, 0x526ed9b528496f4bULL, 0x52e1d756959a5243ULL, 0,
            {4339, 4000, 339, 340, 0, 3100, 248, 8945361,
             1193330, 699385, 7052646, 1733, 0, 968, 0},
            {1378, 1291, 87, 87, 0, 0, 0, 1169101,
             1169101, 0, 0, 1711, 0, 0, 0},
            279, 0, 279, 0, 1511, 1533, 199, 199, 40693});
}

TEST(DigestPinTest, TwoPartyHandoverAndCrossTraffic) {
  ATHENA_REQUIRE_PINNED_RNG();
  app::TwoPartyConfig config;
  config.seed = 31;
  config.channel = ran::ChannelModel::FadingRadio();
  config.channel.handover_interval = 4s;
  config.channel.handover_duration = 150ms;
  config.uplink_cross_traffic = net::CapacityTrace{12e6};
  config.downlink_cross_traffic = net::CapacityTrace{20e6};
  const TwoPartyPin pin = RunTwoParty(config, 10s);
  ExpectTwoPartyPinned(
      pin, {0xf344e1b2fa42eacdULL, 0x02a1cf23d63ed77fULL, 0x932af38dbcdd9393ULL, 0,
            {4664, 3873, 791, 792, 1, 3372, 550, 8395564,
             959676, 474076, 6961812, 1532, 0, 878, 0},
            {2295, 1955, 340, 341, 0, 0, 0, 1076136,
             1076136, 0, 0, 1625, 0, 0, 0},
            272, 2, 275, 2, 1430, 1331, 194, 194, 39528});
}

TEST(DigestPinTest, TwoPartyLossyChannel) {
  ATHENA_REQUIRE_PINNED_RNG();
  app::TwoPartyConfig config;
  config.seed = 32;
  config.channel.base_bler = 0.6;
  config.channel.rtx_bler_factor = 1.0;
  const TwoPartyPin pin = RunTwoParty(config, 10s);
  EXPECT_GT(pin.down[kDroppedChains], 0u) << "no downlink HARQ chain was dropped";
  ExpectTwoPartyPinned(
      pin, {0x094c85afb39091cfULL, 0x1f421471ec1c9509ULL, 0xc255fa5b5521f927ULL, 0,
            {8615, 4000, 4615, 5120, 502, 6549, 3524, 8962537,
             542966, 201460, 8218111, 1142, 210, 752, 0},
            {2777, 1285, 1492, 1646, 153, 0, 0, 818660,
             818660, 0, 0, 1387, 200, 0, 0},
            220, 2, 221, 2, 1084, 849, 176, 169, 37496});
}

TEST(DigestPinTest, TwoPartyFddLikeCell) {
  ATHENA_REQUIRE_PINNED_RNG();
  app::TwoPartyConfig config;
  config.seed = 33;
  config.cell = ran::RanConfig::FddLikeCell();
  config.channel = ran::ChannelModel::FadingRadio();
  const TwoPartyPin pin = RunTwoParty(config, 10s);
  ExpectTwoPartyPinned(
      pin, {0xdb6b6a084d3cd97dULL, 0x6437b912c5d2118fULL, 0xec20ab2b9a9d3cb7ULL, 0,
            {23046, 19925, 3121, 3127, 3, 19805, 2704, 10677153,
             1173583, 1321672, 8181898, 1716, 0, 2824, 0},
            {3149, 2714, 435, 435, 0, 0, 0, 986790,
             986790, 0, 0, 1556, 0, 0, 0},
            279, 0, 278, 1, 1353, 1511, 199, 199, 120001});
}

// ---------- world ----------

world::WorldConfig PinnedWorld() {
  world::WorldConfig config;
  config.seed = 4321;
  config.ues = 16;
  config.cells = 4;
  config.shards = 2;
  config.threaded = false;
  config.duration = sim::Duration{600ms};
  return config;
}

void ExpectWorldPinned(const world::WorldConfig& config, std::uint64_t want_digest,
                       std::uint64_t want_fleet) {
  world::WorldEngine engine{config};
  const world::WorldResult result = engine.Run();
  ASSERT_TRUE(result.conservation_ok) << result.conservation_error;
  resilience::StateDigest fleet;
  fleet.Mix(result.fleet_json);
  EXPECT_EQ(result.digest, want_digest) << "world digest " << Hex(result.digest);
  EXPECT_EQ(fleet.value(), want_fleet) << "fleet report digest " << Hex(fleet.value());
}

TEST(DigestPinTest, WorldWithHandovers) {
  ATHENA_REQUIRE_PINNED_RNG();
  world::WorldConfig config = PinnedWorld();
  config.handover_every = 3;
  ExpectWorldPinned(config, 0x3f9b27422e08116eULL, 0x2273b8f845345fefULL);
}

TEST(DigestPinTest, WorldWithCellOutage) {
  ATHENA_REQUIRE_PINNED_RNG();
  world::WorldConfig config = PinnedWorld();
  config.outage_cell = 1;
  config.outage_start = sim::TimePoint{sim::Duration{100ms}};
  config.outage_end = sim::TimePoint{sim::Duration{250ms}};
  ExpectWorldPinned(config, 0xb638f1fb566debd2ULL, 0x0cac531f9a75951fULL);
}

TEST(DigestPinTest, WorldSaturatedCell) {
  ATHENA_REQUIRE_PINNED_RNG();
  // Eight UEs in a 1 Mbps cell: most slots run out of budget, so grants
  // queue behind each other and matured requests wait for their turn.
  world::WorldConfig config = PinnedWorld();
  config.ues = 8;
  config.cells = 1;
  config.shards = 1;
  config.cell.cell_ul_capacity_bps = 1e6;
  ExpectWorldPinned(config, 0x96d98ddc61e43bb8ULL, 0x620a4642fcc2469fULL);
}

}  // namespace
}  // namespace athena
