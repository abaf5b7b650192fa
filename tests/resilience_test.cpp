// Resilience-layer tests: checkpoint serialization + rejection of
// malformed snapshots, the restore-equals-uninterrupted determinism
// property across seeds × kill points, watchdog stall detection,
// bounded supervisor retries, the overload governor's priority tiers,
// the trace recorder's byte budget, and the overload detector.
#include <chrono>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "obs/live/detectors.hpp"
#include "obs/trace.hpp"
#include "obs/trace_names.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/overload.hpp"
#include "resilience/supervisor.hpp"
#include "sim/bytes.hpp"
#include "sim/check.hpp"
#include "sim/runner.hpp"
#include "sim/simulator.hpp"

namespace athena {
namespace {

using namespace std::chrono_literals;
using resilience::BoundInput;
using resilience::Checkpoint;
using resilience::CheckpointError;
using resilience::CheckpointingDriver;
using resilience::MemoryBudget;
using resilience::ProcessFaultSpec;
using resilience::RunPlan;
using resilience::Supervisor;
using resilience::SupervisorOptions;
using sim::kEpoch;

RunPlan ShortPlan(std::uint64_t seed) {
  RunPlan plan;
  plan.config.seed = seed;
  plan.duration = 2s;
  plan.checkpoint_every = 250ms;
  return plan;
}

SupervisorOptions FastOptions() {
  SupervisorOptions options;
  options.watchdog = false;
  options.backoff_initial = std::chrono::milliseconds{0};
  return options;
}

// --- the determinism property the whole subsystem exists for ---

TEST(CheckpointRestoreTest, RestoredRunIsByteIdenticalAcrossSeedsAndKillPoints) {
  const std::uint64_t seeds[] = {11, 22, 33};
  const sim::Duration kill_points[] = {600ms, 1000ms, 1500ms};
  for (const std::uint64_t seed : seeds) {
    const RunPlan plan = ShortPlan(seed);
    CheckpointingDriver reference{plan};
    const resilience::RunOutcome uninterrupted = reference.Run();
    ASSERT_GT(uninterrupted.events_executed, 0u);
    ASSERT_GT(uninterrupted.packets_correlated, 0u);

    for (const sim::Duration kill : kill_points) {
      ProcessFaultSpec faults;
      faults.kill_at = kEpoch + kill;
      Supervisor supervisor{plan, FastOptions()};
      const resilience::SupervisedOutcome sup = supervisor.Run(faults);

      ASSERT_TRUE(sup.completed) << "seed " << seed << " kill " << kill.count()
                                 << "us: " << sup.last_error;
      EXPECT_EQ(sup.crashes, 1);
      EXPECT_EQ(sup.restarts, 1);
      EXPECT_TRUE(sup.outcome.restored);
      EXPECT_EQ(sup.outcome.final_digest, uninterrupted.final_digest)
          << "seed " << seed << " kill " << kill.count() << "us";
      EXPECT_EQ(sup.outcome.report_digest, uninterrupted.report_digest);
      EXPECT_EQ(sup.outcome.report, uninterrupted.report);
      EXPECT_EQ(sup.outcome.events_executed, uninterrupted.events_executed);
    }
  }
}

TEST(CheckpointRestoreTest, RestoredRunKeepsCheckpointingOnTheSameGrid) {
  // A run restored at 1s must take its later snapshots at the same
  // absolute boundaries an uninterrupted run does — the grid is anchored
  // at t=0, not at the restore point.
  const RunPlan plan = ShortPlan(7);
  std::vector<sim::TimePoint> uninterrupted_times;
  {
    RunPlan p = plan;
    p.on_checkpoint = [&](const Checkpoint& c) {
      uninterrupted_times.push_back(c.virtual_time);
    };
    (void)CheckpointingDriver{p}.Run();
  }
  ASSERT_GE(uninterrupted_times.size(), 4u);

  ProcessFaultSpec faults;
  faults.kill_at = kEpoch + 1100ms;
  std::vector<sim::TimePoint> supervised_times;
  RunPlan p = plan;
  p.on_checkpoint = [&](const Checkpoint& c) {
    supervised_times.push_back(c.virtual_time);
  };
  Supervisor supervisor{p, FastOptions()};
  ASSERT_TRUE(supervisor.Run(faults).completed);
  // Every boundary the supervised run checkpointed at (before and after
  // the crash) lies on the uninterrupted run's grid.
  for (const sim::TimePoint t : supervised_times) {
    EXPECT_NE(std::find(uninterrupted_times.begin(), uninterrupted_times.end(), t),
              uninterrupted_times.end())
        << "off-grid checkpoint at " << t.us() << "us";
  }
}

// --- serialization: round trip + malformed-input rejection ---

class CheckpointSerializationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RunPlan plan = ShortPlan(5);
    plan.on_checkpoint = [this](const Checkpoint& c) { latest_ = c; };
    (void)CheckpointingDriver{plan}.Run();
    ASSERT_GT(latest_.events_executed, 0u);
    ASSERT_FALSE(latest_.input.telemetry.empty());
    // SerializedBytes counts each record shape: TBs, and captures that are
    // plain or carry RTP or ICMP metadata. A session's three logs hold
    // only RTP captures, so the serialized copy gets a plain record and an
    // ICMP probe (with the digest that covers them); `latest_` stays as
    // the driver took it, a checkpoint its session can replay.
    net::CaptureRecord plain_record;
    plain_record.packet_id = 1ull << 40;
    plain_record.local_ts = latest_.virtual_time;
    plain_record.kind = net::PacketKind::kCrossTraffic;
    net::CaptureRecord probe = plain_record;
    probe.packet_id += 1;
    probe.kind = net::PacketKind::kIcmpEcho;
    probe.meta = net::IcmpMeta{.probe_seq = 7, .echo_sent_at = probe.local_ts};
    stored_ = latest_;
    stored_.input.core.push_back(plain_record);
    stored_.input.receiver.push_back(probe);
    resilience::StateDigest digest;
    digest.Mix(stored_.input);
    stored_.state_digest = digest.value();
    std::size_t plain = 0, rtp = 0, icmp = 0;
    for (const auto* stream :
         {&stored_.input.sender, &stored_.input.core, &stored_.input.receiver}) {
      for (const net::CaptureRecord& r : *stream) {
        plain += std::holds_alternative<std::monostate>(r.meta) ? 1 : 0;
        rtp += r.rtp() != nullptr ? 1 : 0;
        icmp += r.icmp() != nullptr ? 1 : 0;
      }
    }
    ASSERT_GT(plain, 0u);
    ASSERT_GT(rtp, 0u);
    ASSERT_GT(icmp, 0u);
    stored_.Serialize(bytes_);
    ASSERT_EQ(bytes_.size(), stored_.SerializedBytes());
  }

  Checkpoint latest_;                ///< the run's last checkpoint, untouched
  Checkpoint stored_;                ///< latest_ plus a plain and an ICMP capture
  std::vector<std::uint8_t> bytes_;  ///< stored_, serialized
};

TEST_F(CheckpointSerializationTest, RoundTripsEveryField) {
  const Checkpoint back = Checkpoint::Deserialize(bytes_.data(), bytes_.size());
  EXPECT_EQ(back.config_fingerprint, stored_.config_fingerprint);
  EXPECT_EQ(back.seed, stored_.seed);
  EXPECT_EQ(back.planned_duration, stored_.planned_duration);
  EXPECT_EQ(back.virtual_time, stored_.virtual_time);
  EXPECT_EQ(back.events_executed, stored_.events_executed);
  EXPECT_EQ(back.state_digest, stored_.state_digest);
  EXPECT_EQ(back.input.telemetry.size(), stored_.input.telemetry.size());
  EXPECT_EQ(back.input.sender.size(), stored_.input.sender.size());
  EXPECT_EQ(back.input.core.size(), stored_.input.core.size());
  EXPECT_EQ(back.input.receiver.size(), stored_.input.receiver.size());
  EXPECT_EQ(back.input.sender_offset, stored_.input.sender_offset);
  EXPECT_EQ(back.input.receiver_offset, stored_.input.receiver_offset);

  resilience::StateDigest digest;
  digest.Mix(back.input);
  EXPECT_EQ(digest.value(), back.state_digest);
}

TEST_F(CheckpointSerializationTest, RoundTripsThroughAFile) {
  const std::string path = ::testing::TempDir() + "/athena_ckpt_test.bin";
  latest_.WriteFile(path);
  const Checkpoint back = Checkpoint::LoadFile(path);
  EXPECT_EQ(back.state_digest, latest_.state_digest);
  EXPECT_EQ(back.virtual_time, latest_.virtual_time);
}

TEST_F(CheckpointSerializationTest, RejectsTruncation) {
  // Any prefix must be rejected, from the empty file to one missing only
  // the final checksum byte.
  for (const std::size_t size :
       {std::size_t{0}, std::size_t{4}, bytes_.size() / 2, bytes_.size() - 1}) {
    EXPECT_THROW((void)Checkpoint::Deserialize(bytes_.data(), size), CheckpointError)
        << "accepted a " << size << "-byte prefix";
  }
}

TEST_F(CheckpointSerializationTest, RejectsBitFlipsAnywhere) {
  // Magic, header fields, record payload, trailing checksum — a flip in
  // any region must be caught before a single field is trusted.
  for (const std::size_t at : {std::size_t{0}, std::size_t{9}, bytes_.size() / 2,
                               bytes_.size() - 1}) {
    std::vector<std::uint8_t> corrupt = bytes_;
    corrupt[at] ^= 0x40;
    EXPECT_THROW((void)Checkpoint::Deserialize(corrupt.data(), corrupt.size()),
                 CheckpointError)
        << "accepted a bit flip at offset " << at;
  }
}

TEST_F(CheckpointSerializationTest, RejectsTrailingGarbage) {
  std::vector<std::uint8_t> padded = bytes_;
  padded.push_back(0);
  EXPECT_THROW((void)Checkpoint::Deserialize(padded.data(), padded.size()),
               CheckpointError);
}

TEST_F(CheckpointSerializationTest, RefusesAVersion1Frame) {
  // A sealed frame that says version 1, the format whose captures kept
  // their ground-truth time: it is refused for its version, not for its
  // checksum.
  std::vector<std::uint8_t> v1(bytes_.begin(), bytes_.end() - 8);
  ASSERT_EQ(v1[8], Checkpoint::kVersion);  // the u32 after the magic
  v1[8] = 1;
  sim::ByteWriter{v1}.SealFrame();
  try {
    (void)Checkpoint::Deserialize(v1.data(), v1.size());
    ADD_FAILURE() << "a version-1 checkpoint was accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string{e.what()}.find("unsupported version 1"), std::string::npos)
        << e.what();
  }
}

TEST_F(CheckpointSerializationTest, RefusesToResumeUnderADifferentPlan) {
  // Under its own plan the checkpoint resumes, so each refusal below is
  // the plan check's doing, not a replay that fails to match.
  EXPECT_NO_THROW((void)CheckpointingDriver{ShortPlan(5)}.Resume(latest_));

  // Same bytes, different seed: the replay would silently diverge, so
  // Resume must refuse up front.
  CheckpointingDriver other{ShortPlan(6)};
  EXPECT_THROW((void)other.Resume(latest_), CheckpointError);

  RunPlan longer = ShortPlan(5);
  longer.duration = 3s;
  CheckpointingDriver wrong_duration{longer};
  EXPECT_THROW((void)wrong_duration.Resume(latest_), CheckpointError);
}

// --- supervision: stalls, retry budgets, contained check violations ---

TEST(SupervisorTest, WatchdogCancelsALivelockedRun) {
  // An event that reschedules itself at its own timestamp freezes
  // virtual time while the event counter spins — the exact signature the
  // watchdog watches for. The bomb is re-planted on every attempt, so
  // the supervisor must eventually give up, honestly.
  RunPlan plan = ShortPlan(3);
  plan.on_simulator = [](sim::Simulator& sim) {
    struct Bomb {
      static void Plant(sim::Simulator& s, sim::TimePoint at) {
        s.ScheduleAt(at, [&s, at] { Plant(s, at); });
      }
    };
    Bomb::Plant(sim, kEpoch + 100ms);
  };
  SupervisorOptions options;
  options.watchdog = true;
  options.stall_timeout = std::chrono::milliseconds{50};
  options.max_restarts = 1;
  options.backoff_initial = std::chrono::milliseconds{0};
  Supervisor supervisor{plan, options};
  const resilience::SupervisedOutcome sup = supervisor.Run();
  EXPECT_FALSE(sup.completed);
  EXPECT_TRUE(sup.gave_up);
  EXPECT_EQ(sup.stalls, 2);  // initial attempt + one restart, both stalled
  EXPECT_EQ(sup.crashes, 0);
}

TEST(SupervisorTest, RetryBudgetBoundsACrashLoop) {
  // A kill every N events fires again after every restore: with a large
  // kill budget the run can never finish, and the supervisor must stop
  // at max_restarts instead of looping forever.
  ProcessFaultSpec faults;
  faults.kill_every_events = 400;
  faults.max_kills = 100;
  SupervisorOptions options = FastOptions();
  options.max_restarts = 2;
  Supervisor supervisor{ShortPlan(4), options};
  const resilience::SupervisedOutcome sup = supervisor.Run(faults);
  EXPECT_FALSE(sup.completed);
  EXPECT_TRUE(sup.gave_up);
  EXPECT_EQ(sup.crashes, 3);  // initial attempt + two restarts
  EXPECT_EQ(sup.restarts, 2);
}

TEST(SupervisorTest, ExhaustedKillBudgetLetsTheRunComplete) {
  // max_kills = 2 with a per-event kill cadence: two attempts die, the
  // third sails through and must still match the uninterrupted digest.
  const RunPlan plan = ShortPlan(9);
  const resilience::RunOutcome uninterrupted = CheckpointingDriver{plan}.Run();

  ProcessFaultSpec faults;
  faults.kill_every_events = 700;
  faults.max_kills = 2;
  Supervisor supervisor{plan, FastOptions()};
  const resilience::SupervisedOutcome sup = supervisor.Run(faults);
  ASSERT_TRUE(sup.completed) << sup.last_error;
  EXPECT_EQ(sup.crashes, 2);
  EXPECT_EQ(sup.outcome.final_digest, uninterrupted.final_digest);
}

TEST(ParallelRunnerTest, PoisonedRunIsAFailedRunNotAProcessKill) {
  // An ATHENA_CHECK violation inside one sweep worker must surface as
  // that run's exception after the join — the sibling runs complete and
  // the process survives.
  const sim::ParallelRunner runner{4};
  std::atomic<int> completed{0};
  EXPECT_THROW(runner.ForEach(8,
                              [&](std::size_t i) {
                                ATHENA_CHECK(i != 5, "poisoned run");
                                completed.fetch_add(1);
                              }),
               sim::CheckViolation);
  EXPECT_EQ(completed.load(), 7);
}

// --- overload governor ---

core::CorrelatorLogs MakeOverloadInput() {
  core::CorrelatorLogs input;
  for (std::size_t i = 0; i < 150; ++i) {
    ran::TbRecord tb;
    tb.tb_id = i + 1;
    tb.slot_time = kEpoch + i * 2500us;
    tb.tbs_bytes = 1500;
    tb.used_bytes = i < 100 ? 1200 : 0;  // last 50 are padding-only
    input.telemetry.push_back(tb);
  }
  for (std::size_t i = 0; i < 150; ++i) {
    net::CaptureRecord r;
    r.packet_id = i + 1;
    r.local_ts = kEpoch + i * 1ms;
    r.size_bytes = 1200;
    if (i >= 100) {  // last 50 are ICMP probes
      r.meta = net::IcmpMeta{.probe_seq = static_cast<std::uint32_t>(i),
                             .echo_sent_at = r.local_ts};
    } else {
      r.meta = net::RtpMeta{.seq = static_cast<std::uint16_t>(i)};
    }
    input.core.push_back(r);
  }
  return input;
}

// The governor charges each capture record a fixed 112 B, whatever the
// record's in-memory size, so a budget sheds the same records as ever.
TEST(OverloadGovernorTest, ChargesEachCaptureRecordAFixedUnit) {
  const core::CorrelatorLogs input = MakeOverloadInput();
  EXPECT_EQ(resilience::kCaptureRecordCharge, 112u);
  EXPECT_EQ(resilience::InputBytes(input),
            150 * sizeof(ran::TbRecord) + 150 * resilience::kCaptureRecordCharge);
}

TEST(OverloadGovernorTest, UnboundedBudgetShedsNothing) {
  core::CorrelatorLogs input = MakeOverloadInput();
  const std::size_t before = resilience::InputBytes(input);
  const resilience::ShedStats stats = BoundInput(input, MemoryBudget{});
  EXPECT_EQ(stats.total(), 0u);
  EXPECT_EQ(resilience::InputBytes(input), before);
}

TEST(OverloadGovernorTest, ShedsIcmpBeforeTouchingData) {
  core::CorrelatorLogs input = MakeOverloadInput();
  const std::size_t icmp_bytes = 50 * resilience::kCaptureRecordCharge;
  MemoryBudget budget;
  budget.input_bytes = resilience::InputBytes(input) - icmp_bytes / 2;
  const resilience::ShedStats stats = BoundInput(input, budget);
  EXPECT_EQ(stats.icmp_shed, 50u);
  EXPECT_EQ(stats.padding_tb_shed, 0u);
  EXPECT_EQ(stats.capped(), 0u);
  EXPECT_LE(resilience::InputBytes(input), budget.input_bytes);
  EXPECT_EQ(input.core.size(), 100u);  // every data record survived
  EXPECT_EQ(input.telemetry.size(), 150u);
}

TEST(OverloadGovernorTest, HardCapEngagesLastAndFitsTheBudget) {
  core::CorrelatorLogs input = MakeOverloadInput();
  MemoryBudget budget;
  budget.input_bytes = 12'000;  // below what tiers 2-3 can free
  const resilience::ShedStats stats = BoundInput(input, budget);
  EXPECT_EQ(stats.icmp_shed, 50u);
  EXPECT_EQ(stats.padding_tb_shed, 50u);
  EXPECT_GT(stats.capped(), 0u);
  EXPECT_LE(resilience::InputBytes(input), budget.input_bytes);
  // The cap drops the newest records: the surviving history is a
  // contiguous prefix from t=0.
  ASSERT_FALSE(input.telemetry.empty());
  EXPECT_EQ(input.telemetry.front().slot_time, kEpoch);
}

TEST(TraceRecorderBudgetTest, LowPriorityEventsAreShedAtTheBudget) {
  obs::TraceRecorder recorder;
  recorder.set_byte_budget(2 * 256 * sizeof(obs::TraceEvent));  // two chunks
  ASSERT_EQ(recorder.byte_budget(), 2 * 256 * sizeof(obs::TraceEvent));

  obs::TraceEvent low;
  low.phase = obs::TraceEvent::Phase::kCounter;
  low.name = obs::names::kSimQueueDepth.id;
  for (int i = 0; i < 600; ++i) recorder.Emit(low);

  EXPECT_EQ(recorder.size(), 512u);  // saturated at the budget
  EXPECT_EQ(recorder.shed_low_priority(), 600u - 512u);
  EXPECT_EQ(recorder.chunks_evicted(), 0u);
  EXPECT_LE(recorder.buffered_bytes(), recorder.byte_budget());

  // Critical events still land: the oldest chunk is evicted to make room.
  obs::TraceEvent critical;
  critical.phase = obs::TraceEvent::Phase::kInstant;
  critical.name = obs::names::kTbTx.id;
  recorder.Emit(critical);
  EXPECT_EQ(recorder.chunks_evicted(), 1u);
  EXPECT_LE(recorder.buffered_bytes(), recorder.byte_budget());
}

TEST(TraceRecorderBudgetTest, ZeroBudgetMeansUnbounded) {
  obs::TraceRecorder recorder;
  obs::TraceEvent low;
  low.name = obs::names::kSimQueueDepth.id;
  for (int i = 0; i < 2000; ++i) recorder.Emit(low);
  EXPECT_EQ(recorder.size(), 2000u);
  EXPECT_EQ(recorder.shed_low_priority(), 0u);
}

TEST(OverloadDetectorTest, FiresOnShedGrowthAndStaysQuietOtherwise) {
  obs::live::DetectorBank bank;
  EXPECT_EQ(bank.anomaly_count(obs::live::AnomalyKind::kOverload), 0u);

  bank.OnShed({.t = kEpoch + 100ms, .shed_total = 40.0, .shed_capped = 0.0});
  EXPECT_EQ(bank.anomaly_count(obs::live::AnomalyKind::kOverload), 1u);

  // No growth → no new anomaly, even past the emission cooldown.
  bank.OnShed({.t = kEpoch + 700ms, .shed_total = 40.0, .shed_capped = 0.0});
  EXPECT_EQ(bank.anomaly_count(obs::live::AnomalyKind::kOverload), 1u);

  // Growth, now with hard-capped data records → fires again.
  bank.OnShed({.t = kEpoch + 1400ms, .shed_total = 90.0, .shed_capped = 10.0});
  EXPECT_EQ(bank.anomaly_count(obs::live::AnomalyKind::kOverload), 2u);
}

}  // namespace
}  // namespace athena
