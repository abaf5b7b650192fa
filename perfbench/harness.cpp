// Benchmark harness: runs one workload as a closed loop for a wall-clock
// budget, checks every output against in-run oracles, and writes the raw
// timings, per-layer values and spans as one JSON document. run.py turns
// that document into the benchmark's metrics; see README.md.
//
//   perfbench_harness --workload diagnosed_call --seed 42 --seconds 30
//                     --trace 0 --out result.json
//
// With --trace 1 the reps alternate untraced and traced. A traced rep
// installs the public seams (a timing wrapper around the grant policy and
// the rate controller, a counting trace sink, kernel profiling, the
// world's window hook) and records spans around each call into a layer.
// Its outputs must equal the untraced reps' outputs.
//
// Exit codes: 0 ran (the document says whether every check held),
// 2 bad arguments, 3 the workload threw.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "app/session.hpp"
#include "bench_util.hpp"
#include "core/analyzer.hpp"
#include "core/correlator.hpp"
#include "core/report.hpp"
#include "fault/chaos.hpp"
#include "obs/fleet/aggregate.hpp"
#include "obs/fleet/report.hpp"
#include "obs/fleet/slo.hpp"
#include "obs/fleet/summary.hpp"
#include "obs/live/health.hpp"
#include "obs/obs.hpp"
#include "ran/grant_policy.hpp"
#include "sim/runner.hpp"
#include "sim/simulator.hpp"
#include "world/engine.hpp"

namespace athena::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
double SecondsSince(Clock::time_point t0) { return SecondsBetween(t0, Clock::now()); }

// ------------------------------------------------------------------ spans

/// In-memory span log. Spans open and close on the main thread only, so
/// the stack of open spans gives each new span its parent. An aggregate
/// books the summed time of many short calls (a timing wrapper's total)
/// as a child of the innermost open span; run.py subtracts it from that
/// span's self time.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string layer;
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;
    int rep = -1;
  };
  struct Aggregate {
    std::string name;
    std::string layer;
    int parent = -1;
    int rep = -1;
    double total_s = 0.0;
    std::uint64_t calls = 0;
  };

  /// Opens a span for its lifetime; inert while the tracer is disabled.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, std::string layer, int rep)
        : tracer_(tracer.enabled_ ? &tracer : nullptr) {
      if (tracer_ != nullptr) index_ = tracer_->Open(std::move(name), std::move(layer), rep);
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->Close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  Tracer() : epoch_(Clock::now()) {}

  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// A span whose interval was measured elsewhere (window-hook stamps).
  void AddSpan(std::string name, std::string layer, Clock::time_point start,
               Clock::time_point end, int rep) {
    if (!enabled_) return;
    spans_.push_back(Span{std::move(name), std::move(layer), start, end, Parent(), rep});
  }

  void AddAggregate(std::string name, std::string layer, int rep, double total_s,
                    std::uint64_t calls) {
    if (!enabled_) return;
    aggregates_.push_back(Aggregate{std::move(name), std::move(layer), Parent(), rep,
                                    total_s, calls});
  }

  [[nodiscard]] Clock::time_point epoch() const { return epoch_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const std::vector<Aggregate>& aggregates() const { return aggregates_; }

 private:
  [[nodiscard]] int Parent() const { return stack_.empty() ? -1 : stack_.back(); }

  int Open(std::string name, std::string layer, int rep) {
    const int index = static_cast<int>(spans_.size());
    spans_.push_back(Span{std::move(name), std::move(layer), Clock::now(), {}, Parent(), rep});
    stack_.push_back(index);
    return index;
  }

  void Close(int index) {
    spans_[static_cast<std::size_t>(index)].end = Clock::now();
    stack_.pop_back();
  }

  Clock::time_point epoch_;
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<Aggregate> aggregates_;
  std::vector<int> stack_;
};

// ------------------------------------------------------------------ seams

/// Call count and summed wall time of one wrapped interface.
struct CallTimer {
  std::uint64_t calls = 0;
  std::int64_t ns = 0;

  void Add(Clock::time_point t0) {
    ++calls;
    ns += std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count();
  }
  [[nodiscard]] double seconds() const { return static_cast<double>(ns) * 1e-9; }
  [[nodiscard]] double ns_per_call() const {
    return calls == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(calls);
  }
};

/// Times every call into the session's grant policy, installed through
/// SessionConfig::grant_policy around the default BsrGrantPolicy.
class TimedGrantPolicy final : public ran::GrantPolicy {
 public:
  TimedGrantPolicy(std::unique_ptr<ran::GrantPolicy> inner, CallTimer& timer)
      : inner_(std::move(inner)), timer_(timer) {}

  Decision OnUplinkSlot(const SlotInfo& slot) override {
    const auto t0 = Clock::now();
    const Decision decision = inner_->OnUplinkSlot(slot);
    timer_.Add(t0);
    return decision;
  }
  void OnBsrDecoded(sim::TimePoint decoded_at, std::uint32_t reported_bytes) override {
    const auto t0 = Clock::now();
    inner_->OnBsrDecoded(decoded_at, reported_bytes);
    timer_.Add(t0);
  }
  void OnTbFilled(sim::TimePoint slot_time, const Decision& grant,
                  std::uint32_t used_bytes) override {
    const auto t0 = Clock::now();
    inner_->OnTbFilled(slot_time, grant, used_bytes);
    timer_.Add(t0);
  }

 private:
  std::unique_ptr<ran::GrantPolicy> inner_;
  CallTimer& timer_;
};

/// Times the rate controller's feedback path, installed through
/// SessionConfig::controller_factory around GccController(config.gcc).
class TimedController final : public app::RateController {
 public:
  TimedController(std::unique_ptr<app::RateController> inner, CallTimer& timer)
      : inner_(std::move(inner)), timer_(timer) {}

  double OnFeedback(std::span<const rtp::PacketReport> reports, sim::TimePoint now) override {
    const auto t0 = Clock::now();
    const double target = inner_->OnFeedback(reports, now);
    timer_.Add(t0);
    return target;
  }
  void OnPacketSent(const net::Packet& p, sim::TimePoint now) override {
    inner_->OnPacketSent(p, now);
  }
  [[nodiscard]] double target_bps() const override { return inner_->target_bps(); }

 private:
  std::unique_ptr<app::RateController> inner_;
  CallTimer& timer_;
};

/// Counts trace emits per obs::Layer; joins a session through
/// ObsSession::Options::extra_sink.
class CountingSink final : public obs::TraceSink {
 public:
  void Emit(const obs::TraceEvent& event) override {
    ++counts_[static_cast<std::size_t>(event.layer)];
  }
  void EmitBatch(const obs::TraceEvent* events, std::size_t count) override {
    for (std::size_t i = 0; i < count; ++i) Emit(events[i]);
  }
  [[nodiscard]] std::uint64_t count(obs::Layer layer) const {
    return counts_[static_cast<std::size_t>(layer)];
  }

 private:
  std::array<std::uint64_t, obs::kLayerCount> counts_{};
};

// ------------------------------------------------------------ bookkeeping

using Values = std::map<std::string, double>;

/// One timed closed-loop job.
struct Rep {
  bool warmup = false;
  bool traced = false;
  double wall_s = 0.0;
  double setup_s = 0.0;
  double session_s_per_s = 0.0;
  double explain_pkts_per_s = 0.0;
  Values layer;  ///< per-layer values (traced reps), plus app.run_s
};

/// Output checks, grouped by operation. Begin(n) opens a group of n
/// operations (one call or world, or n chaos runs); a failed Expect fails
/// the whole group and FailSome(k) k of its operations. run.py counts
/// attempted and failed operations from the groups.
class Checks {
 public:
  struct Group {
    std::uint64_t operations = 0;
    bool all_failed = false;
    std::uint64_t some_failed = 0;
  };

  void Begin(std::uint64_t operations = 1) { groups_.push_back(Group{operations}); }
  void Expect(bool ok, const std::string& what) {
    if (ok) return;
    groups_.back().all_failed = true;
    Note(what);
  }
  void FailSome(std::uint64_t n, const std::string& what) {
    if (n == 0) return;
    groups_.back().some_failed += n;
    Note(what);
  }
  [[nodiscard]] const std::vector<Group>& groups() const { return groups_; }
  [[nodiscard]] const std::vector<std::string>& messages() const { return messages_; }

 private:
  void Note(const std::string& what) {
    if (messages_.size() < 20) messages_.push_back(what);
  }

  std::vector<Group> groups_;
  std::vector<std::string> messages_;
};

struct Run {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string out_path;

  Tracer tracer;
  Checks checks;
  std::vector<Rep> reps;
  Values oracle;  ///< run-level values measured outside the timed reps
  std::map<std::string, std::vector<double>> series;
};

/// Runs `body(rep, traced)` closed-loop. Rep 0 warms caches, the allocator
/// and the worker pools and is left out of the metrics. `oracles` then
/// runs once, warm and untimed: it computes the reference outputs and
/// checks rep 0's against them; every later rep is checked against the
/// references as it finishes. The timed reps follow until `seconds` of
/// wall time have passed: at least 3 untraced, or 2 + 2 alternating when
/// tracing.
void ClosedLoop(Run& run, const std::function<Rep(int, bool)>& body,
                const std::function<void()>& oracles) {
  Rep warmup = body(0, false);
  warmup.warmup = true;
  run.reps.push_back(std::move(warmup));
  run.tracer.set_enabled(run.trace);
  oracles();
  const int min_reps = run.trace ? 4 : 3;
  const auto t0 = Clock::now();
  for (int rep = 1; rep <= min_reps || SecondsSince(t0) < run.seconds; ++rep) {
    const bool traced = run.trace && rep % 2 == 0;
    run.tracer.set_enabled(traced);
    Rep r = body(rep, traced);
    r.traced = traced;
    run.reps.push_back(std::move(r));
  }
  run.tracer.set_enabled(false);
}

std::string RepTag(int rep, bool traced) {
  return std::string{traced ? "traced" : "untraced"} + " rep " + std::to_string(rep);
}

// ------------------------------------------------------- diagnosed_call

constexpr auto kCallLength = std::chrono::minutes{20};

struct CallText {
  std::string health;  ///< HealthReport::Render
  std::string report;  ///< core::Report::Render
};

/// The call without observability, seams or timing: the reference report.
std::pair<std::string, double> CallOracle(std::uint64_t seed) {
  sim::Simulator simulator;
  app::Session session{simulator, bench::PaperWorkload(seed)};
  const auto r0 = Clock::now();
  session.Run(kCallLength);
  const double run_s = SecondsSince(r0);
  const auto data = core::Correlator::Correlate(session.BuildCorrelatorInput());
  std::ostringstream report;
  core::Report::Render(report, {.dataset = &data,
                                .qoe = &session.qoe(),
                                .ran_counters = &session.ran_uplink()->counters(),
                                .controller_target_bps = session.sender().controller().target_bps()});
  return {report.str(), run_s};
}

void CheckCall(Checks& checks, const app::Session& session, const core::CrossLayerDataset& data,
               const std::string& tag) {
  std::vector<net::PacketId> ids;
  ids.reserve(data.packets.size());
  for (const auto& p : data.packets) ids.push_back(p.packet_id);
  std::sort(ids.begin(), ids.end());
  std::size_t missing = 0;
  for (const auto& rec : session.sender_capture().records()) {
    if (!std::binary_search(ids.begin(), ids.end(), rec.packet_id)) ++missing;
  }
  checks.Expect(missing == 0, tag + ": " + std::to_string(missing) +
                                  " sender-captured packets missing from the dataset");
  checks.Expect(data.unmatched_tb_bytes == 0,
                tag + ": unmatched_tb_bytes = " + std::to_string(data.unmatched_tb_bytes));
  checks.Expect(data.health.uncovered_packets == 0,
                tag + ": uncovered_packets = " + std::to_string(data.health.uncovered_packets));
  checks.Expect(!data.health.phantom_capacity, tag + ": phantom capacity flagged");
  checks.Expect(data.health.telemetry.duplicates_dropped == 0 &&
                    data.health.telemetry.out_of_order == 0,
                tag + ": telemetry stream had duplicates or reordering");
  using namespace std::chrono_literals;
  const double on_grid = core::Analyzer::SpreadGridFraction(data, 2500us, 100us);
  checks.Expect(on_grid >= 0.99,
                tag + ": SpreadGridFraction(2.5 ms) = " + std::to_string(on_grid));
}

void RunDiagnosedCall(Run& run) {
  Tracer& tracer = run.tracer;
  std::optional<CallText> first;
  std::string reference_report;  ///< the call without observability

  const auto body = [&](int rep, bool traced) {
    Rep r;
    Tracer::Scope rep_span{tracer, "diagnosed_call.rep", "bench", rep};
    CallTimer grant_timer;
    CallTimer feedback_timer;
    CountingSink counting;

    const auto t0 = Clock::now();
    std::optional<Tracer::Scope> setup_span;
    setup_span.emplace(tracer, "setup", "app", rep);
    sim::Simulator simulator;
    obs::ObsSession::Options options;
    options.trace = false;
    options.metrics = true;
    options.live = true;
    options.profile_sim = traced;
    options.extra_sink = traced ? &counting : nullptr;
    obs::ObsSession observability{simulator, options};
    app::SessionConfig config = bench::PaperWorkload(run.seed);
    if (traced) {
      config.grant_policy = [&grant_timer](const ran::RanConfig& cell) {
        return std::make_unique<TimedGrantPolicy>(std::make_unique<ran::BsrGrantPolicy>(cell),
                                                  grant_timer);
      };
      config.controller_factory = [&feedback_timer, gcc = config.gcc] {
        return std::make_unique<TimedController>(std::make_unique<app::GccController>(gcc),
                                                 feedback_timer);
      };
    }
    app::Session session{simulator, std::move(config)};
    r.setup_s = SecondsSince(t0);
    setup_span.reset();

    double run_s = 0.0;
    {
      Tracer::Scope span{tracer, "app.Session::Run", "app", rep};
      const auto r0 = Clock::now();
      session.Run(kCallLength);
      run_s = SecondsSince(r0);
      tracer.AddAggregate("ran.GrantPolicy", "ran", rep, grant_timer.seconds(),
                          grant_timer.calls);
      tracer.AddAggregate("cc.RateController::OnFeedback", "cc", rep,
                          feedback_timer.seconds(), feedback_timer.calls);
    }

    CallText text;
    double health_s = 0.0;
    std::uint64_t anomalies = 0;
    {
      Tracer::Scope span{tracer, "obs.HealthReport", "obs", rep};
      const auto h0 = Clock::now();
      const auto health = obs::live::HealthReport::Build(*observability.live());
      std::ostringstream os;
      health.Render(os);
      text.health = os.str();
      anomalies = health.anomalies_total;
      health_s = SecondsSince(h0);
    }

    const auto e0 = Clock::now();
    core::CorrelatorInput input;
    double clock_sync_s = 0.0;
    {
      Tracer::Scope span{tracer, "core.BuildCorrelatorInput", "core", rep};
      const auto c0 = Clock::now();
      input = session.BuildCorrelatorInput();
      clock_sync_s = SecondsSince(c0);
    }
    core::CrossLayerDataset data;
    double correlate_s = 0.0;
    {
      Tracer::Scope span{tracer, "core.Correlate", "core", rep};
      const auto c0 = Clock::now();
      data = core::Correlator::Correlate(input);
      correlate_s = SecondsSince(c0);
    }
    double report_s = 0.0;
    {
      Tracer::Scope span{tracer, "core.Report::Render", "core", rep};
      const auto c0 = Clock::now();
      std::ostringstream os;
      core::Report::Render(
          os, {.dataset = &data,
               .qoe = &session.qoe(),
               .ran_counters = &session.ran_uplink()->counters(),
               .controller_target_bps = session.sender().controller().target_bps()});
      text.report = os.str();
      report_s = SecondsSince(c0);
    }
    double summarize_s = 0.0;
    bool summary_valid = false;
    {
      Tracer::Scope span{tracer, "fleet.SummarizeSession", "obs/fleet", rep};
      const auto c0 = Clock::now();
      const auto summary = obs::fleet::SummarizeSession({.dataset = &data,
                                                         .qoe = &session.qoe(),
                                                         .detectors = &observability.live()->bank(),
                                                         .scenario = "diagnosed_call",
                                                         .seed = run.seed});
      summarize_s = SecondsSince(c0);
      summary_valid = summary.valid;
    }
    const double explain_s = SecondsSince(e0);
    r.wall_s = SecondsSince(t0);

    const double packets = static_cast<double>(data.packets.size());
    r.session_s_per_s = std::chrono::duration<double>(kCallLength).count() / r.wall_s;
    r.explain_pkts_per_s = packets / explain_s;
    r.layer["app.run_s"] = run_s;

    // Output checks, outside the timed interval.
    Checks& checks = run.checks;
    checks.Begin();
    const std::string tag = RepTag(rep, traced);
    CheckCall(checks, session, data, tag);
    checks.Expect(summary_valid, tag + ": SummarizeSession returned an invalid summary");
    if (first) {
      checks.Expect(text.health == first->health, tag + ": health report differs from rep 0");
      checks.Expect(text.report == reference_report,
                    tag + ": report differs from the call without observability");
    } else {
      first = text;
    }

    if (traced) {
      const sim::SimProfile& p = simulator.profile();
      const double events = static_cast<double>(simulator.events_executed());
      const double callback_s = p.mean_callback_ns() * static_cast<double>(p.events) * 1e-9;
      const auto& counters = session.ran_uplink()->counters();
      double tb_used = 0.0;
      for (const auto& tb : input.telemetry) {
        if (tb.harq_round == 0) tb_used += tb.used_bytes;
      }
      double captures = 0.0;
      for (const net::CapturePoint* cp :
           {&session.sender_capture(), &session.core_capture(), &session.sfu_in_capture(),
            &session.sfu_out_capture(), &session.receiver_capture()}) {
        captures += static_cast<double>(cp->count());
      }
      Values& v = r.layer;
      v["sim.events"] = events;
      v["sim.events_per_s"] = events / run_s;
      v["sim.dispatch_frac"] =
          p.run_wall_seconds > 0.0 ? 1.0 - callback_s / p.run_wall_seconds : 0.0;
      v["sim.queue_high_water"] = static_cast<double>(p.queue_high_water);
      v["ran.tbs"] = static_cast<double>(session.ran_uplink()->telemetry().size());
      v["ran.grant_calls"] = static_cast<double>(grant_timer.calls);
      v["ran.grant_ns_per_call"] = grant_timer.ns_per_call();
      v["ran.grant_utilization"] = counters.GrantUtilization();
      v["cc.feedback_calls"] = static_cast<double>(feedback_timer.calls);
      v["cc.ns_per_feedback"] = feedback_timer.ns_per_call();
      v["app.other_s"] = run_s - grant_timer.seconds() - feedback_timer.seconds();
      v["net.capture_records"] = captures;
      v["media.frames"] = static_cast<double>(data.frames.size());
      for (std::size_t l = 0; l < obs::kLayerCount; ++l) {
        const auto layer = static_cast<obs::Layer>(l);
        v[std::string{"obs.emits."} + obs::ToString(layer)] =
            static_cast<double>(counting.count(layer));
      }
      v["obs.live.anomalies"] = static_cast<double>(anomalies);
      v["obs.health_report_s"] = health_s;
      v["core.clock_sync_s"] = clock_sync_s;
      v["core.correlate_s"] = correlate_s;
      v["core.correlate_pkts_per_s"] = packets / correlate_s;
      v["core.report_s"] = report_s;
      v["core.tb_records"] = static_cast<double>(input.telemetry.size());
      v["core.packets"] = packets;
      v["core.matched_tb_byte_frac"] =
          tb_used > 0.0 ? 1.0 - static_cast<double>(data.unmatched_tb_bytes) / tb_used : 0.0;
      v["fleet.summarize_s"] = summarize_s;
    }
    return r;
  };

  ClosedLoop(run, body, [&] {
    Tracer::Scope span{tracer, "oracle.call_without_obs", "bench", -1};
    double run_s = 0.0;
    std::tie(reference_report, run_s) = CallOracle(run.seed);
    run.oracle["app.run_s_without_obs"] = run_s;
    run.checks.Begin();
    run.checks.Expect(first->report == reference_report,
                      "rep 0: report differs from the call without observability");
  });
}

// ------------------------------------------------------------- world_512

/// One world in three layouts. The timed reps step 2 shards one after the
/// other in each window: with threads, rep times on a 4-vCPU guest swung
/// by 2x with the host's load (barrier stalls), too much for a bounded
/// metric. The threaded probe runs the same 2 shards on 2 threads with
/// the window barriers; the oracle is 1 shard.
enum class Layout { kOracle, kSequential, kThreaded };

world::WorldConfig WorldWorkload(std::uint64_t seed, Layout layout) {
  world::WorldConfig config;
  config.seed = seed;
  config.ues = 512;
  config.cells = 8;
  config.handover_every = 16;
  config.duration = std::chrono::seconds{2};
  config.shards = layout == Layout::kOracle ? 1 : 2;
  config.threaded = layout == Layout::kThreaded;
  config.correlate_jobs = layout == Layout::kOracle ? 1 : 2;
  return config;
}

void CheckWorld(Checks& checks, const world::WorldResult& result,
                const world::WorldResult& reference, const std::string& tag) {
  checks.Expect(result.conservation_ok,
                tag + ": conservation failed: " + result.conservation_error);
  checks.Expect(result.report.sessions == 512, tag + ": fleet report lost sessions");
  checks.Expect(result.digest == reference.digest, tag + ": digest differs");
  checks.Expect(result.fleet_json == reference.fleet_json, tag + ": fleet_json differs");
}

/// Packets the fan-out correlated: per-packet uplink OWD samples.
double WorldPackets(const world::WorldResult& result) {
  const auto it = result.report.fleet.metrics.find("uplink_owd_ms");
  return it == result.report.fleet.metrics.end() ? 0.0 : static_cast<double>(it->second.count);
}

void RunWorld(Run& run) {
  Tracer& tracer = run.tracer;
  std::optional<world::WorldResult> first;
  world::WorldResult oracle;

  const auto body = [&](int rep, bool traced) {
    Rep r;
    Tracer::Scope rep_span{tracer, "world_512.rep", "bench", rep};
    std::vector<Clock::time_point> stamps;

    const auto t0 = Clock::now();
    std::optional<world::WorldEngine> engine;
    {
      Tracer::Scope span{tracer, "setup", "world", rep};
      engine.emplace(WorldWorkload(run.seed, Layout::kSequential));
    }
    r.setup_s = SecondsSince(t0);
    if (traced) {
      stamps.reserve(engine->config().duration / engine->config().link_latency + 1);
      engine->set_window_hook([&stamps](std::uint64_t) { stamps.push_back(Clock::now()); });
    }
    world::WorldResult result;
    Clock::time_point r0;
    Clock::time_point r1;
    {
      Tracer::Scope span{tracer, "world.WorldEngine::Run", "world", rep};
      r0 = Clock::now();
      result = engine->Run();
      r1 = Clock::now();
      for (std::size_t k = 1; k < stamps.size(); ++k) {
        tracer.AddSpan("world.window", "world", stamps[k - 1], stamps[k], rep);
      }
    }
    r.wall_s = SecondsSince(t0);
    const double run_s = SecondsBetween(r0, r1);
    const double ue_seconds = static_cast<double>(result.report.sessions) *
                              std::chrono::duration<double>(engine->config().duration).count();
    r.session_s_per_s = ue_seconds / r.wall_s;
    r.explain_pkts_per_s = WorldPackets(result) / (run_s - result.wall_seconds);
    r.layer["app.run_s"] = result.wall_seconds;

    run.checks.Begin();
    CheckWorld(run.checks, result, first ? oracle : result, RepTag(rep, traced));

    if (traced) {
      Values& v = r.layer;
      const double loop = result.wall_seconds;
      const double post = stamps.empty() ? 0.0 : SecondsBetween(stamps.back(), r1);
      v["world.window_loop_s"] = loop;
      v["world.busy_s"] = result.busy_seconds;
      v["world.critical_path_s"] = result.critical_path_seconds;
      v["world.imbalance"] = result.critical_path_seconds *
                             static_cast<double>(result.shards) / result.busy_seconds;
      v["world.post_run_s"] = post;
      v["world.build_s"] = run_s - loop - post;
      v["world.windows"] = static_cast<double>(result.windows);
      v["world.mailbox_msgs"] = static_cast<double>(result.messages_delivered);
      v["world.handovers"] = static_cast<double>(result.handovers);
      v["world.modeled_speedup"] = oracle.busy_seconds / result.critical_path_seconds;
      v["sim.events"] = static_cast<double>(result.events_executed);
      v["sim.events_per_s"] = static_cast<double>(result.events_executed) / loop;
      auto& windows = run.series["world.window_ms"];
      for (std::size_t k = 1; k < stamps.size(); ++k) {
        windows.push_back(SecondsBetween(stamps[k - 1], stamps[k]) * 1e3);
      }
    }
    if (!first) first = std::move(result);
    return r;
  };

  ClosedLoop(run, body, [&] {
    {
      Tracer::Scope span{tracer, "oracle.world_1_shard", "bench", -1};
      world::WorldEngine engine{WorldWorkload(run.seed, Layout::kOracle)};
      oracle = engine.Run();
    }
    run.checks.Begin();
    CheckWorld(run.checks, *first, oracle, "rep 0 vs the 1-shard oracle");
    // The threaded probe: checked like a rep, and the source of the
    // barrier-stall and measured-speedup metrics of the traced run.
    for (int probe = 0; probe < (run.trace ? 3 : 1); ++probe) {
      Tracer::Scope span{tracer, "probe.world_2_shards_threaded", "bench", -1};
      world::WorldEngine engine{WorldWorkload(run.seed, Layout::kThreaded)};
      const world::WorldResult result = engine.Run();
      run.checks.Begin();
      CheckWorld(run.checks, result, oracle, "threaded probe " + std::to_string(probe));
      run.series["world.stall_s"].push_back(result.wall_seconds - result.critical_path_seconds);
      run.series["world.measured_speedup"].push_back(oracle.wall_seconds / result.wall_seconds);
    }
  });
}

// ----------------------------------------------------------- chaos_fleet

constexpr std::size_t kChaosSeeds = 64;
constexpr unsigned kChaosJobs = 2;

struct FleetOutput {
  std::string json;
  double fold_s = 0.0;
  double report_s = 0.0;
};

FleetOutput FoldFleet(const std::vector<fault::ChaosOutcome>& outcomes, Tracer& tracer, int rep) {
  FleetOutput out;
  obs::fleet::FleetAggregator aggregator;
  obs::fleet::SloEngine slos;
  {
    Tracer::Scope span{tracer, "fleet.Fold+Observe", "obs/fleet", rep};
    const auto t0 = Clock::now();
    for (const auto& o : outcomes) {
      aggregator.Fold(o.summary);
      slos.Observe(o.summary);
    }
    out.fold_s = SecondsSince(t0);
  }
  {
    Tracer::Scope span{tracer, "fleet.BuildReport+WriteJson", "obs/fleet", rep};
    const auto t0 = Clock::now();
    const obs::fleet::FleetReport report = obs::fleet::BuildReport(aggregator, slos);
    std::ostringstream os;
    obs::fleet::WriteJson(report, os);
    out.json = os.str();
    out.report_s = SecondsSince(t0);
  }
  return out;
}

/// Fails each run that is not ok() or whose digest differs from `digests`;
/// a differing fleet JSON fails them all, since it is their shared output.
void CheckChaos(Checks& checks, const std::vector<fault::ChaosOutcome>& outcomes,
                const std::string& json, const std::vector<std::uint64_t>& digests,
                const std::string& reference_json, const std::string& tag) {
  checks.Begin(digests.size());
  checks.Expect(outcomes.size() == digests.size(), tag + ": matrix size differs");
  checks.Expect(json == reference_json, tag + ": fleet JSON differs");
  std::uint64_t bad = 0;
  std::string first_bad;
  for (std::size_t i = 0; i < std::min(outcomes.size(), digests.size()); ++i) {
    const auto& o = outcomes[i];
    if (o.ok() && o.digest == digests[i]) continue;
    if (bad++ == 0) {
      first_bad = o.scenario + " seed " + std::to_string(o.seed) + ": " +
                  (o.ok() ? std::string{"digest differs"} : o.failure);
    }
  }
  checks.FailSome(bad, tag + ": " + std::to_string(bad) + " chaos runs failed, first " +
                           first_bad);
}

void RunChaosFleet(Run& run) {
  Tracer& tracer = run.tracer;
  const std::vector<fault::ChaosScenario> catalog = fault::BuiltinScenarios();
  const std::size_t n = catalog.size() * kChaosSeeds;
  double session_seconds = 0.0;
  for (const auto& s : catalog) {
    session_seconds += std::chrono::duration<double>(s.duration).count() * kChaosSeeds;
  }
  // Rep 0's outputs until the jobs-1 pass has run, then the pass's.
  std::vector<std::uint64_t> reference_digests;
  std::string reference_json;
  double jobs1_total_s = 0.0;

  const auto body = [&](int rep, bool traced) {
    Rep r;
    Tracer::Scope rep_span{tracer, "chaos_fleet.rep", "bench", rep};
    const auto t0 = Clock::now();
    std::vector<fault::ChaosScenario> scenarios;
    {
      Tracer::Scope span{tracer, "setup", "fault", rep};
      scenarios = fault::BuiltinScenarios();
    }
    r.setup_s = SecondsSince(t0);
    fault::ChaosMatrixResult matrix;
    double matrix_s = 0.0;
    {
      Tracer::Scope span{tracer, "fault.RunChaosMatrix", "fault", rep};
      const auto m0 = Clock::now();
      matrix = fault::RunChaosMatrix(scenarios, run.seed, kChaosSeeds, kChaosJobs,
                                     /*summarize=*/true);
      matrix_s = SecondsSince(m0);
    }
    const FleetOutput fleet = FoldFleet(matrix.outcomes, tracer, rep);
    r.wall_s = SecondsSince(t0);

    double packets = 0.0;
    for (const auto& o : matrix.outcomes) packets += static_cast<double>(o.packets_correlated);
    r.session_s_per_s = session_seconds / r.wall_s;
    r.explain_pkts_per_s = packets / r.wall_s;

    if (reference_digests.empty()) {
      for (const auto& o : matrix.outcomes) reference_digests.push_back(o.digest);
      reference_json = fleet.json;
    }
    CheckChaos(run.checks, matrix.outcomes, fleet.json, reference_digests, reference_json,
               RepTag(rep, traced));

    if (traced) {
      double events = 0.0;
      double faults = 0.0;
      double kills = 0.0;
      double restores = 0.0;
      double shed = 0.0;
      double anomalies = 0.0;
      for (const auto& o : matrix.outcomes) {
        events += static_cast<double>(o.events_executed);
        faults += static_cast<double>(o.faults_injected);
        kills += o.kills;
        restores += o.restores;
        shed += static_cast<double>(o.shed_total);
        anomalies += static_cast<double>(o.anomalies_total);
      }
      Values& v = r.layer;
      v["fleet.fold_sessions_per_s"] = static_cast<double>(n) / fleet.fold_s;
      v["fleet.report_s"] = fleet.report_s;
      v["fleet.report_bytes"] = static_cast<double>(fleet.json.size());
      v["runner.efficiency"] = jobs1_total_s / (kChaosJobs * matrix_s);
      v["sim.events"] = events;
      v["sim.events_per_s"] = events / jobs1_total_s;
      v["fault.faults_injected"] = faults;
      v["resilience.kills"] = kills;
      v["resilience.restores"] = restores;
      v["resilience.shed_total"] = shed;
      v["live.anomalies_total"] = anomalies;
    }
    return r;
  };

  ClosedLoop(run, body, [&] {
    // The jobs-1 pass over RunChaosMatrix's (scenario, DeriveSeed) grid:
    // the reference outputs and the per-run timings.
    std::vector<fault::ChaosOutcome> outcomes(n);
    std::string json;
    {
      Tracer::Scope span{tracer, "oracle.chaos_jobs_1", "bench", -1};
      for (std::size_t i = 0; i < n; ++i) {
        const fault::ChaosScenario& scenario = catalog[i / kChaosSeeds];
        Tracer::Scope call{tracer, "fault.RunChaosScenario", "fault", -1};
        const auto t0 = Clock::now();
        outcomes[i] = fault::RunChaosScenario(
            scenario, sim::DeriveSeed(run.seed, i % kChaosSeeds), /*summarize=*/true);
        const double s = SecondsSince(t0);
        jobs1_total_s += s;
        run.series["chaos.run_ms"].push_back(s * 1e3);
        const char* group = scenario.supervised      ? "resilience.supervised_run_ms"
                            : scenario.budget.any() ? "resilience.overload_run_ms"
                                                    : "chaos.plain_run_ms";
        run.series[group].push_back(s * 1e3);
      }
      json = FoldFleet(outcomes, tracer, -1).json;
    }
    CheckChaos(run.checks, outcomes, json, reference_digests, reference_json,
               "jobs-1 pass vs rep 0");
    for (std::size_t i = 0; i < n; ++i) reference_digests[i] = outcomes[i].digest;
    reference_json = json;
    std::istringstream is{json};
    std::ostringstream os;
    obs::fleet::WriteJson(obs::fleet::ParseReport(is), os);
    run.checks.Begin();
    run.checks.Expect(os.str() == json,
                      "ParseReport(WriteJson(r)) does not re-serialize byte-identically");
  });
}

// ------------------------------------------------------------------ output

void WriteString(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      os << "\\u" << std::hex << std::setw(4) << std::setfill('0') << static_cast<int>(c)
         << std::dec << std::setfill(' ');
    } else {
      os << c;
    }
  }
  os << '"';
}

void WriteValues(std::ostream& os, const Values& values) {
  os << '{';
  bool first = true;
  for (const auto& [key, value] : values) {
    if (!first) os << ", ";
    first = false;
    WriteString(os, key);
    os << ": " << value;
  }
  os << '}';
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void WriteResult(std::ostream& os, const Run& run) {
  const auto ns = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - run.tracer.epoch()).count();
  };
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "{\n  \"workload\": ";
  WriteString(os, run.workload);
  os << ",\n  \"seed\": " << run.seed << ",\n  \"trace\": " << (run.trace ? 1 : 0)
     << ",\n  \"seconds\": " << run.seconds
     << ",\n  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
     << ",\n  \"compiler\": ";
  WriteString(os, PERFBENCH_COMPILER);
  os << ",\n  \"build_type\": ";
  WriteString(os, PERFBENCH_BUILD_TYPE);
  os << ",\n  \"operations\": [";
  const auto& groups = run.checks.groups();
  for (std::size_t i = 0; i < groups.size(); ++i) {
    const auto& g = groups[i];
    os << (i ? ", " : "") << '[' << g.operations << ", " << (g.all_failed ? 1 : 0) << ", "
       << g.some_failed << ']';
  }
  os << "],\n  \"failures\": [";
  for (std::size_t i = 0; i < run.checks.messages().size(); ++i) {
    os << (i ? ", " : "");
    WriteString(os, run.checks.messages()[i]);
  }
  os << "],\n  \"peak_rss_mb\": " << PeakRssMb() << ",\n  \"oracle\": ";
  WriteValues(os, run.oracle);
  os << ",\n  \"reps\": [";
  for (std::size_t i = 0; i < run.reps.size(); ++i) {
    const Rep& r = run.reps[i];
    os << (i ? ",\n    " : "\n    ") << "{\"warmup\": " << (r.warmup ? 1 : 0)
       << ", \"traced\": " << (r.traced ? 1 : 0)
       << ", \"wall_s\": " << r.wall_s << ", \"setup_s\": " << r.setup_s
       << ", \"session_s_per_s\": " << r.session_s_per_s
       << ", \"explain_pkts_per_s\": " << r.explain_pkts_per_s << ", \"layer\": ";
    WriteValues(os, r.layer);
    os << '}';
  }
  os << "],\n  \"series\": {";
  bool first = true;
  for (const auto& [name, values] : run.series) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    WriteString(os, name);
    os << ": [";
    for (std::size_t i = 0; i < values.size(); ++i) os << (i ? ", " : "") << values[i];
    os << ']';
  }
  os << "},\n  \"spans\": [";
  const auto& spans = run.tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    os << (i ? ",\n    " : "\n    ") << '[';
    WriteString(os, s.name);
    os << ", ";
    WriteString(os, s.layer);
    os << ", " << ns(s.start) << ", " << ns(s.end) << ", " << s.parent << ", " << s.rep << ']';
  }
  os << "],\n  \"aggregates\": [";
  const auto& aggregates = run.tracer.aggregates();
  for (std::size_t i = 0; i < aggregates.size(); ++i) {
    const auto& a = aggregates[i];
    os << (i ? ",\n    " : "\n    ") << '[';
    WriteString(os, a.name);
    os << ", ";
    WriteString(os, a.layer);
    os << ", " << a.parent << ", " << a.rep << ", " << a.total_s << ", " << a.calls << ']';
  }
  os << "]\n}\n";
}

int Usage(const char* why) {
  std::cerr << "perfbench_harness: " << why
            << "\nusage: perfbench_harness --workload diagnosed_call|world_512|chaos_fleet"
               " --seed N --seconds S --trace 0|1 --out FILE\n";
  return 2;
}

int Main(int argc, char** argv) {
  Run run;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        run.workload = value;
      } else if (flag == "--seed") {
        run.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        run.seconds = std::stod(value);
      } else if (flag == "--trace") {
        run.trace = value == "1";
      } else if (flag == "--out") {
        run.out_path = value;
      } else {
        return Usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return Usage(("bad value for " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("flags take one value each");
  if (run.out_path.empty()) return Usage("--out is required");
  const std::map<std::string, void (*)(Run&)> workloads = {
      {"diagnosed_call", RunDiagnosedCall},
      {"world_512", RunWorld},
      {"chaos_fleet", RunChaosFleet},
  };
  const auto it = workloads.find(run.workload);
  if (it == workloads.end()) return Usage("unknown workload");
  try {
    it->second(run);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << run.workload << " threw: " << e.what() << '\n';
    return 3;
  }
  std::ofstream out{run.out_path};
  WriteResult(out, run);
  out.close();
  if (!out) {
    std::cerr << "perfbench_harness: cannot write " << run.out_path << '\n';
    return 2;
  }
  return 0;
}

}  // namespace
}  // namespace athena::perfbench

int main(int argc, char** argv) { return athena::perfbench::Main(argc, argv); }
