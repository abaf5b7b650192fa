// One-stop observability bundle.
//
// `SimObsBridge` implements the kernel's `sim::SimHooks`, translating
// kernel activity into trace events (a `sim.run` span per Run* call, a
// sampled `sim.queue_depth` counter) and metrics gauges. It lives here —
// not in src/sim/ — so the kernel stays dependency-free.
//
// `ObsSession` is what tools use: it owns a TraceRecorder and a
// MetricsRegistry, installs both globals for its lifetime (RAII), hooks
// the simulator, and optionally snapshots metrics on a virtual-time grid.
//
//   obs::ObsSession observability{sim, {.metrics_period = 100ms}};
//   ... run the scenario ...
//   observability.recorder().WriteJson(trace_file);
//   observability.registry().WriteCsv(metrics_file);
#pragma once

#include <cstdint>
#include <memory>

#include "obs/live/live.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace athena::obs {

/// Kernel → obs adapter. Install with `sim.AddHooks(&bridge)`.
class SimObsBridge final : public sim::SimHooks {
 public:
  /// Executed events per queue-depth trace counter sample (bounds trace
  /// volume).
  static constexpr std::uint64_t kQueueSampleEvery = 64;

  explicit SimObsBridge(sim::Simulator& sim) : sim_(sim) {}

  void OnEventExecuted(sim::TimePoint t, std::size_t queue_depth) override {
    if (++events_since_sample_ < kQueueSampleEvery) return;
    events_since_sample_ = 0;
    TraceCounter(Layer::kSim, names::kSimQueueDepth, t, static_cast<double>(queue_depth));
  }

  void OnRunCompleted(sim::TimePoint begin, sim::TimePoint end,
                      std::uint64_t events) override {
    TraceSpan(Layer::kSim, names::kSimRun, begin, end,
              {{"events", static_cast<double>(events)}});
    SetGauge("sim.events_executed", static_cast<double>(sim_.events_executed()));
    SetGauge("sim.queue_depth", static_cast<double>(sim_.queue_depth()));
    if (sim_.profiling()) {
      const sim::SimProfile& p = sim_.profile();
      SetGauge("sim.queue_high_water", static_cast<double>(p.queue_high_water));
      SetGauge("sim.events_per_sec_wall", p.events_per_second());
      SetGauge("sim.mean_callback_ns", p.mean_callback_ns());
    }
  }

 private:
  sim::Simulator& sim_;
  std::uint64_t events_since_sample_ = 0;
};

/// Owns recorder + registry, installs the globals and the kernel hooks
/// for its lifetime. Everything is undone in the destructor, so tests
/// and tools cannot leak observability state into each other.
class ObsSession {
 public:
  struct Options {
    bool trace = true;
    bool metrics = true;
    /// 0 = no periodic snapshots (metrics still collect final values).
    sim::Duration metrics_period{0};
    bool profile_sim = false;
    /// Run the live diagnosis engine (obs/live/) alongside the recorder;
    /// both consume the same emit points through a TraceFanout.
    bool live = false;
    /// Hard byte budget for the trace recorder (0 = unbounded). Under
    /// the budget, low-priority events are shed and critical events
    /// evict the oldest chunk; see TraceRecorder.
    std::size_t trace_byte_budget = 0;
    /// An additional sink fanned out alongside the recorder/live engine
    /// — how a run joins the telemetry ingest pipeline (pass
    /// pipeline::TelemetryPipeline::CurrentThreadSink()). Null is fine.
    TraceSink* extra_sink = nullptr;
  };

  ObsSession(sim::Simulator& sim, Options options)
      : sim_(sim),
        options_(options),
        bridge_(sim),
        live_(options.live ? std::make_unique<live::LiveEngine>() : nullptr),
        trace_scope_(PickSink()),
        metrics_scope_(options.metrics ? &registry_ : nullptr) {
    sim.AddHooks(&bridge_);
    if (options.profile_sim) sim.set_profiling(true);
    if (options.trace_byte_budget > 0) recorder_.set_byte_budget(options.trace_byte_budget);
    if (options.metrics && options.metrics_period.count() > 0) {
      registry_.StartSampling(sim, options.metrics_period);
    }
  }

  ~ObsSession() {
    registry_.StopSampling();
    if (options_.profile_sim) sim_.set_profiling(false);
    sim_.RemoveHooks(&bridge_);
  }

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  [[nodiscard]] TraceRecorder& recorder() { return recorder_; }
  [[nodiscard]] MetricsRegistry& registry() { return registry_; }

  /// Reports the recorder's cumulative shed ledger: publishes the
  /// `trace.shed_*` gauges and emits an `overload.shed` trace instant so
  /// the live overload detector (if running) sees recorder-level
  /// shedding. No-op while nothing has been shed.
  void ReportTraceShedding(sim::TimePoint t) {
    const auto shed = recorder_.shed_low_priority();
    const auto evicted = recorder_.chunks_evicted();
    if (shed == 0 && evicted == 0) return;
    SetGauge("trace.shed_low_priority", static_cast<double>(shed));
    SetGauge("trace.chunks_evicted", static_cast<double>(evicted));
    TraceInstant(Layer::kOther, names::kOverloadShed, t,
                 {{"total", static_cast<double>(shed + evicted)}, {"capped", 0.0}});
  }
  /// Null unless Options::live was set.
  [[nodiscard]] live::LiveEngine* live() { return live_.get(); }
  [[nodiscard]] const live::LiveEngine* live() const { return live_.get(); }

 private:
  /// Called after live_ is constructed (declaration order) to decide the
  /// installed global sink: recorder, live engine, extra sink, or a
  /// fanout of whichever subset is active.
  [[nodiscard]] TraceSink* PickSink() {
    TraceSink* singles[3] = {};
    std::size_t n = 0;
    if (options_.trace) singles[n++] = &recorder_;
    if (live_ != nullptr) singles[n++] = live_.get();
    if (options_.extra_sink != nullptr) singles[n++] = options_.extra_sink;
    if (n == 0) return nullptr;
    if (n == 1) return singles[0];
    for (std::size_t i = 0; i < n; ++i) fanout_.Add(singles[i]);
    return &fanout_;
  }

  sim::Simulator& sim_;
  Options options_;
  TraceRecorder recorder_;
  MetricsRegistry registry_;
  SimObsBridge bridge_;
  std::unique_ptr<live::LiveEngine> live_;
  TraceFanout fanout_;
  ScopedTraceSink trace_scope_;
  ScopedMetrics metrics_scope_;
};

}  // namespace athena::obs
