#include "obs/fleet/slo.hpp"

#include <charconv>
#include <cmath>
#include <istream>
#include <sstream>
#include <stdexcept>

#include "obs/live/anomaly.hpp"
#include "obs/metrics.hpp"

namespace athena::obs::fleet {

namespace {

[[noreturn]] void Malformed(std::string_view line, const std::string& why) {
  throw std::runtime_error("malformed SLO spec line \"" + std::string(line) +
                           "\": " + why);
}

/// Parses the whole of `token` as a T (std::from_chars, as the CLI flag
/// table does); false on junk, overflow or an empty token.
template <class T>
bool ParseWhole(const std::string& token, T& out) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

double ParseFinite(std::string_view line, const std::string& token, const std::string& what) {
  double v = 0.0;
  if (!ParseWhole(token, v) || !std::isfinite(v)) {
    Malformed(line, what + " must be a finite number, got \"" + token + "\"");
  }
  return v;
}

}  // namespace

std::optional<SloSpec> ParseSloLine(std::string_view line) {
  // Strip comments, then tokenize on whitespace.
  const std::size_t hash = line.find('#');
  const std::string_view body = hash == std::string_view::npos ? line : line.substr(0, hash);
  std::istringstream in{std::string(body)};
  std::vector<std::string> tokens;
  for (std::string t; in >> t;) tokens.push_back(std::move(t));
  if (tokens.empty()) return std::nullopt;

  // <name>: <sample|session> <metric> <= <threshold> @ <target> [window <N>]
  if (tokens.size() != 7 && tokens.size() != 9) {
    Malformed(line, "expected 7 or 9 tokens, got " + std::to_string(tokens.size()));
  }
  SloSpec spec;
  if (tokens[0].size() < 2 || tokens[0].back() != ':') {
    Malformed(line, "name must end with ':'");
  }
  spec.name = tokens[0].substr(0, tokens[0].size() - 1);

  if (tokens[1] == "sample") {
    spec.granularity = Granularity::kSample;
  } else if (tokens[1] == "session") {
    spec.granularity = Granularity::kSession;
  } else {
    Malformed(line, "granularity must be 'sample' or 'session', got \"" + tokens[1] + "\"");
  }

  const auto metric = MetricFromName(tokens[2]);
  if (!metric) Malformed(line, "unknown metric \"" + tokens[2] + "\"");
  spec.metric = *metric;
  if (spec.granularity == Granularity::kSample &&
      GranularityOf(spec.metric) == Granularity::kSession) {
    Malformed(line, "metric \"" + tokens[2] + "\" is session-scalar; use 'session'");
  }

  if (tokens[3] != "<=") Malformed(line, "expected '<=' after metric");
  spec.threshold = ParseFinite(line, tokens[4], "threshold");
  if (spec.threshold < 0.0) Malformed(line, "threshold must be >= 0");

  if (tokens[5] != "@") Malformed(line, "expected '@' before target");
  spec.target = ParseFinite(line, tokens[6], "target");
  if (!(spec.target > 0.0 && spec.target < 1.0)) {
    Malformed(line, "target must be in (0, 1)");
  }

  if (tokens.size() == 9) {
    if (tokens[7] != "window") Malformed(line, "expected 'window <N>'");
    if (!ParseWhole(tokens[8], spec.window) || spec.window == 0) {
      Malformed(line, "window must be a positive integer, got \"" + tokens[8] + "\"");
    }
  }
  return spec;
}

std::vector<SloSpec> ParseSloSpecs(std::istream& in) {
  std::vector<SloSpec> specs;
  for (std::string line; std::getline(in, line);) {
    if (auto spec = ParseSloLine(line)) specs.push_back(std::move(*spec));
  }
  return specs;
}

std::vector<SloSpec> DefaultSlos() {
  // Calibrated to the clean paper cell (scenario "clean" of the chaos
  // matrix): each holds comfortably there and breaks under contention /
  // deep fading, so the gate separates healthy from regressed fleets.
  std::istringstream in{R"(# built-in fleet SLO catalog
uplink_owd_p95:   sample  uplink_owd_ms       <= 25   @ 0.95 window 64
bsr_wait_bound:   sample  bsr_wait_ms         <= 12   @ 0.90 window 64
mouth_to_ear_p99: sample  mouth_to_ear_ms     <= 450  @ 0.99 window 64
frame_late:       session frame_late_fraction <= 0.05 @ 0.95 window 64
audio_gaps:       session audio_gap_fraction  <= 0.05 @ 0.95 window 64
)"};
  return ParseSloSpecs(in);
}

SloEngine::SloEngine(std::vector<SloSpec> specs)
    : specs_(std::move(specs)), states_(specs_.size()) {}

void SloEngine::Observe(const SessionSummary& summary) {
  ++sessions_;
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    const SloSpec& spec = specs_[i];
    State& state = states_[i];

    Ledger session;
    if (!summary.valid) {
      // No dataset: nothing to judge; the session does not consume budget.
    } else if (spec.granularity == Granularity::kSample) {
      const auto& bucket = summary.metric(spec.metric);
      session.total = static_cast<double>(bucket.count);
      session.good = bucket.sketch.CountAtOrBelow(spec.threshold);
    } else {
      session.total = 1.0;
      session.good = summary.SessionValue(spec.metric) <= spec.threshold ? 1.0 : 0.0;
    }

    state.cumulative.good += session.good;
    state.cumulative.total += session.total;
    state.window.push_back(session);
    state.window_sum.good += session.good;
    state.window_sum.total += session.total;
    while (state.window.size() > spec.window) {
      state.window_sum.good -= state.window.front().good;
      state.window_sum.total -= state.window.front().total;
      state.window.pop_front();
    }
  }
}

std::vector<SloResult> SloEngine::Results() const {
  std::vector<SloResult> results;
  results.reserve(specs_.size());
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    const SloSpec& spec = specs_[i];
    const State& state = states_[i];
    SloResult r;
    r.spec = spec;
    r.good = state.cumulative.good;
    r.total = state.cumulative.total;
    r.compliance = r.total > 0.0 ? r.good / r.total : 1.0;
    r.window_compliance = state.window_sum.total > 0.0
                              ? state.window_sum.good / state.window_sum.total
                              : 1.0;
    const double budget = 1.0 - spec.target;  // target ∈ (0,1) ⇒ budget > 0
    r.budget_remaining = 1.0 - (1.0 - r.compliance) / budget;
    r.burn_rate = (1.0 - r.window_compliance) / budget;
    results.push_back(std::move(r));
  }
  return results;
}

bool SloEngine::AllOk() const {
  for (const SloResult& r : Results()) {
    if (!r.ok()) return false;
  }
  return true;
}

void SloEngine::PublishMetrics() const {
  for (const SloResult& r : Results()) {
    const std::string prefix = "fleet.slo." + r.spec.name + ".";
    obs::SetGauge(prefix + "compliance", r.compliance);
    obs::SetGauge(prefix + "budget_remaining", r.budget_remaining);
    obs::SetGauge(prefix + "burn_rate", r.burn_rate);
    obs::SetGauge(prefix + "ok", r.ok() ? 1.0 : 0.0);
  }
}

void PublishPrevalenceMetrics(const ScenarioAggregate& aggregate) {
  for (std::size_t k = 0; k < obs::live::kAnomalyKindCount; ++k) {
    const auto kind = static_cast<obs::live::AnomalyKind>(k);
    obs::SetGauge(std::string("fleet.prevalence.") + obs::live::SlugFor(kind),
                  aggregate.PrevalenceFraction(kind));
  }
}

}  // namespace athena::obs::fleet
