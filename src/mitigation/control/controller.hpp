// The online mitigation controller: the decide/act/verify half of the
// §5 closed loop. Triggers arrive from the live DetectorBank (via
// LiveEngine::set_anomaly_listener); at every decision tick the
// controller maps the highest-ranked attributions onto the three
// mitigation knobs — grant policy mode + proactive scale (ran/),
// PHY-informed delay-mask gain (cc/), paced sending (app/) — under a
// guardrail layer that makes the loop fail-safe against the PR-4 fault
// matrix:
//
//   * hysteresis + cooldown   — no flapping on a single noisy verdict
//   * per-knob min/max clamps — an actuation can never leave the safe range
//   * confidence gate         — refuses to act on low-confidence verdicts,
//                               while telemetry-gap/overload detectors fire,
//                               or while the correlator reports degraded input
//   * fail-safe watchdog      — reverts to baseline when QoE worsens after
//                               an actuation or the telemetry feed goes
//                               silent mid-flight, recording why
//
// Every decision (including refusals) lands in a deterministic ledger;
// its FNV digest is the byte-identity witness the --jobs and
// checkpoint/restore tests pin. All timing is virtual: the sense-to-act
// latency of each actuation is measured from the anomaly's observation
// instant to the actuating tick and must stay within the configured
// budget by construction (the tick period never exceeds the budget).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/live/anomaly.hpp"
#include "ran/types.hpp"
#include "sim/digest.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace athena::obs::live {
class LiveEngine;
}  // namespace athena::obs::live

namespace athena::mitigation::control {

/// The actuation surface, one entry per knob. Kept in enum order so the
/// ledger digest is stable.
enum class Knob : std::uint8_t {
  kGrantMode,       ///< ran/: baseline BSR scheduler vs traffic predictor
  kProactiveScale,  ///< ran/: proactive grant size multiplier
  kCcMaskGain,      ///< cc/: §5.3 delay-mask gain on TWCC feedback
  kPacing,          ///< app/: paced sending on/off
};
inline constexpr std::size_t kKnobCount = 4;
[[nodiscard]] const char* ToString(Knob knob);

enum class DecisionOutcome : std::uint8_t {
  kActuated,           ///< knob moved
  kReverted,           ///< watchdog rolled the knob back to baseline
  kBlockedConfidence,  ///< confidence gate refused (low confidence / gap / degraded)
  kBlockedHysteresis,  ///< not enough corroborating triggers yet
  kBlockedCooldown,    ///< knob moved too recently
  kBlockedNoActuator,  ///< no actuator wired for this knob (e.g. no RAN)
  kExpired,            ///< trigger aged past the sense-to-act budget
};
[[nodiscard]] const char* ToString(DecisionOutcome outcome);

struct GuardrailConfig {
  /// Verdicts below this confidence never actuate.
  double min_confidence = 0.5;
  /// A telemetry-gap or overload verdict poisons the gate for this long.
  sim::Duration gate_hold{std::chrono::seconds{1}};
  /// Corroborating triggers required per knob before the first move.
  std::uint32_t hysteresis_triggers = 2;
  /// ... which must all land within this window.
  sim::Duration hysteresis_window{std::chrono::seconds{2}};
  /// Minimum spacing between moves of the same knob.
  sim::Duration cooldown{std::chrono::milliseconds{500}};
  /// QoE verification horizon after each actuation.
  sim::Duration verify_window{std::chrono::milliseconds{600}};
  /// Revert when the frame-late fraction over the post-actuation window
  /// exceeds the pre-actuation window's by more than this.
  double max_late_fraction_increase = 0.10;
  /// Fail-safe: with knobs active, a telemetry feed silent for this long
  /// (while the session renders frames) reverts everything to baseline.
  sim::Duration telemetry_silence{std::chrono::milliseconds{250}};
  /// Knob clamps.
  double mask_gain_min = 0.0;
  double mask_gain_max = 1.0;
  double proactive_scale_min = 0.5;
  double proactive_scale_max = 1.0;
};

/// Callbacks into the session's knobs; absent entries mean the knob does
/// not exist in this session (the controller records the refusal).
struct Actuators {
  std::function<void(bool use_predictor)> grant_mode;
  std::function<void(double scale)> proactive_scale;
  std::function<void(double gain)> cc_mask_gain;
  std::function<void(bool enabled)> pacing;
};

/// One ledger entry. Fields are exactly what --diagnose prints: trigger,
/// attribution, knob delta, outcome, and the sense-to-act latency.
struct DecisionRecord {
  sim::TimePoint at;
  obs::live::AnomalyKind trigger{};
  double confidence = 0.0;
  Knob knob{};
  double from = 0.0;
  double to = 0.0;
  DecisionOutcome outcome{};
  sim::Duration sense_to_act{0};
  const char* why = "";  ///< string literal — safe to hash and print
};

class MitigationController {
 public:
  struct Config {
    /// Hard sense-to-act bound, virtual time. The decision tick runs at
    /// min(tick, budget) so a trigger is always decided within budget.
    sim::Duration budget{std::chrono::milliseconds{50}};
    sim::Duration tick{std::chrono::milliseconds{10}};
    GuardrailConfig guard;
  };

  MitigationController(sim::Simulator& sim, Config config);

  void set_actuators(Actuators actuators) { actuators_ = std::move(actuators); }
  /// The rollup source for the QoE watchdog (frames rendered/late).
  void set_live(const obs::live::LiveEngine* live) { live_ = live; }
  /// Overrides the QoE probe (tests): returns (frames_rendered, frames_late).
  void set_qoe_probe(std::function<std::pair<std::uint64_t, std::uint64_t>()> probe) {
    qoe_probe_ = std::move(probe);
  }
  /// Declares that a live telemetry feed exists, arming the feed-silence
  /// fail-safe. Sessions without a RAN never arm it.
  void set_has_telemetry_feed(bool has) { has_feed_ = has; }

  /// Begins the decision tick chain. Events capture `this` raw: the
  /// controller must outlive the simulator run (it never touches the
  /// simulator after the run ends, so tearing the sim down first is safe).
  void Start();

  // --- input feeds ---
  void OnAnomaly(const obs::live::AnomalyEvent& event);
  void OnTelemetry(const ran::TbRecord& tb);
  void NoteCorrelationDegraded(bool degraded) { correlation_degraded_ = degraded; }

  // --- state / ledger ---
  [[nodiscard]] const std::vector<DecisionRecord>& ledger() const { return ledger_; }
  [[nodiscard]] std::uint64_t LedgerDigest() const;
  void RenderLedger(std::ostream& os) const;

  [[nodiscard]] std::uint64_t actuations() const { return actuations_; }
  [[nodiscard]] std::uint64_t reverts() const { return reverts_; }
  [[nodiscard]] std::uint64_t guardrail_blocks() const { return guardrail_blocks_; }
  [[nodiscard]] sim::Duration max_sense_to_act() const { return max_sense_to_act_; }
  [[nodiscard]] double knob_value(Knob knob) const {
    return current_[static_cast<std::size_t>(knob)];
  }
  [[nodiscard]] const Config& config() const { return config_; }

 private:
  struct PendingTrigger {
    obs::live::AnomalyKind kind{};
    double confidence = 0.0;
    sim::TimePoint seen_at;
  };
  struct Verification {
    Knob knob{};
    sim::TimePoint at;
    double pre_late_fraction = 0.0;
    std::uint64_t rendered_at_act = 0;
    std::uint64_t late_at_act = 0;
    double revert_to = 0.0;
  };
  struct QoeSample {
    sim::TimePoint t;
    std::uint64_t rendered = 0;
    std::uint64_t late = 0;
  };

  void ScheduleTick();
  void Tick();
  void Decide(const PendingTrigger& trigger, sim::TimePoint now, bool gated);
  void Apply(Knob knob, double target, const PendingTrigger& trigger,
             sim::TimePoint now);
  void Revert(Knob knob, sim::TimePoint now, const char* why);
  void Record(DecisionRecord record);
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> ProbeQoe() const;
  [[nodiscard]] double LateFractionSince(std::uint64_t rendered0,
                                         std::uint64_t late0) const;
  [[nodiscard]] double WindowLateFraction(sim::TimePoint now) const;

  sim::Simulator& sim_;
  Config config_;
  GuardrailConfig guard_;
  Actuators actuators_;
  const obs::live::LiveEngine* live_ = nullptr;
  std::function<std::pair<std::uint64_t, std::uint64_t>()> qoe_probe_;

  std::vector<PendingTrigger> pending_;
  std::deque<sim::TimePoint> knob_triggers_[kKnobCount];
  sim::TimePoint last_actuation_[kKnobCount];
  bool ever_actuated_[kKnobCount] = {};
  double current_[kKnobCount] = {0.0, 1.0, 0.0, 0.0};  // baselines, Knob order
  std::vector<Verification> verifying_;
  std::deque<QoeSample> qoe_history_;

  bool has_feed_ = false;
  bool feed_seen_ = false;
  sim::TimePoint last_feed_;
  sim::TimePoint last_gate_anomaly_;
  bool gate_anomaly_seen_ = false;
  bool correlation_degraded_ = false;

  std::vector<DecisionRecord> ledger_;
  sim::Fnv1a digest_;
  std::uint64_t actuations_ = 0;
  std::uint64_t reverts_ = 0;
  std::uint64_t guardrail_blocks_ = 0;
  sim::Duration max_sense_to_act_{0};
};

}  // namespace athena::mitigation::control
