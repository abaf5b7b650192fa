#include "mitigation/control/controller.hpp"

#include <algorithm>
#include <bit>
#include <iomanip>
#include <ostream>

#include "obs/live/live.hpp"
#include "obs/metrics.hpp"
#include "sim/check.hpp"

namespace athena::mitigation::control {

namespace {

constexpr std::size_t kMaxLedgerEntries = 4096;
constexpr std::size_t kMaxQoeHistory = 1024;
constexpr double kProactiveBackoffFactor = 0.75;

constexpr std::size_t Index(Knob knob) { return static_cast<std::size_t>(knob); }

/// Baseline values per knob, Knob order: grant mode off, proactive scale
/// 1, mask gain 0, pacing off — i.e. exactly the un-mitigated session.
constexpr double kBaseline[kKnobCount] = {0.0, 1.0, 0.0, 0.0};

}  // namespace

const char* ToString(Knob knob) {
  switch (knob) {
    case Knob::kGrantMode: return "grant_mode";
    case Knob::kProactiveScale: return "proactive_scale";
    case Knob::kCcMaskGain: return "cc_mask_gain";
    case Knob::kPacing: return "pacing";
  }
  return "unknown";
}

const char* ToString(DecisionOutcome outcome) {
  switch (outcome) {
    case DecisionOutcome::kActuated: return "actuated";
    case DecisionOutcome::kReverted: return "reverted";
    case DecisionOutcome::kBlockedConfidence: return "blocked_confidence";
    case DecisionOutcome::kBlockedHysteresis: return "blocked_hysteresis";
    case DecisionOutcome::kBlockedCooldown: return "blocked_cooldown";
    case DecisionOutcome::kBlockedNoActuator: return "blocked_no_actuator";
    case DecisionOutcome::kExpired: return "expired";
  }
  return "unknown";
}

MitigationController::MitigationController(sim::Simulator& sim, Config config)
    : sim_(sim), config_(config), guard_(config.guard) {
  ATHENA_CHECK(config_.budget.count() > 0,
               "MitigationController: sense-to-act budget must be positive");
  if (config_.tick.count() <= 0 || config_.tick > config_.budget) {
    config_.tick = config_.budget;
  }
  for (auto& t : last_actuation_) t = sim::kEpoch;
  last_feed_ = sim::kEpoch;
  last_gate_anomaly_ = sim::kEpoch;
}

void MitigationController::Start() { ScheduleTick(); }

void MitigationController::ScheduleTick() {
  sim_.ScheduleAfter(config_.tick, [this] {
    Tick();
    ScheduleTick();
  });
}

void MitigationController::OnAnomaly(const obs::live::AnomalyEvent& event) {
  const sim::TimePoint now = sim_.Now();
  switch (event.kind) {
    case obs::live::AnomalyKind::kTelemetryGap:
    case obs::live::AnomalyKind::kOverload:
      // Gate poison, not an actuation trigger: the input stream itself is
      // suspect, so refuse to move knobs on anything seen near it.
      gate_anomaly_seen_ = true;
      last_gate_anomaly_ = now;
      return;
    default:
      pending_.push_back(PendingTrigger{event.kind, event.confidence, now});
  }
}

void MitigationController::OnTelemetry(const ran::TbRecord&) {
  feed_seen_ = true;
  last_feed_ = sim_.Now();
}

std::pair<std::uint64_t, std::uint64_t> MitigationController::ProbeQoe() const {
  if (qoe_probe_) return qoe_probe_();
  if (live_ != nullptr) return {live_->frames_rendered(), live_->frames_late()};
  return {0, 0};
}

double MitigationController::LateFractionSince(std::uint64_t rendered0,
                                               std::uint64_t late0) const {
  const auto [rendered, late] = ProbeQoe();
  const std::uint64_t dr = rendered > rendered0 ? rendered - rendered0 : 0;
  const std::uint64_t dl = late > late0 ? late - late0 : 0;
  if (dr == 0) {
    // A total rendering stall is the worst outcome — but only judge it
    // once the session had rendered anything at all.
    return rendered0 > 0 ? 1.0 : 0.0;
  }
  return static_cast<double>(dl) / static_cast<double>(dr);
}

double MitigationController::WindowLateFraction(sim::TimePoint now) const {
  if (qoe_history_.empty()) return 0.0;
  const sim::TimePoint horizon = now - guard_.verify_window;
  const QoeSample* base = &qoe_history_.front();
  for (const QoeSample& s : qoe_history_) {
    if (s.t > horizon) break;
    base = &s;
  }
  return LateFractionSince(base->rendered, base->late);
}

void MitigationController::Tick() {
  const sim::TimePoint now = sim_.Now();
  const auto [rendered, late] = ProbeQoe();
  qoe_history_.push_back(QoeSample{now, rendered, late});
  while (qoe_history_.size() > kMaxQoeHistory) qoe_history_.pop_front();

  // --- fail-safe: the telemetry feed went silent mid-flight ---
  const bool feed_silent =
      has_feed_ && feed_seen_ && (now - last_feed_) > guard_.telemetry_silence;
  if (feed_silent) {
    for (std::size_t k = 0; k < kKnobCount; ++k) {
      if (current_[k] != kBaseline[k]) {
        Revert(static_cast<Knob>(k), now, "telemetry feed silent");
      }
    }
  }

  // --- verify: QoE watchdog over completed post-actuation windows ---
  std::vector<Verification> due;
  for (auto it = verifying_.begin(); it != verifying_.end();) {
    if (now - it->at >= guard_.verify_window) {
      due.push_back(*it);
      it = verifying_.erase(it);
    } else {
      ++it;
    }
  }
  for (const Verification& v : due) {
    const double post = LateFractionSince(v.rendered_at_act, v.late_at_act);
    if (post > v.pre_late_fraction + guard_.max_late_fraction_increase) {
      Revert(v.knob, now, "qoe worsened post-actuation");
    }
  }

  // --- decide: drain this tick's triggers through the guardrails ---
  const bool gated =
      feed_silent || correlation_degraded_ ||
      (gate_anomaly_seen_ && (now - last_gate_anomaly_) <= guard_.gate_hold);
  for (const PendingTrigger& trigger : pending_) {
    Decide(trigger, now, gated);
  }
  pending_.clear();

  obs::SetGauge("mitigation.max_sense_to_act_ms",
                static_cast<double>(max_sense_to_act_.count()) / 1000.0);
}

void MitigationController::Decide(const PendingTrigger& trigger, sim::TimePoint now,
                                  bool gated) {
  using K = obs::live::AnomalyKind;
  Knob knob{};
  double target = 0.0;
  switch (trigger.kind) {
    case K::kBsrGrantWait:
      knob = Knob::kGrantMode;
      target = 1.0;
      break;
    case K::kOverGranting:
      knob = Knob::kProactiveScale;
      target = std::clamp(current_[Index(Knob::kProactiveScale)] * kProactiveBackoffFactor,
                          guard_.proactive_scale_min, guard_.proactive_scale_max);
      break;
    case K::kDelaySpreadQuantization:
    case K::kHarqRtxInflation:
      knob = Knob::kCcMaskGain;
      target = std::clamp(1.0, guard_.mask_gain_min, guard_.mask_gain_max);
      break;
    case K::kQueueBuildup:
      knob = Knob::kPacing;
      target = 1.0;
      break;
    default:
      return;  // gate kinds never reach here (filtered in OnAnomaly)
  }

  const std::size_t k = Index(knob);
  const sim::Duration sense = now - trigger.seen_at;

  const auto block = [&](DecisionOutcome outcome, const char* why) {
    ++guardrail_blocks_;
    obs::CountInc("mitigation.guardrail_blocks");
    Record(DecisionRecord{now, trigger.kind, trigger.confidence, knob, current_[k],
                          target, outcome, sense, why});
  };

  if (sense > config_.budget) {
    // Defensive: the tick cadence makes this unreachable, but a stale
    // trigger must never actuate late.
    block(DecisionOutcome::kExpired, "sense-to-act budget exceeded");
    return;
  }
  if (current_[k] == target) return;  // already there — not a decision
  if (gated || trigger.confidence < guard_.min_confidence) {
    block(DecisionOutcome::kBlockedConfidence,
          gated ? "input degraded or telemetry suspect" : "confidence below floor");
    return;
  }
  auto& history = knob_triggers_[k];
  history.push_back(now);
  while (!history.empty() && now - history.front() > guard_.hysteresis_window) {
    history.pop_front();
  }
  if (history.size() < guard_.hysteresis_triggers) {
    block(DecisionOutcome::kBlockedHysteresis, "awaiting corroborating triggers");
    return;
  }
  if (ever_actuated_[k] && now - last_actuation_[k] < guard_.cooldown) {
    block(DecisionOutcome::kBlockedCooldown, "knob in cooldown");
    return;
  }
  Apply(knob, target, trigger, now);
}

void MitigationController::Apply(Knob knob, double target, const PendingTrigger& trigger,
                                 sim::TimePoint now) {
  const std::size_t k = Index(knob);
  const sim::Duration sense = now - trigger.seen_at;

  bool applied = false;
  switch (knob) {
    case Knob::kGrantMode:
      if (actuators_.grant_mode) {
        actuators_.grant_mode(target != 0.0);
        applied = true;
      }
      break;
    case Knob::kProactiveScale:
      if (actuators_.proactive_scale) {
        actuators_.proactive_scale(target);
        applied = true;
      }
      break;
    case Knob::kCcMaskGain:
      if (actuators_.cc_mask_gain) {
        actuators_.cc_mask_gain(target);
        applied = true;
      }
      break;
    case Knob::kPacing:
      if (actuators_.pacing) {
        actuators_.pacing(target != 0.0);
        applied = true;
      }
      break;
  }
  if (!applied) {
    ++guardrail_blocks_;
    obs::CountInc("mitigation.guardrail_blocks");
    Record(DecisionRecord{now, trigger.kind, trigger.confidence, knob, current_[k],
                          target, DecisionOutcome::kBlockedNoActuator, sense,
                          "no actuator wired"});
    return;
  }

  const double from = current_[k];
  current_[k] = target;
  ever_actuated_[k] = true;
  last_actuation_[k] = now;
  knob_triggers_[k].clear();  // the next move needs fresh corroboration
  ++actuations_;
  obs::CountInc("mitigation.actuations");
  if (sense > max_sense_to_act_) max_sense_to_act_ = sense;
  const auto [rendered, late] = ProbeQoe();
  verifying_.push_back(Verification{knob, now, WindowLateFraction(now), rendered, late,
                                    kBaseline[k]});
  Record(DecisionRecord{now, trigger.kind, trigger.confidence, knob, from, target,
                        DecisionOutcome::kActuated, sense, "guardrails passed"});
}

void MitigationController::Revert(Knob knob, sim::TimePoint now, const char* why) {
  const std::size_t k = Index(knob);
  if (current_[k] == kBaseline[k]) return;
  switch (knob) {
    case Knob::kGrantMode:
      if (actuators_.grant_mode) actuators_.grant_mode(false);
      break;
    case Knob::kProactiveScale:
      if (actuators_.proactive_scale) actuators_.proactive_scale(kBaseline[k]);
      break;
    case Knob::kCcMaskGain:
      if (actuators_.cc_mask_gain) actuators_.cc_mask_gain(kBaseline[k]);
      break;
    case Knob::kPacing:
      if (actuators_.pacing) actuators_.pacing(false);
      break;
  }
  const double from = current_[k];
  current_[k] = kBaseline[k];
  // A reverted knob re-enters cooldown and must re-earn its hysteresis.
  last_actuation_[k] = now;
  ever_actuated_[k] = true;
  knob_triggers_[k].clear();
  // Any in-flight verification of this knob is resolved by the revert.
  std::erase_if(verifying_, [knob](const Verification& v) { return v.knob == knob; });
  ++reverts_;
  obs::CountInc("mitigation.reverts");
  Record(DecisionRecord{now, obs::live::AnomalyKind::kTelemetryGap, 0.0, knob, from,
                        kBaseline[k], DecisionOutcome::kReverted, sim::Duration{0}, why});
}

void MitigationController::Record(DecisionRecord record) {
  if (ledger_.size() < kMaxLedgerEntries) ledger_.push_back(record);
  digest_.MixU64(static_cast<std::uint64_t>(record.at.us()));
  digest_.MixU64(static_cast<std::uint64_t>(record.trigger));
  digest_.MixU64(std::bit_cast<std::uint64_t>(record.confidence));
  digest_.MixU64(static_cast<std::uint64_t>(record.knob));
  digest_.MixU64(std::bit_cast<std::uint64_t>(record.from));
  digest_.MixU64(std::bit_cast<std::uint64_t>(record.to));
  digest_.MixU64(static_cast<std::uint64_t>(record.outcome));
  digest_.MixU64(static_cast<std::uint64_t>(record.sense_to_act.count()));
  digest_.MixChars(record.why);
}

std::uint64_t MitigationController::LedgerDigest() const { return digest_.value(); }

void MitigationController::RenderLedger(std::ostream& os) const {
  os << "mitigation decision ledger: decisions=" << ledger_.size()
     << " actuations=" << actuations_ << " reverts=" << reverts_
     << " guardrail_blocks=" << guardrail_blocks_
     << " max_sense_to_act_us=" << max_sense_to_act_.count() << " digest=0x" << std::hex
     << digest_.value() << std::dec << "\n";
  for (const DecisionRecord& r : ledger_) {
    os << "  t=" << r.at.us() << "us trigger=" << obs::live::SlugFor(r.trigger)
       << " conf=" << std::fixed << std::setprecision(2) << r.confidence
       << std::defaultfloat << " knob=" << ToString(r.knob) << " " << r.from << "->"
       << r.to << " " << ToString(r.outcome) << " sense_us=" << r.sense_to_act.count()
       << " (" << r.why << ")\n";
  }
}

}  // namespace athena::mitigation::control
