// Uplink grant policies.
//
// The cell asks each attached UE's policy, once per uplink slot, how
// large a new-data TB to grant that UE. The default `BsrGrantPolicy`
// reproduces §3.1 faithfully — small proactive grants every slot plus
// BSR-requested grants that mature ~10 ms later and are sized from the
// buffer state *at BSR time* (the over-granting pathology). §5.2's
// application-aware scheduler is just another implementation of this
// interface (src/mitigation/).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>

#include "ran/config.hpp"
#include "ran/types.hpp"
#include "sim/time.hpp"

namespace athena::ran {

class GrantPolicy {
 public:
  virtual ~GrantPolicy() = default;

  struct SlotInfo {
    sim::TimePoint slot_time;
    std::uint32_t available_bytes = 0;  ///< capacity left after cross traffic & HARQ rtx
  };

  struct Decision {
    std::uint32_t tbs_bytes = 0;  ///< 0 = no new-data TB this slot
    GrantType grant = GrantType::kProactive;
  };

  /// Called at every uplink slot; returns the new-data TB grant.
  virtual Decision OnUplinkSlot(const SlotInfo& slot) = 0;

  /// Called when a BSR from the UE is successfully decoded. `reported`
  /// is the UE buffer occupancy at the time the BSR was *built*.
  virtual void OnBsrDecoded(sim::TimePoint decoded_at, std::uint32_t reported_bytes) = 0;

  /// Called after the UE fills the granted TB (what was actually used) —
  /// learning-based policies observe traffic through this.
  virtual void OnTbFilled(sim::TimePoint slot_time, const Decision& grant,
                          std::uint32_t used_bytes) = 0;

  /// Is a BSR-requested grant due at `slot_time`? When UEs share a slot,
  /// those answering yes decide first (the grant was promised; contention
  /// only delays it). A policy that wraps another forwards the query.
  [[nodiscard]] virtual bool HasDueRequest(sim::TimePoint /*slot_time*/) const {
    return false;
  }
};

/// The paper's baseline scheduler (§3.1).
class BsrGrantPolicy : public GrantPolicy {
 public:
  explicit BsrGrantPolicy(const RanConfig& config) : config_(config) {}

  Decision OnUplinkSlot(const SlotInfo& slot) override;
  void OnBsrDecoded(sim::TimePoint decoded_at, std::uint32_t reported_bytes) override;
  void OnTbFilled(sim::TimePoint slot_time, const Decision& grant,
                  std::uint32_t used_bytes) override;
  [[nodiscard]] bool HasDueRequest(sim::TimePoint slot_time) const override {
    return !pending_.empty() && pending_.front().usable_from <= slot_time;
  }

  /// Requested-grant bytes scheduled but not yet issued (diagnostics).
  [[nodiscard]] std::uint32_t outstanding_requested_bytes() const { return outstanding_; }

 private:
  struct PendingGrant {
    sim::TimePoint usable_from;
    std::uint32_t bytes = 0;
  };

  RanConfig config_;
  std::deque<PendingGrant> pending_;
  /// Bytes already promised to the UE (issued or pending). New BSRs only
  /// request the excess over this — but crucially nobody accounts for the
  /// bytes *proactive* grants drain during the scheduling delay, which is
  /// exactly the over-granting bug of §3.1.
  std::uint32_t outstanding_ = 0;
};

/// Runtime-switchable policy pair: the actuation seam the mitigation
/// control plane drives. Wraps a `baseline` and an `alternate` policy;
/// a mode knob selects which one issues grants, while *both* observe
/// every BSR decode and TB fill so the inactive policy keeps learning
/// and a switch takes effect with warm state. A clamped
/// `proactive_scale` knob additionally shrinks/boosts proactive grant
/// sizes (the §3.1 over-granting dial).
///
/// Switching consumes slot decisions from only the active policy; the
/// inactive one's pending-grant bookkeeping can go stale across long
/// active stretches, which is safe (grants are re-clamped to available
/// capacity every slot) but means a revert resumes conservatively.
class TunableGrantPolicy final : public GrantPolicy {
 public:
  static constexpr double kMinProactiveScale = 0.25;
  static constexpr double kMaxProactiveScale = 4.0;

  TunableGrantPolicy(std::unique_ptr<GrantPolicy> baseline,
                     std::unique_ptr<GrantPolicy> alternate);

  Decision OnUplinkSlot(const SlotInfo& slot) override;
  void OnBsrDecoded(sim::TimePoint decoded_at, std::uint32_t reported_bytes) override;
  void OnTbFilled(sim::TimePoint slot_time, const Decision& grant,
                  std::uint32_t used_bytes) override;
  [[nodiscard]] bool HasDueRequest(sim::TimePoint slot_time) const override {
    return active().HasDueRequest(slot_time);
  }

  /// Knob: selects the grant-issuing policy. Rejects the switch when no
  /// alternate was provided (returns false).
  bool set_use_alternate(bool use_alternate);
  [[nodiscard]] bool use_alternate() const { return use_alternate_; }

  /// Knob: scales proactive grants, clamped to [0.25, 4]. NaN is rejected
  /// with ATHENA_CHECK. Returns the value actually applied.
  double set_proactive_scale(double scale);
  [[nodiscard]] double proactive_scale() const { return proactive_scale_; }

  [[nodiscard]] GrantPolicy& baseline() { return *baseline_; }
  [[nodiscard]] GrantPolicy* alternate() { return alternate_.get(); }
  [[nodiscard]] std::uint64_t mode_switches() const { return mode_switches_; }

 private:
  [[nodiscard]] GrantPolicy& active() const {
    return (use_alternate_ && alternate_) ? *alternate_ : *baseline_;
  }

  std::unique_ptr<GrantPolicy> baseline_;
  std::unique_ptr<GrantPolicy> alternate_;
  bool use_alternate_ = false;
  double proactive_scale_ = 1.0;
  std::uint64_t mode_switches_ = 0;
};

}  // namespace athena::ran
