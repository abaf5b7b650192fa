// §5.2, second flavor: a learning scheduler in the RAN (e.g. deployed as
// an xApp on a Real-Time RIC): "the base stations can use machine learning
// to learn the current transmission patterns, and predict future traffic
// demands to precisely issue grants."
//
// The predictor observes only what the scheduler legitimately sees — the
// fill level of every granted TB — detects the periodic burst structure of
// VCA traffic (a frame roughly every 33/66 ms of roughly stable size), and
// pre-issues a right-sized grant at each predicted burst time. Unpredicted
// demand falls back to the BSR baseline.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>

#include "ran/grant_policy.hpp"

namespace athena::mitigation {

class TrafficPredictorPolicy : public ran::GrantPolicy {
 public:
  struct Config {
    /// Slots with at least this many payload bytes count as burst activity.
    std::uint32_t activity_threshold_bytes = 600;
    /// Gap (in slots) of inactivity that terminates a burst.
    std::uint32_t burst_gap_slots = 2;
    std::size_t history = 32;        ///< bursts remembered
    std::size_t min_bursts_to_predict = 8;
    double size_margin = 1.30;
    /// Periods outside this range are treated as noise.
    sim::Duration min_period{std::chrono::milliseconds{10}};
    sim::Duration max_period{std::chrono::milliseconds{120}};
  };

  explicit TrafficPredictorPolicy(const ran::RanConfig& cell);  // default config
  TrafficPredictorPolicy(const ran::RanConfig& cell, Config config);

  Decision OnUplinkSlot(const SlotInfo& slot) override;
  void OnBsrDecoded(sim::TimePoint decoded_at, std::uint32_t reported_bytes) override;
  void OnTbFilled(sim::TimePoint slot_time, const Decision& grant,
                  std::uint32_t used_bytes) override;
  /// The fallback's BSR-requested grants keep their first-decision
  /// priority in a shared cell.
  [[nodiscard]] bool HasDueRequest(sim::TimePoint slot_time) const override {
    return fallback_.HasDueRequest(slot_time);
  }

  /// Learned period (nullopt until confident).
  [[nodiscard]] std::optional<sim::Duration> learned_period() const;
  [[nodiscard]] double learned_burst_bytes() const { return burst_bytes_ewma_; }
  [[nodiscard]] std::uint64_t predicted_grants() const { return predicted_grants_; }

 private:
  struct Burst {
    sim::TimePoint start;
    std::uint32_t bytes = 0;
  };

  void CloseBurst();

  ran::RanConfig cell_;
  Config config_;
  ran::BsrGrantPolicy fallback_;

  // Burst detection state.
  bool in_burst_ = false;
  Burst current_burst_;
  std::uint32_t idle_slots_ = 0;
  std::deque<Burst> bursts_;
  double burst_bytes_ewma_ = 0.0;

  // Prediction state.
  std::optional<sim::TimePoint> next_predicted_;
  std::uint64_t predicted_grants_ = 0;
};

}  // namespace athena::mitigation
