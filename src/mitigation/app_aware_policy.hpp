// §5.2, first flavor: an application-aware uplink scheduler.
//
// "Video-conferencing packets can be annotated (e.g., through RTP
// extensions) with media-level metadata … the number of streams, their
// sampling/frame rates, and a periodically updated estimate of the current
// frame size. Using this information, the base station can issue grants
// exactly at the right times when a sample or frame is generated."
//
// The policy keeps one predictor per announced stream, grants the whole
// estimated unit size at the first uplink slot the unit can make, and
// falls back to the baseline BSR machinery for anything unpredicted.
#pragma once

#include <cstdint>
#include <vector>

#include "ran/grant_policy.hpp"

namespace athena::mitigation {

/// Media-pattern metadata as carried by the RTP header extension.
struct StreamAnnouncement {
  std::uint32_t stream_id = 0;
  sim::TimePoint next_unit_at;     ///< generation time of the next frame/sample
  sim::Duration unit_interval{0};  ///< frame/sample spacing
  std::uint32_t unit_bytes = 0;    ///< current size estimate (on-the-wire)
};

class AppAwareGrantPolicy : public ran::GrantPolicy {
 public:
  struct Config {
    /// Grant head-room over the announced size (frame sizes vary a little;
    /// an undersized grant would reintroduce a BSR round trip).
    double size_margin = 1.25;
    /// Stop trusting an announcement this long after its horizon.
    sim::Duration announcement_ttl{std::chrono::seconds{2}};
  };

  explicit AppAwareGrantPolicy(const ran::RanConfig& cell);  // default config
  AppAwareGrantPolicy(const ran::RanConfig& cell, Config config);

  /// Updated announcements from the application (periodically refreshed).
  void Announce(const StreamAnnouncement& announcement);

  Decision OnUplinkSlot(const SlotInfo& slot) override;
  void OnBsrDecoded(sim::TimePoint decoded_at, std::uint32_t reported_bytes) override;
  void OnTbFilled(sim::TimePoint slot_time, const Decision& grant,
                  std::uint32_t used_bytes) override;
  /// The fallback's BSR-requested grants keep their first-decision
  /// priority in a shared cell.
  [[nodiscard]] bool HasDueRequest(sim::TimePoint slot_time) const override {
    return fallback_.HasDueRequest(slot_time);
  }

  [[nodiscard]] std::uint64_t predicted_grants() const { return predicted_grants_; }
  [[nodiscard]] std::uint64_t fallback_grants() const { return fallback_grants_; }

 private:
  struct Stream {
    StreamAnnouncement info;
    sim::TimePoint next_due;  ///< next unit not yet granted
    bool active = false;
  };

  ran::RanConfig cell_;
  Config config_;
  ran::BsrGrantPolicy fallback_;
  std::vector<Stream> streams_;
  sim::TimePoint prev_slot_;
  std::uint64_t predicted_grants_ = 0;
  std::uint64_t fallback_grants_ = 0;
};

}  // namespace athena::mitigation
