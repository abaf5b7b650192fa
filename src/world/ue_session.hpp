// One UE's end-to-end conferencing session inside the world.
//
// Mirrors the single-session harness (app/session.hpp) but the uplink
// is a *shared* cell reached through the mailbox: sender → capture ① →
// kUplink to the serving cell; decoded packets come back as
// kCoreDelivery → capture ② → WAN link → capture ④ → receiver. The
// feedback path (TWCC/NACK) is a session-local fixed link — the paper's
// downlink is not the bottleneck and is not contended here.
//
// Mobility: the session owns its handover schedule. At each planned
// time it stops posting uplink traffic (buffering datagrams locally —
// the UE-side RRC stall), posts kDetach to the serving cell, and on
// kAttached from the new cell flushes the buffer and resumes. The
// radio-side state travels cell-to-cell without touching the session.
//
// Determinism: everything here runs on the session's home shard with
// RNG streams derived from the per-UE seed, so behaviour is a pure
// function of (world seed, ue) regardless of shard layout.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "app/controller.hpp"
#include "app/receiver.hpp"
#include "app/sender.hpp"
#include "cc/gcc.hpp"
#include "core/correlator.hpp"
#include "media/qoe.hpp"
#include "net/capture.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "ran/config.hpp"
#include "sim/simulator.hpp"
#include "world/mailbox.hpp"

namespace athena::world {

class UeSession final : public Entity {
 public:
  struct HandoverPlan {
    sim::TimePoint at{};
    EntityId target_cell = 0;
  };

  struct Config {
    std::uint32_t ue = 0;
    EntityId initial_cell = 0;
    std::uint64_t seed = 0;  ///< per-UE seed (already DeriveSeed'd)
    sim::Duration lookahead{std::chrono::milliseconds{1}};
    sim::Duration wan_delay{std::chrono::milliseconds{10}};
    sim::Duration wan_jitter{std::chrono::microseconds{300}};
    sim::Duration feedback_delay{std::chrono::milliseconds{22}};
    app::VcaSender::Config sender{};
    app::VcaReceiver::Config receiver{};
    cc::GoogCc::Config gcc{};
    std::vector<HandoverPlan> handovers;
  };

  UeSession(sim::Simulator& sim, Config config, std::function<void(WorldMsg&&)> post);

  void Start();
  void Stop();
  void OnMessage(WorldMsg& msg) override;

  /// Quarantine evacuation (engine-driven, at a window boundary `at`):
  /// schedules a forced handover to `target` just after `at`. If a
  /// planned handover races in first the attempt stands down and the
  /// engine's next boundary sweep retries. Idempotent while pending.
  void ScheduleEvacuation(EntityId target, sim::TimePoint at);

  /// Marks this UE as unable to leave its quarantined cell before the
  /// run ends (the engine books it stranded; its packets stay in_flight).
  void MarkStranded() { stranded_ = true; }

  /// Builds the correlator input for this session: a view of captures
  /// ①②④ plus the UE's (cross-cell) telemetry stream, which must outlive
  /// it. `cell` is adjusted for the mailbox hops so the correlator's
  /// slot-eligibility replay matches what the shared cell actually did.
  [[nodiscard]] core::CorrelatorInput BuildCorrelatorInput(
      std::span<const ran::TbRecord> telemetry, const ran::RanConfig& cell) const;
  core::CorrelatorInput BuildCorrelatorInput(std::vector<ran::TbRecord>&&,
                                             const ran::RanConfig&) const = delete;

  [[nodiscard]] const media::QoeCollector& qoe() const { return qoe_; }
  [[nodiscard]] EntityId serving_cell() const { return serving_cell_; }
  [[nodiscard]] std::uint64_t uplink_posted() const { return uplink_posted_; }
  [[nodiscard]] std::uint64_t core_received() const { return core_received_; }
  [[nodiscard]] std::uint64_t handovers_completed() const { return handovers_completed_; }
  [[nodiscard]] std::size_t buffered_pending() const { return buffer_.size(); }
  [[nodiscard]] bool in_handover() const { return in_handover_; }
  [[nodiscard]] bool evacuation_pending() const { return evac_pending_; }
  [[nodiscard]] bool stranded() const { return stranded_; }
  [[nodiscard]] std::uint64_t forced_handovers() const { return forced_handovers_; }
  [[nodiscard]] std::uint64_t media_packets_sent() const {
    return sender_->media_packets_sent();
  }
  [[nodiscard]] std::uint64_t packets_received() const {
    return receiver_->packets_received();
  }

  /// Appends this session's deterministic state words to the world digest.
  void AppendDigest(std::vector<std::uint64_t>& out) const;

 private:
  void PostUplink(const net::Packet& p);
  void BeginHandover(EntityId target);

  sim::Simulator& sim_;
  Config config_;
  std::function<void(WorldMsg&&)> post_;

  net::PacketIdGenerator ids_;
  media::QoeCollector qoe_;
  net::CapturePoint cap_sender_;    // ① UE egress (before the cell)
  net::CapturePoint cap_core_;      // ② mobile-core ingress
  net::CapturePoint cap_receiver_;  // ④ receiver ingress
  std::unique_ptr<net::FixedDelayLink> wan_;       // core → receiver
  std::unique_ptr<net::FixedDelayLink> feedback_;  // receiver → sender
  std::unique_ptr<app::VcaSender> sender_;
  std::unique_ptr<app::VcaReceiver> receiver_;

  EntityId serving_cell_ = 0;
  bool in_handover_ = false;
  bool evac_pending_ = false;  ///< a forced (quarantine) handover is underway
  bool stranded_ = false;      ///< left on a quarantined cell (no time to move)
  std::vector<net::Packet> buffer_;  ///< uplink datagrams held during handover
  std::uint64_t next_seq_ = 0;
  std::uint64_t uplink_posted_ = 0;
  std::uint64_t core_received_ = 0;
  std::uint64_t handovers_completed_ = 0;
  std::uint64_t forced_handovers_ = 0;
};

}  // namespace athena::world
