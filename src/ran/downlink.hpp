// The 5G downlink: deliberately simple. §2's takeaway (c): "the WAN, and
// importantly, the 5G RAN downlink provide low and stable delay" — DL
// slots occur 4× as often as UL slots, and the gNB needs no grant cycle to
// transmit. We model slot alignment on the dense DL grid plus a fixed
// RAN-processing delay.
#pragma once

#include <cstdint>

#include "net/packet.hpp"
#include "ran/config.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace athena::ran {

class DownlinkPath {
 public:
  struct Config {
    /// Fixed core→gNB→UE processing and transmission time.
    sim::Duration base_delay{std::chrono::milliseconds{4}};
    /// DL slot spacing: a packet waits at most this long for its slot.
    sim::Duration dl_slot_spacing{std::chrono::microseconds{625}};
    double loss_probability = 0.0;
  };

  DownlinkPath(sim::Simulator& sim, Config config, sim::Rng rng)
      : sim_(sim), config_(config), rng_(rng) {}

  /// Convenience: takes the DL slot spacing from a RAN config.
  static DownlinkPath ForCell(sim::Simulator& sim, const RanConfig& cell, sim::Rng rng) {
    Config c;
    c.dl_slot_spacing = cell.DlSlotPeriod();
    return DownlinkPath{sim, c, rng};
  }

  void Send(const net::Packet& p);

  void set_ue_sink(net::PacketHandler sink) { sink_ = std::move(sink); }
  [[nodiscard]] net::PacketHandler AsHandler() {
    return [this](const net::Packet& p) { Send(p); };
  }

  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

 private:
  sim::Simulator& sim_;
  Config config_;
  sim::Rng rng_;
  net::PacketHandler sink_;
  sim::TimePoint last_delivery_;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace athena::ran
