// Telemetry record types: what a PHY-layer control-channel sniffer
// (NG-Scope in the paper) exposes, and the ground-truth records the
// simulator additionally keeps so tests can validate Athena's correlation
// without the correlator ever reading them.
#pragma once

#include <cstdint>
#include <vector>

#include "net/packet.hpp"
#include "sim/time.hpp"

namespace athena::ran {

enum class GrantType : std::uint8_t {
  kProactive,  ///< pre-allocated, no BSR involved
  kRequested,  ///< allocated in response to a BSR
};

[[nodiscard]] const char* ToString(GrantType g);

using TbId = std::uint64_t;

/// One transport-block *transmission* as seen on the control channel: each
/// HARQ round of the same TB yields its own record, linked by `chain_id`.
/// This is the schema the Athena correlator consumes (DESIGN.md §1:
/// NG-Scope substitution).
struct TbRecord {
  TbId tb_id = 0;        ///< unique per transmission
  TbId chain_id = 0;     ///< tb_id of the chain's first transmission
  sim::TimePoint slot_time;
  GrantType grant = GrantType::kProactive;
  std::uint32_t tbs_bytes = 0;   ///< granted transport-block size
  std::uint32_t used_bytes = 0;  ///< RLC payload actually carried (rest is padding)
  std::uint8_t harq_round = 0;   ///< 0 = first transmission
  bool crc_ok = true;            ///< decode outcome of this transmission
};

/// Ground truth: which packet bytes a TB chain carried. Tests compare the
/// correlator's inferred mapping against this; the correlator itself must
/// work only from TbRecord + packet captures (matching by time and size),
/// exactly like the real system.
struct SegmentTruth {
  net::PacketId packet_id = 0;
  std::uint32_t bytes = 0;
  bool last_segment = false;
};

struct TbTruth {
  TbId chain_id = 0;
  std::vector<SegmentTruth> segments;
};

/// Aggregate RAN counters for efficiency reporting (over-granting, empty-TB
/// retransmissions — the §3 waste findings).
struct RanCounters {
  std::uint64_t tb_transmissions = 0;
  std::uint64_t tb_new = 0;
  std::uint64_t tb_rtx = 0;
  std::uint64_t tb_failed = 0;
  std::uint64_t tb_dropped_chains = 0;
  std::uint64_t empty_tb_transmissions = 0;  ///< fully padded TBs
  std::uint64_t empty_tb_rtx = 0;            ///< the paper's "retransmit empty TBs" waste
  std::uint64_t granted_bytes = 0;
  std::uint64_t used_bytes = 0;
  std::uint64_t wasted_requested_bytes = 0;  ///< over-granting (§3.1)
  std::uint64_t wasted_proactive_bytes = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t packets_lost = 0;
  std::uint64_t bsr_sent = 0;
  std::uint64_t ecn_marked = 0;  ///< L4S-style marks applied by the modem

  [[nodiscard]] double GrantUtilization() const {
    return granted_bytes ? static_cast<double>(used_bytes) / static_cast<double>(granted_bytes)
                         : 0.0;
  }
};

}  // namespace athena::ran
