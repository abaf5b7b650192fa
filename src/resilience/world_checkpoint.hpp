// Windowed world checkpoints for the sharded multi-cell engine.
//
// A WorldSnapshot is the world-scale analogue of the session Checkpoint
// (checkpoint.hpp): a versioned, FNV-1a-checksummed witness of the whole
// world at a conservative window boundary — every shard's deterministic
// state folded into one digest, plus every pending mailbox/exchange
// message reduced to its canonical-order record. Like the session
// format, restore is *replay-based*: live event queues hold closures and
// cannot be serialized, but the world is a pure function of
// (WorldConfig, seed), so a fresh engine replays windows 1..k and the
// snapshot verifies — byte-for-byte on both the state digest and the
// canonical mailbox records — that the replay reproduced the exact
// pre-crash world before it continues. A snapshot is therefore
// layout-invariant: taken at 8 threaded shards, it restores a 1-shard
// sequential run (and vice versa), because nothing in it names a shard.
//
// Corrupt, truncated, or wrong-config snapshots are rejected with
// CheckpointError before any field is trusted, exactly like the session
// format.
#pragma once

#include <cstdint>
#include <vector>

#include "resilience/checkpoint.hpp"
#include "world/config.hpp"
#include "world/engine.hpp"
#include "world/mailbox.hpp"

namespace athena::resilience {

/// Digest of the WorldConfig fields that shape the simulation. Layout
/// knobs (shards, threaded, correlate_jobs) and fault-injection
/// knobs (crash point, quarantines) are deliberately excluded: the world
/// digest is layout-invariant, and a supervisor must be able to restore
/// a pre-fault snapshot under an updated fault plan — the replayed state
/// digest, not the fingerprint, is what catches behavioural divergence.
[[nodiscard]] std::uint64_t WorldConfigFingerprint(const world::WorldConfig& config);

/// One snapshot of the whole world at window boundary k.
struct WorldSnapshot {
  static constexpr std::uint32_t kVersion = 1;

  // --- identity ---
  std::uint64_t config_fingerprint = 0;
  std::uint64_t seed = 0;

  // --- progress ---
  std::uint64_t window = 0;       ///< boundary index k (1-based)
  std::int64_t virtual_us = 0;    ///< W_k, the boundary's virtual time
  std::uint64_t windows_total = 0;

  // --- observable state ---
  std::uint64_t state_digest = 0;  ///< engine.Digest() at the boundary
  /// Every pending mailbox message, canonical (arrival, src, seq) order.
  std::vector<world::WorldMsgRecord> mailbox;

  /// Serializes to the versioned binary format (magic + header + record
  /// payload + trailing FNV-1a checksum), little-endian byte-by-byte.
  void Serialize(std::vector<std::uint8_t>& out) const;
  [[nodiscard]] std::size_t SerializedBytes() const;
  void WriteFile(const std::string& path) const;

  /// Parses and validates a serialized snapshot. Throws CheckpointError
  /// with a diagnostic on bad magic, unsupported version, truncation or
  /// a checksum mismatch — never returns garbage.
  [[nodiscard]] static WorldSnapshot Deserialize(const std::uint8_t* data,
                                                 std::size_t size);
  [[nodiscard]] static WorldSnapshot LoadFile(const std::string& path);
};

/// Builds a snapshot from a live engine at window boundary `window`.
/// Call only where the engine guarantees quiescence: from a window hook
/// (all shards parked at the barrier) or after Run() returns.
[[nodiscard]] WorldSnapshot SnapshotWorld(const world::WorldEngine& engine,
                                          std::uint64_t window);

/// Explains how a replayed boundary differs from a snapshot — digest
/// mismatch, mailbox length skew, or the first diverging record — for
/// CheckpointError diagnostics.
[[nodiscard]] std::string DescribeWorldDivergence(
    const WorldSnapshot& expected, std::uint64_t replayed_digest,
    const std::vector<world::WorldMsgRecord>& replayed_mailbox);

}  // namespace athena::resilience
