// Seeded mutation fuzzing of the three binary decoders: the session
// checkpoint (ATHCKPT), the world snapshot (ATHWSNP) and the ATHC
// columnar trace.
//
// The corpus is one real encoding of each. Mutations come from a seeded
// sim::Rng: bit flips, byte overwrites, truncation, extension, and count
// or length fields set to random or extreme values. Half of the blind
// mutations, and every count mutation, are re-sealed (the snapshot
// trailer or the ATHC block checksum recomputed) so the body decoders run
// instead of stopping at the checksum.
//
// The invariant: a decode returns a value or throws the decoder's
// documented type, CheckpointError for the snapshots and
// std::runtime_error for ATHC. Anything else (std::length_error from a
// reserve sized by a lying count, std::bad_alloc) fails the test.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <vector>

#include <gtest/gtest.h>

#include "app/session.hpp"
#include "obs/pipeline/columnar.hpp"
#include "obs/trace.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/world_checkpoint.hpp"
#include "sim/bytes.hpp"
#include "sim/digest.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "world/engine.hpp"

namespace athena {
namespace {

using namespace std::chrono_literals;
using Bytes = std::vector<std::uint8_t>;
using resilience::CheckpointError;

constexpr std::uint64_t kExtremes[] = {0,
                                       1,
                                       0x7fffffff,
                                       0xffffffff,
                                       std::uint64_t{1} << 32,
                                       std::uint64_t{1} << 62,
                                       std::uint64_t{1} << 63,
                                       std::numeric_limits<std::uint64_t>::max()};

// Byte offsets of the snapshot count fields: the frame header (8-byte
// magic, version, reserved) and then the fixed fields before them.
constexpr std::size_t kCheckpointCountsAt = 16 + 8 * 8;  // telemetry, sender, core, receiver
constexpr std::size_t kSnapshotCountAt = 16 + 6 * 8;     // mailbox records
constexpr std::size_t kSnapshotRecordBytes = 41;
constexpr std::size_t kAthcHeaderBytes = 8;   // magic + version
constexpr std::size_t kBlockHeaderBytes = 13;  // kind + u32 length + u64 checksum
constexpr std::uint8_t kEventsKind = 3;

// --- corpus ---

Bytes SessionCheckpoint() {
  resilience::RunPlan plan;
  plan.duration = 1s;
  plan.checkpoint_every = 600ms;
  std::optional<resilience::Checkpoint> latest;
  plan.on_checkpoint = [&latest](const resilience::Checkpoint& c) { latest = c; };
  (void)resilience::CheckpointingDriver{plan}.Run();
  Bytes bytes;
  latest.value().Serialize(bytes);
  return bytes;
}

Bytes WorldSnapshotWithMail() {
  world::WorldConfig config;
  config.ues = 8;
  config.cells = 4;
  config.shards = 1;
  config.threaded = false;
  config.duration = sim::Duration{100ms};
  config.handover_every = 2;
  world::WorldEngine engine{config};
  std::optional<resilience::WorldSnapshot> snapshot;
  engine.set_window_hook([&](std::uint64_t k) {
    if (k == 50) snapshot = resilience::SnapshotWorld(engine, k);
  });
  (void)engine.Run();
  EXPECT_FALSE(snapshot.value().mailbox.empty());
  Bytes bytes;
  snapshot->Serialize(bytes);
  return bytes;
}

Bytes TracedSessionStream() {
  std::ostringstream out;
  obs::pipeline::ColumnarWriter writer{out};
  {
    obs::ScopedTraceSink scope{&writer};
    sim::Simulator simulator;
    app::Session session{simulator, app::SessionConfig{}};
    session.Run(200ms);
  }
  writer.Finish();
  const std::string s = out.str();
  return Bytes(s.begin(), s.end());
}

// --- decoders and the invariant ---

void DecodeCheckpoint(const Bytes& b) {
  (void)resilience::Checkpoint::Deserialize(b.data(), b.size());
}

void DecodeSnapshot(const Bytes& b) {
  (void)resilience::WorldSnapshot::Deserialize(b.data(), b.size());
}

void DecodeColumnar(const Bytes& b) {
  std::istringstream in{std::string(b.begin(), b.end())};
  obs::pipeline::ColumnarReader reader{in};
  std::vector<obs::TraceEvent> block;
  while (reader.NextBlock(block)) {
  }
  (void)reader.VerifyFooter();
}

/// Empty when `decode` returned or threw `Documented`; otherwise what
/// else it threw.
template <class Documented>
std::string StrayException(void (*decode)(const Bytes&), const Bytes& bytes) {
  try {
    decode(bytes);
  } catch (const Documented&) {
  } catch (const std::exception& e) {
    return std::string(typeid(e).name()) + ": " + e.what();
  } catch (...) {
    return "a non-std exception";
  }
  return {};
}

// --- sealing and field surgery ---

void SealSnapshot(Bytes& b) {
  if (b.size() < 8) return;
  b.resize(b.size() - 8);
  sim::ByteWriter{b}.SealFrame();
}

void PutU64(Bytes& b, std::size_t at, std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i) b[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

struct Block {
  std::size_t at;  ///< offset of the kind byte
  std::uint8_t kind;
  std::uint32_t length;
};

std::vector<Block> BlocksOf(const Bytes& stream) {
  std::vector<Block> blocks;
  for (std::size_t at = kAthcHeaderBytes; at + kBlockHeaderBytes <= stream.size();) {
    sim::ByteReader<std::runtime_error> r{std::span(stream).subspan(at, 5), "test"};
    const std::uint8_t kind = r.U8();
    const std::uint32_t length = r.U32();
    blocks.push_back({at, kind, length});
    at += kBlockHeaderBytes + length;
  }
  return blocks;
}

/// Recomputes the checksum of the block whose payload holds `offset`.
void SealBlockAt(Bytes& stream, const std::vector<Block>& blocks, std::size_t offset) {
  for (const Block& block : blocks) {
    const std::size_t payload = block.at + kBlockHeaderBytes;
    if (offset >= payload && offset < payload + block.length) {
      PutU64(stream, block.at + 5,
             sim::Fnv1aOf(std::span(stream).subspan(payload, block.length)));
    }
  }
}

/// The stream with `block`'s leading varint count replaced by `count`,
/// its length and checksum rewritten to match.
Bytes WithBlockCount(const Bytes& stream, const Block& block, std::uint64_t count) {
  const auto old_payload =
      std::span(stream).subspan(block.at + kBlockHeaderBytes, block.length);
  sim::ByteReader<std::runtime_error> r{old_payload, "test"};
  (void)r.Varint();
  Bytes payload;
  sim::ByteWriter p{payload};
  p.Varint(count);
  payload.insert(payload.end(), old_payload.end() - static_cast<std::ptrdiff_t>(r.remaining()),
                 old_payload.end());

  Bytes out(stream.begin(), stream.begin() + static_cast<std::ptrdiff_t>(block.at));
  sim::ByteWriter w{out};
  w.U8(block.kind);
  w.U32(static_cast<std::uint32_t>(payload.size()));
  w.U64(sim::Fnv1aOf(payload));
  out.insert(out.end(), payload.begin(), payload.end());
  out.insert(out.end(),
             stream.begin() + static_cast<std::ptrdiff_t>(block.at + kBlockHeaderBytes +
                                                          block.length),
             stream.end());
  return out;
}

std::uint64_t RandomOrExtreme(sim::Rng& rng) {
  if (rng.Bernoulli(0.5)) {
    return kExtremes[rng.UniformInt(0, std::ssize(kExtremes) - 1)];
  }
  return rng.engine()();
}

/// One blind mutation: a bit flip, a byte overwrite, a truncation or an
/// extension. Returns the offset it touched.
std::size_t MutateBlindly(Bytes& b, sim::Rng& rng) {
  const auto at = [&] {
    return static_cast<std::size_t>(rng.UniformInt(0, std::ssize(b) - 1));
  };
  switch (rng.UniformInt(0, 3)) {
    case 0: {
      const std::size_t i = at();
      b[i] ^= static_cast<std::uint8_t>(1u << rng.UniformInt(0, 7));
      return i;
    }
    case 1: {
      const std::size_t i = at();
      b[i] = static_cast<std::uint8_t>(rng.UniformInt(0, 255));
      return i;
    }
    case 2:
      b.resize(at());
      return b.size();
    default:
      for (std::int64_t n = rng.UniformInt(1, 64); n > 0; --n) {
        b.push_back(static_cast<std::uint8_t>(rng.UniformInt(0, 255)));
      }
      return b.size() - 1;
  }
}

/// Multiplicative inverse of an odd number modulo 2^64 (Newton's method).
std::uint64_t InverseMod2To64(std::uint64_t odd) {
  std::uint64_t x = odd;
  for (int i = 0; i < 6; ++i) x *= 2 - odd * x;
  return x;
}

// --- crafted cases: each wrapped a count check or sized an allocation by
// a lying field before the shared checked count existed ---

TEST(CodecFuzzTest, CraftedCountsThrowTheDecodersType) {
  // ATHCKPT: telemetry and sender counts of 2^63 each sum to zero.
  Bytes checkpoint = SessionCheckpoint();
  PutU64(checkpoint, kCheckpointCountsAt, std::uint64_t{1} << 63);
  PutU64(checkpoint, kCheckpointCountsAt + 8, std::uint64_t{1} << 63);
  SealSnapshot(checkpoint);
  EXPECT_EQ(StrayException<CheckpointError>(DecodeCheckpoint, checkpoint), "");

  // ATHWSNP: one extra body byte, and a count whose product with the
  // record size wraps to exactly the body size.
  Bytes snapshot = WorldSnapshotWithMail();
  snapshot.insert(snapshot.end() - 8, 0);
  const std::size_t body = snapshot.size() - 8 - (kSnapshotCountAt + 8);
  const std::uint64_t wrapping = body * InverseMod2To64(kSnapshotRecordBytes);
  ASSERT_EQ(wrapping * kSnapshotRecordBytes, body);
  PutU64(snapshot, kSnapshotCountAt, wrapping);
  SealSnapshot(snapshot);
  EXPECT_EQ(StrayException<CheckpointError>(DecodeSnapshot, snapshot), "");

  // ATHC: an events block claiming 2^62 events.
  const Bytes stream = TracedSessionStream();
  const std::vector<Block> blocks = BlocksOf(stream);
  const auto events =
      std::find_if(blocks.begin(), blocks.end(), [](const Block& b) { return b.kind == kEventsKind; });
  ASSERT_NE(events, blocks.end());
  const Bytes lying = WithBlockCount(stream, *events, std::uint64_t{1} << 62);
  EXPECT_EQ(StrayException<std::runtime_error>(DecodeColumnar, lying), "");
}

TEST(CodecFuzzTest, BlockLengthIsNotAllocatedBeforeItsBytesExist) {
  // A 13-byte block header claiming a 4 GiB payload that is not there.
  Bytes stream = TracedSessionStream();
  stream.resize(kAthcHeaderBytes);
  sim::ByteWriter w{stream};
  w.U8(kEventsKind);
  w.U32(0xffffffffu);
  w.U64(0);
  rusage before{};
  getrusage(RUSAGE_SELF, &before);
  EXPECT_THROW(DecodeColumnar(stream), std::runtime_error);
  rusage after{};
  getrusage(RUSAGE_SELF, &after);
  EXPECT_LT(after.ru_maxrss - before.ru_maxrss, 256 * 1024) << "KiB of peak RSS growth";
}

// --- seeded mutations ---

TEST(CodecFuzzTest, MutatedCheckpointsThrowOnlyCheckpointError) {
  const Bytes corpus = SessionCheckpoint();
  sim::Rng rng{0xc0ffee};
  for (int i = 0; i < 1000; ++i) {
    Bytes b = corpus;
    if (rng.Bernoulli(0.3)) {
      const std::size_t field = static_cast<std::size_t>(rng.UniformInt(0, 3));
      PutU64(b, kCheckpointCountsAt + 8 * field, RandomOrExtreme(rng));
      SealSnapshot(b);
    } else {
      (void)MutateBlindly(b, rng);
      if (rng.Bernoulli(0.5)) SealSnapshot(b);
    }
    const std::string stray = StrayException<CheckpointError>(DecodeCheckpoint, b);
    ASSERT_EQ(stray, "") << "mutation " << i;
  }
}

TEST(CodecFuzzTest, MutatedWorldSnapshotsThrowOnlyCheckpointError) {
  const Bytes corpus = WorldSnapshotWithMail();
  sim::Rng rng{0x5eed};
  for (int i = 0; i < 3000; ++i) {
    Bytes b = corpus;
    if (rng.Bernoulli(0.3)) {
      PutU64(b, kSnapshotCountAt, RandomOrExtreme(rng));
      SealSnapshot(b);
    } else {
      (void)MutateBlindly(b, rng);
      if (rng.Bernoulli(0.5)) SealSnapshot(b);
    }
    const std::string stray = StrayException<CheckpointError>(DecodeSnapshot, b);
    ASSERT_EQ(stray, "") << "mutation " << i;
  }
}

TEST(CodecFuzzTest, MutatedColumnarStreamsThrowOnlyRuntimeError) {
  const Bytes corpus = TracedSessionStream();
  const std::vector<Block> blocks = BlocksOf(corpus);
  ASSERT_GT(blocks.size(), 3u);
  sim::Rng rng{0xa7c};
  for (int i = 0; i < 1000; ++i) {
    Bytes b = corpus;
    const Block& block =
        blocks[static_cast<std::size_t>(rng.UniformInt(0, std::ssize(blocks) - 1))];
    switch (rng.UniformInt(0, 2)) {
      case 0:  // a dict, events or footer count
        b = WithBlockCount(corpus, block, RandomOrExtreme(rng));
        break;
      case 1: {  // a block's length field
        const std::uint64_t length = RandomOrExtreme(rng);
        for (int k = 0; k < 4; ++k) {
          b[block.at + 1 + static_cast<std::size_t>(k)] =
              static_cast<std::uint8_t>(length >> (8 * k));
        }
        break;
      }
      default: {
        const std::size_t at = MutateBlindly(b, rng);
        if (b.size() == corpus.size() && rng.Bernoulli(0.5)) SealBlockAt(b, blocks, at);
        break;
      }
    }
    const std::string stray = StrayException<std::runtime_error>(DecodeColumnar, b);
    ASSERT_EQ(stray, "") << "mutation " << i;
  }
}

}  // namespace
}  // namespace athena
