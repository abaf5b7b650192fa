#include "resilience/world_checkpoint.hpp"

#include <sstream>

#include "sim/barrier.hpp"
#include "sim/bytes.hpp"

namespace athena::resilience {

std::uint64_t WorldConfigFingerprint(const world::WorldConfig& config) {
  // A drift detector, not a cryptographic identity: covers every scalar
  // knob that shapes the simulation. Layout and fault-injection knobs
  // are excluded on purpose (see the header).
  StateDigest d;
  d.Mix(config.seed);
  d.Mix(config.ues);
  d.Mix(config.cells);
  d.Mix(static_cast<std::uint64_t>(config.duration.count()));
  d.Mix(static_cast<std::uint64_t>(config.link_latency.count()));
  d.Mix(config.cell, config.channel);
  d.Mix(config.handover_every);
  d.Mix(static_cast<std::uint64_t>(config.handover_latency.count()));
  d.Mix(static_cast<std::uint64_t>(config.wan_delay.count()));
  d.Mix(static_cast<std::uint64_t>(config.wan_jitter.count()));
  d.Mix(static_cast<std::uint64_t>(config.feedback_delay.count()));
  d.Mix(config.outage_cell);
  d.Mix(static_cast<std::uint64_t>(config.outage_start.us()));
  d.Mix(static_cast<std::uint64_t>(config.outage_end.us()));
  d.Mix(config.scenario);
  return d.value();
}

// ---------------------------------------------------------------------------
// Binary format
// ---------------------------------------------------------------------------
//
// A sim/bytes.hpp frame with magic "ATHWSNP\n" around:
//   header fields (fixed-width little-endian), then the mailbox records
//   (41 bytes each).

namespace {

constexpr std::string_view kMagic{"ATHWSNP\n"};
constexpr std::string_view kWhat{"world snapshot"};
constexpr std::size_t kRecordBytes = 1 + 4 + 4 + 8 + 8 + 4 + 4 + 8;
constexpr std::size_t kHeaderBytes = 8 + 4 + 4 + 6 * 8 + 8;  // magic..count

}  // namespace

void WorldSnapshot::Serialize(std::vector<std::uint8_t>& out) const {
  out.clear();
  out.reserve(SerializedBytes());
  sim::ByteWriter w{out};
  w.BeginFrame(kMagic, kVersion);
  w.U64(config_fingerprint);
  w.U64(seed);
  w.U64(window);
  w.I64(virtual_us);
  w.U64(windows_total);
  w.U64(state_digest);
  w.U64(mailbox.size());
  for (const world::WorldMsgRecord& r : mailbox) {
    w.U8(r.kind);
    w.U32(r.src);
    w.U32(r.dst);
    w.U64(r.seq);
    w.I64(r.arrival_us);
    w.U32(r.ue);
    w.U32(r.target_cell);
    w.U64(r.payload_digest);
  }
  w.SealFrame();
}

std::size_t WorldSnapshot::SerializedBytes() const {
  return kHeaderBytes + mailbox.size() * kRecordBytes + 8;
}

void WorldSnapshot::WriteFile(const std::string& path) const {
  std::vector<std::uint8_t> bytes;
  Serialize(bytes);
  sim::WriteFileBytes<CheckpointError>(path, bytes, kWhat);
}

WorldSnapshot WorldSnapshot::Deserialize(const std::uint8_t* data, std::size_t size) {
  auto r = sim::OpenFrame<CheckpointError>({data, size}, kMagic, kVersion, kWhat);
  WorldSnapshot s;
  s.config_fingerprint = r.U64();
  s.seed = r.U64();
  s.window = r.U64();
  s.virtual_us = r.I64();
  s.windows_total = r.U64();
  s.state_digest = r.U64();
  const std::size_t count = r.Count(r.U64(), kRecordBytes);
  s.mailbox.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    world::WorldMsgRecord rec;
    rec.kind = r.U8();
    rec.src = r.U32();
    rec.dst = r.U32();
    rec.seq = r.U64();
    rec.arrival_us = r.I64();
    rec.ue = r.U32();
    rec.target_cell = r.U32();
    rec.payload_digest = r.U64();
    s.mailbox.push_back(rec);
  }
  r.ExpectEnd();
  return s;
}

WorldSnapshot WorldSnapshot::LoadFile(const std::string& path) {
  const std::vector<std::uint8_t> bytes = sim::ReadFileBytes<CheckpointError>(path, kWhat);
  return Deserialize(bytes.data(), bytes.size());
}

WorldSnapshot SnapshotWorld(const world::WorldEngine& engine, std::uint64_t window) {
  const world::WorldConfig& config = engine.config();
  const auto schedule = sim::WindowSchedule::Cover(
      sim::kEpoch, sim::kEpoch + config.duration, config.link_latency);
  WorldSnapshot s;
  s.config_fingerprint = WorldConfigFingerprint(config);
  s.seed = config.seed;
  s.window = window;
  s.virtual_us = schedule.WindowEnd(window).us();
  s.windows_total = schedule.windows;
  s.state_digest = engine.Digest();
  s.mailbox = engine.PendingMailRecords();
  return s;
}

std::string DescribeWorldDivergence(
    const WorldSnapshot& expected, std::uint64_t replayed_digest,
    const std::vector<world::WorldMsgRecord>& replayed_mailbox) {
  std::ostringstream os;
  os << "replay diverged from the snapshot at window " << expected.window << ": ";
  if (replayed_digest != expected.state_digest) {
    os << "state digest 0x" << std::hex << replayed_digest << " != snapshot 0x"
       << expected.state_digest << std::dec;
    return os.str();
  }
  if (replayed_mailbox.size() != expected.mailbox.size()) {
    os << "pending mailbox has " << replayed_mailbox.size() << " messages, snapshot has "
       << expected.mailbox.size();
    return os.str();
  }
  for (std::size_t i = 0; i < expected.mailbox.size(); ++i) {
    if (!(replayed_mailbox[i] == expected.mailbox[i])) {
      const auto& a = replayed_mailbox[i];
      const auto& b = expected.mailbox[i];
      os << "mailbox record " << i << " differs (replayed kind=" << int(a.kind)
         << " src=" << a.src << " seq=" << a.seq << " arrival=" << a.arrival_us
         << "us payload=0x" << std::hex << a.payload_digest << std::dec
         << "; snapshot kind=" << int(b.kind) << " src=" << b.src << " seq=" << b.seq
         << " arrival=" << b.arrival_us << "us payload=0x" << std::hex
         << b.payload_digest << std::dec << ")";
      return os.str();
    }
  }
  os << "no field differs (spurious divergence report)";
  return os.str();
}

}  // namespace athena::resilience
