#include "obs/pipeline/columnar.hpp"

#include <bit>
#include <istream>
#include <memory>
#include <ostream>
#include <stdexcept>

#include "sim/bytes.hpp"

namespace athena::obs::pipeline {
namespace {

constexpr std::uint8_t kNameDictKind = 1;
constexpr std::uint8_t kKeyDictKind = 2;
constexpr std::uint8_t kEventsKind = 3;
constexpr std::uint8_t kFooterKind = 4;

constexpr std::string_view kWhat{"ATHC"};
constexpr std::size_t kFileHeaderBytes = sizeof kColumnarMagic + 4;
constexpr std::size_t kBlockHeaderBytes = 4 + 8;  // after the kind byte
// Smallest encodings, for checking the counts a block declares: a dict
// entry is two varints; an event is three u8 columns and four varints.
constexpr std::size_t kMinDictEntryBytes = 2;
constexpr std::size_t kMinEventBytes = 7;

using Reader = sim::ByteReader<std::runtime_error>;

void Put(std::ostream& os, std::span<const std::uint8_t> bytes) {
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
}

}  // namespace

// --- EventStreamDigest ---

void EventStreamDigest::Add(const TraceEvent& event) {
  const std::string name = event.name_text();
  fnv_.MixU64(name.size()).MixChars(name);
  fnv_.MixU64(static_cast<std::uint64_t>(event.phase));
  fnv_.MixU64(static_cast<std::uint64_t>(event.layer));
  fnv_.MixU64(static_cast<std::uint64_t>(event.ts.us()));
  fnv_.MixU64(static_cast<std::uint64_t>(event.dur.count()));
  fnv_.MixU64(event.id);
  fnv_.MixU64(event.arg_count);
  for (std::size_t i = 0; i < event.arg_count; ++i) {
    const std::string_view key = event.args[i].key;
    fnv_.MixU64(key.size()).MixChars(key);
    fnv_.MixU64(std::bit_cast<std::uint64_t>(event.args[i].value));
  }
}

// --- ColumnarWriter ---

ColumnarWriter::ColumnarWriter(std::ostream& os) : os_(os) {
  buffer_.reserve(kBlockEvents);
  std::vector<std::uint8_t> header;
  sim::ByteWriter w{header};
  w.Raw({kColumnarMagic, sizeof kColumnarMagic});
  w.U32(kColumnarVersion);
  Put(os_, header);
}

ColumnarWriter::~ColumnarWriter() { Finish(); }

void ColumnarWriter::Emit(const TraceEvent& event) {
  digest_.Add(event);
  buffer_.push_back(event);
  if (buffer_.size() == kBlockEvents) FlushBlock();
}

void ColumnarWriter::EmitBatch(const TraceEvent* events, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) Emit(events[i]);
}

void ColumnarWriter::WriteBlock(std::uint8_t kind,
                                const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> header;
  sim::ByteWriter w{header};
  w.U8(kind);
  w.U32(static_cast<std::uint32_t>(payload.size()));
  w.U64(sim::Fnv1aOf(payload));
  Put(os_, header);
  Put(os_, payload);
  ++blocks_written_;
}

void ColumnarWriter::EmitDictionaries() {
  // Names first seen in this batch. File ids reuse the process NameId —
  // registry ids are dense and small, so varints stay short.
  std::vector<NameId> new_names;
  std::vector<std::pair<std::uint32_t, const char*>> new_keys;
  for (const TraceEvent& e : buffer_) {
    if (names_seen_.try_emplace(e.name, true).second) new_names.push_back(e.name);
    for (std::size_t i = 0; i < e.arg_count; ++i) {
      const auto [it, inserted] = key_ids_.try_emplace(
          e.args[i].key, static_cast<std::uint32_t>(key_ids_.size()));
      if (inserted) new_keys.emplace_back(it->second, it->first.c_str());
    }
  }
  sim::ByteWriter w{payload_};
  if (!new_names.empty()) {
    payload_.clear();
    w.Varint(new_names.size());
    for (NameId id : new_names) {
      w.Varint(id);
      w.Str(TraceNameRegistry::Instance().NameOf(id));
    }
    WriteBlock(kNameDictKind, payload_);
  }
  if (!new_keys.empty()) {
    payload_.clear();
    w.Varint(new_keys.size());
    for (const auto& [id, text] : new_keys) {
      w.Varint(id);
      w.Str(text);
    }
    WriteBlock(kKeyDictKind, payload_);
  }
}

void ColumnarWriter::FlushBlock() {
  if (buffer_.empty()) return;
  EmitDictionaries();

  payload_.clear();
  sim::ByteWriter w{payload_};
  const std::size_t n = buffer_.size();
  w.Varint(n);
  w.Signed(buffer_.front().ts.us());

  for (const TraceEvent& e : buffer_) w.U8(static_cast<std::uint8_t>(e.phase));
  for (const TraceEvent& e : buffer_) w.U8(static_cast<std::uint8_t>(e.layer));
  for (const TraceEvent& e : buffer_) w.U8(e.arg_count);
  for (const TraceEvent& e : buffer_) w.Varint(e.name);
  std::int64_t prev_ts = buffer_.front().ts.us();
  bool first = true;
  for (const TraceEvent& e : buffer_) {
    // First delta is vs base_ts (== its own ts), i.e. zero: one byte.
    w.Signed(e.ts.us() - (first ? e.ts.us() : prev_ts));
    prev_ts = e.ts.us();
    first = false;
  }
  for (const TraceEvent& e : buffer_) w.Signed(e.dur.count());
  std::uint64_t prev_id = 0;
  for (const TraceEvent& e : buffer_) {
    w.Signed(static_cast<std::int64_t>(e.id - prev_id));
    prev_id = e.id;
  }
  for (const TraceEvent& e : buffer_) {
    for (std::size_t i = 0; i < e.arg_count; ++i) {
      w.Varint(key_ids_.find(e.args[i].key)->second);
      w.U64(std::bit_cast<std::uint64_t>(e.args[i].value));
    }
  }

  WriteBlock(kEventsKind, payload_);
  events_written_ += n;
  buffer_.clear();
}

void ColumnarWriter::Finish() {
  if (finished_) return;
  finished_ = true;
  FlushBlock();
  payload_.clear();
  sim::ByteWriter w{payload_};
  w.Varint(events_written_);
  w.U64(digest_.value());
  WriteBlock(kFooterKind, payload_);
  os_.flush();
}

// --- ColumnarReader ---

ColumnarReader::ColumnarReader(std::istream& is) : is_(is) {
  std::vector<std::uint8_t> header;
  sim::ReadExactly<std::runtime_error>(is_, kFileHeaderBytes, header, kWhat);
  Reader r{header, kWhat};
  r.ExpectMagic({kColumnarMagic, sizeof kColumnarMagic});
  const std::uint32_t version = r.U32();
  if (version != kColumnarVersion) r.Fail("unsupported version " + std::to_string(version));
}

std::uint8_t ColumnarReader::ReadBlock(std::vector<std::uint8_t>& payload) {
  const int kind_ch = is_.get();
  if (kind_ch == std::istream::traits_type::eof()) return 0;
  std::vector<std::uint8_t> header;
  sim::ReadExactly<std::runtime_error>(is_, kBlockHeaderBytes, header, kWhat);
  Reader r{header, kWhat};
  const std::uint32_t bytes = r.U32();
  const std::uint64_t checksum = r.U64();
  sim::ReadExactly<std::runtime_error>(is_, bytes, payload, kWhat);
  if (sim::Fnv1aOf(payload) != checksum) r.Fail("block checksum mismatch (corrupt trace)");
  return static_cast<std::uint8_t>(kind_ch);
}

bool ColumnarReader::NextBlock(std::vector<TraceEvent>& out) {
  out.clear();
  std::vector<std::uint8_t> payload;
  for (;;) {
    const std::uint8_t kind = ReadBlock(payload);
    if (kind == 0) return false;  // clean EOF (footer-less streams still read)
    Reader c{payload, kWhat};
    switch (kind) {
      case kNameDictKind: {
        const std::size_t count = c.Count(c.Varint(), kMinDictEntryBytes);
        for (std::size_t i = 0; i < count; ++i) {
          const auto file_id = static_cast<std::uint32_t>(c.Varint());
          names_[file_id] = TraceNameRegistry::Instance().Intern(c.Str());
        }
        break;
      }
      case kKeyDictKind: {
        const std::size_t count = c.Count(c.Varint(), kMinDictEntryBytes);
        for (std::size_t i = 0; i < count; ++i) {
          const auto file_id = static_cast<std::uint32_t>(c.Varint());
          key_storage_.push_back(std::make_unique<std::string>(c.Str()));
          keys_[file_id] = key_storage_.back()->c_str();
        }
        break;
      }
      case kEventsKind: {
        const std::size_t n = c.Count(c.Varint(), kMinEventBytes);
        const std::int64_t base_ts = c.Signed();
        out.resize(n);
        for (auto& e : out) e.phase = static_cast<TraceEvent::Phase>(c.U8());
        for (auto& e : out) {
          const std::uint8_t layer = c.U8();
          if (layer >= kLayerCount) c.Fail("bad layer");
          e.layer = static_cast<Layer>(layer);
        }
        for (auto& e : out) {
          e.arg_count = c.U8();
          if (e.arg_count > e.args.size()) c.Fail("bad arg count");
        }
        for (auto& e : out) {
          const auto file_id = static_cast<std::uint32_t>(c.Varint());
          const auto it = names_.find(file_id);
          if (it == names_.end()) c.Fail("undefined name id");
          e.name = it->second;
        }
        std::int64_t ts = base_ts;
        bool first = true;
        for (auto& e : out) {
          const std::int64_t delta = c.Signed();
          ts = first ? base_ts + delta : ts + delta;
          first = false;
          e.ts = sim::kEpoch + sim::Duration{ts};
        }
        for (auto& e : out) e.dur = sim::Duration{c.Signed()};
        std::uint64_t id = 0;
        for (auto& e : out) {
          id += static_cast<std::uint64_t>(c.Signed());
          e.id = id;
        }
        for (auto& e : out) {
          for (std::size_t i = 0; i < e.arg_count; ++i) {
            const auto key_id = static_cast<std::uint32_t>(c.Varint());
            const auto it = keys_.find(key_id);
            if (it == keys_.end()) c.Fail("undefined key id");
            e.args[i] = TraceArg{it->second, std::bit_cast<double>(c.U64())};
          }
        }
        c.ExpectEnd();
        for (const TraceEvent& e : out) digest_.Add(e);
        events_read_ += n;
        return true;
      }
      case kFooterKind: {
        footer_.event_count = c.Varint();
        footer_.digest = c.U64();
        footer_.present = true;
        return false;
      }
      default:
        c.Fail("unknown block kind " + std::to_string(kind));
    }
  }
}

std::uint64_t ColumnarReader::VerifyFooter() {
  if (!footer_.present) throw std::runtime_error("ATHC: missing footer (truncated file)");
  if (footer_.event_count != events_read_) {
    throw std::runtime_error("ATHC: footer event count mismatch");
  }
  if (footer_.digest != digest_.value()) {
    throw std::runtime_error("ATHC: stream digest mismatch (corrupt trace)");
  }
  return digest_.value();
}

}  // namespace athena::obs::pipeline
