// The byte codec of the three on-disk formats: the session checkpoint
// (ATHCKPT), the world snapshot (ATHWSNP) and the ATHC columnar trace.
// Fixed-width integers are little-endian, written byte by byte, so a file
// never depends on the host or on struct layout. Varints are LEB128,
// signed ones zigzag-encoded; a string is a varint length and its bytes.
//
// Both snapshot formats share one frame:
//
//   magic | u32 version | u32 reserved (0) | body | u64 FNV-1a of all before
//
// A decoder fails only by throwing the caller's error type (resilience's
// CheckpointError for the snapshots, std::runtime_error for ATHC): every
// read is bounds-checked, and no allocation is sized by a field the
// bytes at hand cannot back.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <iterator>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sim/digest.hpp"

namespace athena::sim {

/// Appends encoded fields to a byte vector.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  void U8(std::uint8_t v) { out_.push_back(v); }
  void U16(std::uint16_t v) { Le(v, 2); }
  void U32(std::uint32_t v) { Le(v, 4); }
  void U64(std::uint64_t v) { Le(v, 8); }
  void I64(std::int64_t v) { Le(static_cast<std::uint64_t>(v), 8); }

  void Varint(std::uint64_t v) {
    for (; v >= 0x80; v >>= 7) out_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    out_.push_back(static_cast<std::uint8_t>(v));
  }

  void Signed(std::int64_t v) {
    Varint((static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63));
  }

  void Str(std::string_view s) {
    Varint(s.size());
    Raw(s);
  }

  /// Bytes without a length prefix (a magic number).
  void Raw(std::string_view bytes) {
    for (const char c : bytes) U8(static_cast<std::uint8_t>(c));
  }

  /// Starts a snapshot frame; the frame must start the vector.
  void BeginFrame(std::string_view magic, std::uint32_t version) {
    Raw(magic);
    U32(version);
    U32(0);  // reserved
  }

  /// Ends the frame with its FNV-1a trailer.
  void SealFrame() { U64(Fnv1aOf(out_)); }

 private:
  void Le(std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  std::vector<std::uint8_t>& out_;
};

/// Bounds-checked decoder over a byte range. Every failure throws
/// `Error` with a message prefixed by `what`, the format's name, which
/// must outlive the reader (pass a literal).
template <class Error>
class ByteReader {
 public:
  ByteReader(std::span<const std::uint8_t> bytes, std::string_view what)
      : bytes_(bytes), what_(what) {}

  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }

  std::uint8_t U8() { return static_cast<std::uint8_t>(Le(1)); }
  std::uint16_t U16() { return static_cast<std::uint16_t>(Le(2)); }
  std::uint32_t U32() { return static_cast<std::uint32_t>(Le(4)); }
  std::uint64_t U64() { return Le(8); }
  std::int64_t I64() { return static_cast<std::int64_t>(Le(8)); }

  std::uint64_t Varint() {
    std::uint64_t v = 0;
    for (int shift = 0;; shift += 7) {
      const std::uint8_t b = Take(1)[0];
      if (shift >= 64) Fail("varint overflow");
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return v;
    }
  }

  std::int64_t Signed() {
    const std::uint64_t v = Varint();
    return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
  }

  std::string Str() {
    const auto bytes = Take(Count(Varint(), 1));
    return std::string(bytes.begin(), bytes.end());
  }

  /// Accepts a count read from the input only if the bytes left can hold
  /// that many records of at least `min_record_bytes` each. Compared by
  /// division, so no count can wrap the check.
  std::size_t Count(std::uint64_t count, std::size_t min_record_bytes) {
    if (count > remaining() / min_record_bytes) {
      Fail("count " + std::to_string(count) + " exceeds what the " +
           std::to_string(remaining()) + " bytes left can hold");
    }
    return static_cast<std::size_t>(count);
  }

  void ExpectMagic(std::string_view magic) {
    if (remaining() < magic.size() ||
        std::memcmp(bytes_.data() + pos_, magic.data(), magic.size()) != 0) {
      Fail("bad magic");
    }
    pos_ += magic.size();
  }

  void ExpectEnd() {
    if (remaining() != 0) {
      Fail(std::to_string(remaining()) + " trailing bytes after the last record");
    }
  }

  [[noreturn]] void Fail(const std::string& why) const {
    throw Error(std::string(what_) + ": " + why);
  }

 private:
  std::span<const std::uint8_t> Take(std::size_t n) {
    if (n > remaining()) {
      Fail("truncated: needed " + std::to_string(n) + " bytes at offset " +
           std::to_string(pos_) + " of " + std::to_string(bytes_.size()));
    }
    pos_ += n;
    return bytes_.subspan(pos_ - n, n);
  }

  std::uint64_t Le(int n) {
    const auto bytes = Take(static_cast<std::size_t>(n));
    std::uint64_t v = 0;
    for (int i = 0; i < n; ++i) v |= static_cast<std::uint64_t>(bytes[i]) << (8 * i);
    return v;
  }

  std::span<const std::uint8_t> bytes_;
  std::string_view what_;
  std::size_t pos_ = 0;
};

/// Checks a snapshot frame (its size, then magic, then checksum, then
/// version) and returns a reader over the body. Nothing in the body is
/// trusted before this returns.
template <class Error>
[[nodiscard]] ByteReader<Error> OpenFrame(std::span<const std::uint8_t> bytes,
                                          std::string_view magic, std::uint32_t version,
                                          std::string_view what) {
  if (bytes.size() < magic.size() + 4 + 4 + 8) {
    ByteReader<Error>{bytes, what}.Fail("truncated: " + std::to_string(bytes.size()) +
                                        " bytes cannot hold a frame");
  }
  const auto body = bytes.first(bytes.size() - 8);
  ByteReader<Error> r{body, what};
  r.ExpectMagic(magic);
  if (ByteReader<Error>{bytes.last(8), what}.U64() != Fnv1aOf(body)) {
    r.Fail("checksum mismatch, file corrupt or truncated");
  }
  if (const std::uint32_t found = r.U32(); found != version) {
    r.Fail("unsupported version " + std::to_string(found) + " (this build reads version " +
           std::to_string(version) + ")");
  }
  (void)r.U32();  // reserved
  return r;
}

/// Reads exactly `n` bytes of `is` into `out`, growing `out` only as the
/// bytes arrive: a corrupt length field costs a short read, never an
/// allocation of its size. Throws `Error` on a short read.
template <class Error>
void ReadExactly(std::istream& is, std::size_t n, std::vector<std::uint8_t>& out,
                 std::string_view what) {
  out.clear();
  while (out.size() < n) {
    const std::size_t at = out.size();
    out.resize(at + std::min(n - at, std::size_t{1} << 16));
    const auto chunk = static_cast<std::streamsize>(out.size() - at);
    if (!is.read(reinterpret_cast<char*>(out.data() + at), chunk)) {
      throw Error(std::string(what) + ": truncated: the stream ends inside a " +
                  std::to_string(n) + "-byte field");
    }
  }
}

template <class Error>
void WriteFileBytes(const std::string& path, std::span<const std::uint8_t> bytes,
                    std::string_view what) {
  std::ofstream os{path, std::ios::binary | std::ios::trunc};
  if (!os) throw Error("cannot write " + std::string(what) + " file " + path);
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
  if (!os) throw Error("short write to " + std::string(what) + " file " + path);
}

template <class Error>
[[nodiscard]] std::vector<std::uint8_t> ReadFileBytes(const std::string& path,
                                                      std::string_view what) {
  std::ifstream is{path, std::ios::binary};
  if (!is) throw Error("cannot read " + std::string(what) + " file " + path);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

}  // namespace athena::sim
