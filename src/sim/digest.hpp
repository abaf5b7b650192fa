// 64-bit FNV-1a: the one hash behind every checksum and digest in the
// tree — snapshot trailers, ATHC block checksums, the session and chaos
// state digests, the mitigation ledger digest, mailbox payload digests
// and Prometheus shard placement. Each of those values is pinned by a
// test or a committed bench file, so the byte order below is part of
// their formats.
//
// Header-only and inline: the chaos fleet digests every impaired input
// and every kill/restore checkpoint, one byte at a time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace athena::sim {

/// Streaming FNV-1a. A u64 goes in as its 8 little-endian bytes, so a
/// digest never depends on the host's byte order or struct layout.
class Fnv1a {
 public:
  static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;

  Fnv1a& MixByte(std::uint8_t b) {
    hash_ = (hash_ ^ b) * kPrime;
    return *this;
  }

  Fnv1a& MixBytes(std::span<const std::uint8_t> bytes) {
    for (const std::uint8_t b : bytes) MixByte(b);
    return *this;
  }

  Fnv1a& MixChars(std::string_view s) {
    for (const char c : s) MixByte(static_cast<std::uint8_t>(c));
    return *this;
  }

  Fnv1a& MixU64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) MixByte(static_cast<std::uint8_t>(v >> (8 * i)));
    return *this;
  }

  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = kOffsetBasis;
};

/// FNV-1a of a byte range: the checksum of snapshot trailers and ATHC
/// blocks.
[[nodiscard]] inline std::uint64_t Fnv1aOf(std::span<const std::uint8_t> bytes) {
  return Fnv1a{}.MixBytes(bytes).value();
}

}  // namespace athena::sim
