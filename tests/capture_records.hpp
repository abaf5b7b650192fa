// Capture-log helpers for tests. Hand-built records are all made by
// MakeCapture with every field named, so a new CaptureRecord field is one
// -Wmissing-field-initializers warning here instead of a partial record in
// each test.
#pragma once

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "net/capture.hpp"

namespace athena {

inline net::CaptureRecord MakeCapture(net::PacketId id, sim::TimePoint local_ts,
                                      std::uint32_t size_bytes = 0,
                                      net::PacketKind kind = net::PacketKind::kGeneric,
                                      decltype(net::CaptureRecord::meta) meta = {}) {
  return net::CaptureRecord{.packet_id = id,
                            .local_ts = local_ts,
                            .kind = kind,
                            .size_bytes = size_bytes,
                            .flow = 0,
                            .meta = meta};
}

inline std::vector<net::CaptureView::Chunk> ChunksOf(const net::CaptureView& view) {
  std::vector<net::CaptureView::Chunk> chunks;
  view.ForEachChunk([&chunks](net::CaptureView::Chunk c) { chunks.push_back(c); });
  return chunks;
}

/// Expects `view` to read `log`'s records where `log` reads them, chunk by
/// chunk: nothing was copied.
inline void ExpectAliases(const net::CaptureView& view, const net::CaptureView& log) {
  EXPECT_FALSE(view.empty());
  const auto got = ChunksOf(view);
  const auto want = ChunksOf(log);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].data(), want[i].data()) << "chunk " << i;
    EXPECT_EQ(got[i].size(), want[i].size()) << "chunk " << i;
  }
}

}  // namespace athena
