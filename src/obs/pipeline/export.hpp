// Flat-memory fleet export: sharded Prometheus exposition and chunked
// Perfetto emission.
//
// Both paths stream — nothing materializes the full trace or the full
// exposition:
//   - Prometheus shards partition metric families by a stable FNV-1a
//     name hash (obs/prom_text.hpp), so N scrape endpoints each carry
//     ~1/N of the fleet's series and a family never migrates between
//     shards across releases. Rollup series export as whole-series
//     aggregates (count/sum/min/max/p50/p99 per (name, layer)).
//   - Perfetto emission replays an ATHC columnar stream block-by-block
//     into Chrome trace-event JSON: working memory is one block (~512
//     KiB), whatever the trace length. Events are sorted within each
//     block; Perfetto's JSON importer orders the full set on load.
#pragma once

#include <cstdint>
#include <iosfwd>

#include "obs/metrics.hpp"
#include "obs/pipeline/rollup.hpp"

namespace athena::obs::pipeline {

struct ShardedExpositionOptions {
  unsigned shard = 0;        ///< which shard to render
  unsigned shard_count = 1;  ///< total shards (1 = classic single stream)
};

/// Renders shard `options.shard` of the exposition: every registry
/// family (prom::WriteRegistry, the live exposition's renderer) and
/// rollup series whose family name lands on this shard. `registry` may
/// be null (rollup-only exposition). The union of all shards is exactly
/// the full exposition; shards are disjoint.
void WritePrometheusShard(std::ostream& os, const TimeBucketRollup& rollup,
                          const MetricsRegistry* registry,
                          ShardedExpositionOptions options = {});

/// Streams the ATHC columnar trace on `in` to Chrome trace-event JSON on
/// `os`, block-at-a-time. Verifies block checksums and the footer stream
/// digest (throws std::runtime_error on corruption). Returns the number
/// of events emitted.
std::uint64_t WriteChunkedPerfetto(std::istream& in, std::ostream& os);

}  // namespace athena::obs::pipeline
