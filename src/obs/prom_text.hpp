// Shared Prometheus text-format (0.0.4) primitives and the one registry
// renderer.
//
// Two writers emit expositions — the single-stream live exposition
// (obs/live/exposition.cpp) and the sharded fleet exporter
// (obs/pipeline/export.cpp) — and they must agree byte-for-byte on name
// sanitization, value tokens and registry families, or a fleet's scrape
// targets drift apart under the same metric. The rules live here, once:
//
//   - family names are `athena_` + the metric name (FamilyName),
//     sanitized to [a-zA-Z_:][a-zA-Z0-9_:]* (dots and dashes become
//     underscores; a leading digit gains a '_' prefix),
//   - non-finite values serialize as the tokens +Inf / -Inf / NaN,
//   - every series is preceded by `# HELP` / `# TYPE` comment lines,
//   - registry families render through WriteRegistry.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

namespace athena::obs {
class MetricsRegistry;
}  // namespace athena::obs

namespace athena::obs::prom {

/// `athena.cc.target-bps` → `athena_cc_target_bps`. Prepends '_' when the
/// first character would be invalid (e.g. a digit).
[[nodiscard]] std::string SanitizeMetricName(std::string_view name);

/// The exported name of metric family `name`: the `athena_` prefix plus
/// `name`, sanitized (`cc.target-bps` → `athena_cc_target_bps`).
[[nodiscard]] std::string FamilyName(std::string_view name);

/// Writes `v` as Prometheus text: regular ostream formatting for finite
/// values, the tokens `+Inf` / `-Inf` / `NaN` otherwise.
void WriteValue(std::ostream& os, double v);

/// The `# HELP` / `# TYPE` preamble for one metric family.
void WriteHeader(std::ostream& os, std::string_view name, std::string_view type,
                 std::string_view help);

/// FNV-1a over the metric name — the shard assignment hash. Stable across
/// platforms/releases so a fleet's scrape config doesn't churn: shard =
/// NameShard(name) % shard_count, forever.
[[nodiscard]] std::uint64_t NameShard(std::string_view name);

/// Whether `family` (the full exported name) renders on `shard` of
/// `shard_count`; every family is on the one shard of a single stream.
[[nodiscard]] bool OnShard(std::string_view family, unsigned shard, unsigned shard_count);

/// Renders every registry family that lands on `shard`, in the order
/// counters, gauges, streaming stats (a `_count`/`_sum` summary plus
/// `_mean`/`_min`/`_max` gauges), histograms (cumulative `_bucket`
/// series ending in `le="+Inf"`, plus `_sum` and `_count`).
void WriteRegistry(std::ostream& os, const MetricsRegistry& registry, unsigned shard = 0,
                   unsigned shard_count = 1);

}  // namespace athena::obs::prom
