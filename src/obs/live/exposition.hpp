// Prometheus text exposition (format 0.0.4) for the MetricsRegistry and
// the live detector state, so the framework's own health is scrapeable:
// write to a file on a period (athena_cli --expose) and point a
// node-exporter-style textfile collector at it.
//
// Mapping:
//   registry families → `athena_<name>` through prom::WriteRegistry (the
//                       renderer the sharded exporter shares)
//   live detectors    → `athena_anomalies_total{kind=...,layer=...}`,
//                       per-detector confidence gauges, event-log depth
//
// Metric names are sanitized to Prometheus' [a-zA-Z_:][a-zA-Z0-9_:]*
// (dots and dashes become underscores); non-finite values serialize as
// the tokens `+Inf` / `-Inf` / `NaN`, which the text format allows.
#pragma once

#include <iosfwd>

#include "obs/metrics.hpp"
#include "obs/prom_text.hpp"

namespace athena::obs::live {

class LiveEngine;

/// The sanitization rule is shared with the sharded fleet exporter
/// (obs/pipeline/export.hpp); both delegate to obs/prom_text.hpp.
using prom::SanitizeMetricName;

/// Renders everything in `registry` (and, when given, `live`'s detector
/// state) in Prometheus text format. An empty registry yields only the
/// header comment — still a valid exposition.
void WritePrometheus(std::ostream& os, const MetricsRegistry& registry,
                     const LiveEngine* live = nullptr);

}  // namespace athena::obs::live
