#include "obs/pipeline/export.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/pipeline/columnar.hpp"
#include "obs/prom_text.hpp"
#include "obs/trace_json.hpp"

namespace athena::obs::pipeline {

void WritePrometheusShard(std::ostream& os, const TimeBucketRollup& rollup,
                          const MetricsRegistry* registry,
                          ShardedExpositionOptions options) {
  os << "# Athena sharded exposition (Prometheus text format 0.0.4), shard "
     << options.shard << '/' << options.shard_count << "\n";

  if (registry != nullptr) {
    prom::WriteRegistry(os, *registry, options.shard, options.shard_count);
  }

  // Shard assignment is on the *family* name, so a family's
  // `_count`/`_sum`/quantile series never split across shards.
  for (const auto& [key, series] : rollup.series()) {
    const std::string family =
        prom::FamilyName("rollup_" + TraceNameRegistry::Instance().NameOf(key.name));
    if (!prom::OnShard(family, options.shard, options.shard_count)) continue;
    RollupBucket total;
    for (const RollupBucket& b : series.buckets) total.Merge(b);
    const std::string labels = std::string{"{layer=\""} + ToString(key.layer) + "\"}";
    prom::WriteHeader(os, family, "summary", "Athena rollup series");
    os << family << "_count" << labels << ' ' << total.count << '\n';
    os << family << "_sum" << labels << ' ';
    prom::WriteValue(os, total.sum);
    os << '\n';
    for (const auto& [q, v] :
         {std::pair<const char*, double>{"0.5", total.sketch.Quantile(0.5)},
          {"0.99", total.sketch.Quantile(0.99)}}) {
      os << family << "{layer=\"" << ToString(key.layer) << "\",quantile=\"" << q
         << "\"} ";
      prom::WriteValue(os, v);
      os << '\n';
    }
    os << family << "_min" << labels << ' ';
    prom::WriteValue(os, total.min);
    os << '\n';
    os << family << "_max" << labels << ' ';
    prom::WriteValue(os, total.max);
    os << '\n';
  }
}

std::uint64_t WriteChunkedPerfetto(std::istream& in, std::ostream& os) {
  ColumnarReader reader{in};
  jsonio::NameCache names;

  // Track metadata must precede events, and which layers appear isn't
  // known until the stream ends — emit every track; Perfetto ignores
  // empty ones.
  bool all_layers[kLayerCount];
  for (bool& used : all_layers) used = true;
  jsonio::WriteTraceHeader(os, all_layers);

  std::vector<TraceEvent> block;
  std::vector<const TraceEvent*> sorted;
  std::uint64_t emitted = 0;
  while (reader.NextBlock(block)) {
    // Sort within the block only: flat memory. Cross-block disorder is
    // bounded by block size and tolerated by the JSON importer.
    sorted.clear();
    sorted.reserve(block.size());
    for (const TraceEvent& e : block) sorted.push_back(&e);
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const TraceEvent* a, const TraceEvent* b) {
                       return a->ts < b->ts;
                     });
    for (const TraceEvent* e : sorted) {
      os << ",\n";
      jsonio::WriteEventJson(os, *e, names.Resolve(e->name));
      ++emitted;
    }
  }
  reader.VerifyFooter();
  os << "\n]}\n";
  return emitted;
}

}  // namespace athena::obs::pipeline
