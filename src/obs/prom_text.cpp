#include "obs/prom_text.hpp"

#include <cmath>
#include <cstdint>
#include <ostream>
#include <utility>

#include "obs/metrics.hpp"
#include "sim/digest.hpp"

namespace athena::obs::prom {
namespace {

bool ValidStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':';
}

bool ValidRest(char c) { return ValidStart(c) || (c >= '0' && c <= '9'); }

void WriteGauge(std::ostream& os, const std::string& name, double value,
                std::string_view help) {
  WriteHeader(os, name, "gauge", help);
  os << name << ' ';
  WriteValue(os, value);
  os << '\n';
}

void WriteHistogram(std::ostream& os, const std::string& name,
                    const stats::Histogram& h) {
  WriteHeader(os, name, "histogram", "Athena histogram");
  // Prometheus buckets are cumulative upper bounds; the registry's
  // histograms are fixed-width [lo, hi) bins with explicit under/overflow,
  // so underflow folds into the first bucket and overflow into +Inf.
  std::uint64_t cumulative = h.underflow();
  for (std::size_t i = 0; i < h.bin_count(); ++i) {
    cumulative += h.bin(i);
    os << name << "_bucket{le=\"";
    WriteValue(os, h.bin_low(i) + h.bin_width());
    os << "\"} " << cumulative << '\n';
  }
  os << name << "_bucket{le=\"+Inf\"} " << h.count() << '\n';
  os << name << "_sum ";
  WriteValue(os, h.sum());
  os << '\n';
  os << name << "_count " << h.count() << '\n';
}

}  // namespace

std::string SanitizeMetricName(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 1);
  if (name.empty() || !ValidStart(name.front())) out.push_back('_');
  for (char c : name) out.push_back(ValidRest(c) ? c : '_');
  return out;
}

std::string FamilyName(std::string_view name) {
  std::string full = "athena_";
  full += name;
  return SanitizeMetricName(full);
}

void WriteValue(std::ostream& os, double v) {
  if (std::isnan(v)) {
    os << "NaN";
  } else if (std::isinf(v)) {
    os << (v > 0 ? "+Inf" : "-Inf");
  } else {
    os << v;
  }
}

void WriteHeader(std::ostream& os, std::string_view name, std::string_view type,
                 std::string_view help) {
  os << "# HELP " << name << ' ' << help << '\n';
  os << "# TYPE " << name << ' ' << type << '\n';
}

std::uint64_t NameShard(std::string_view name) {
  return sim::Fnv1a{}.MixChars(name).value();
}

bool OnShard(std::string_view family, unsigned shard, unsigned shard_count) {
  return shard_count <= 1 || NameShard(family) % shard_count == shard;
}

void WriteRegistry(std::ostream& os, const MetricsRegistry& registry, unsigned shard,
                   unsigned shard_count) {
  for (const auto& [name, value] : registry.counters()) {
    const std::string full = FamilyName(name);
    if (!OnShard(full, shard, shard_count)) continue;
    WriteHeader(os, full, "counter", "Athena counter");
    os << full << ' ' << value << '\n';
  }
  for (const auto& [name, value] : registry.gauges()) {
    const std::string full = FamilyName(name);
    if (OnShard(full, shard, shard_count)) WriteGauge(os, full, value, "Athena gauge");
  }
  for (const auto& [name, s] : registry.stats()) {
    const std::string full = FamilyName(name);
    if (!OnShard(full, shard, shard_count)) continue;
    WriteHeader(os, full, "summary", "Athena streaming stats");
    os << full << "_count " << s.count() << '\n';
    os << full << "_sum ";
    WriteValue(os, s.sum());
    os << '\n';
    for (const auto& [suffix, v] :
         {std::pair<const char*, double>{"_mean", s.mean()},
          {"_min", s.min()},
          {"_max", s.max()}}) {
      WriteGauge(os, full + suffix, v, "Athena streaming stats");
    }
  }
  for (const auto& [name, h] : registry.histograms()) {
    const std::string full = FamilyName(name);
    if (OnShard(full, shard, shard_count)) WriteHistogram(os, full, h);
  }
}

}  // namespace athena::obs::prom
