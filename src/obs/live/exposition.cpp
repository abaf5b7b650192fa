#include "obs/live/exposition.hpp"

#include <ostream>
#include <string>

#include "obs/live/detectors.hpp"
#include "obs/live/live.hpp"
#include "obs/prom_text.hpp"

namespace athena::obs::live {
namespace {

using prom::WriteHeader;
using prom::WriteValue;

void WriteLiveState(std::ostream& os, const LiveEngine& live) {
  const DetectorBank& bank = live.bank();

  {
    const std::string name = prom::FamilyName("anomalies_total");
    WriteHeader(os, name, "counter", "Anomalies emitted by the live detectors");
    for (std::size_t i = 0; i < kAnomalyKindCount; ++i) {
      const auto kind = static_cast<AnomalyKind>(i);
      os << name << "{kind=\"" << SlugFor(kind) << "\",layer=\"ran\"} "
         << bank.anomaly_count(kind) << '\n';
    }
  }
  {
    const std::string name = prom::FamilyName("detector_confidence");
    WriteHeader(os, name, "gauge", "Peak confidence reported per detector");
    for (const auto& d : bank.detectors()) {
      os << name << "{detector=\"" << d->name() << "\"} ";
      WriteValue(os, d->max_confidence());
      os << '\n';
    }
  }
  {
    const std::string name = prom::FamilyName("event_log_records");
    WriteHeader(os, name, "gauge", "Records currently retained in the event log");
    os << name << ' ' << live.log().size() << '\n';
    const std::string dropped = prom::FamilyName("event_log_dropped_total");
    WriteHeader(os, dropped, "counter", "Event-log records evicted by the ring");
    os << dropped << ' ' << live.log().dropped_count() << '\n';
  }
  {
    const std::string name = prom::FamilyName("frames_rendered_total");
    WriteHeader(os, name, "counter", "Media frames/samples played out");
    os << name << ' ' << live.frames_rendered() << '\n';
    const std::string late = prom::FamilyName("frames_late_total");
    WriteHeader(os, late, "counter", "Media frames/samples played out late");
    os << late << ' ' << live.frames_late() << '\n';
  }
}

}  // namespace

void WritePrometheus(std::ostream& os, const MetricsRegistry& registry,
                     const LiveEngine* live) {
  os << "# Athena metrics exposition (Prometheus text format 0.0.4)\n";
  prom::WriteRegistry(os, registry);
  if (live != nullptr) WriteLiveState(os, *live);
}

}  // namespace athena::obs::live
