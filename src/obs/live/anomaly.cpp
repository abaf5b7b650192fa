#include "obs/live/anomaly.hpp"

#include <ostream>

#include "obs/trace_json.hpp"

namespace athena::obs::live {

const char* ToString(AnomalyKind kind) {
  switch (kind) {
    case AnomalyKind::kDelaySpreadQuantization: return "delay-spread slot quantization";
    case AnomalyKind::kHarqRtxInflation: return "HARQ retransmission inflation";
    case AnomalyKind::kBsrGrantWait: return "BSR grant-wait";
    case AnomalyKind::kOverGranting: return "over-granting (PRB waste)";
    case AnomalyKind::kQueueBuildup: return "cross-traffic queue buildup";
    case AnomalyKind::kTelemetryGap: return "telemetry feed gap";
    case AnomalyKind::kOverload: return "telemetry overload shedding";
  }
  return "?";
}

const char* SlugFor(AnomalyKind kind) {
  switch (kind) {
    case AnomalyKind::kDelaySpreadQuantization: return "delay_spread_quantization";
    case AnomalyKind::kHarqRtxInflation: return "harq_rtx_inflation";
    case AnomalyKind::kBsrGrantWait: return "bsr_grant_wait";
    case AnomalyKind::kOverGranting: return "over_granting";
    case AnomalyKind::kQueueBuildup: return "queue_buildup";
    case AnomalyKind::kTelemetryGap: return "telemetry_gap";
    case AnomalyKind::kOverload: return "overload";
  }
  return "unknown";
}

namespace {

using jsonio::WriteEscaped;
using jsonio::WriteNumber;

void WriteRecordJson(std::ostream& os, const EventLog::Record& r) {
  switch (r.kind) {
    case EventLog::Record::Kind::kAnomaly: WriteJson(os, r.anomaly); return;
    case EventLog::Record::Kind::kSpan:
      os << "{\"type\":\"span\",\"layer\":\"" << obs::ToString(r.layer) << "\",\"name\":\"";
      WriteEscaped(os, r.name);
      os << "\",\"t_us\":" << r.t.us() << ",\"duration_ms\":";
      WriteNumber(os, r.value);
      os << "}";
      return;
    case EventLog::Record::Kind::kMetric:
      os << "{\"type\":\"metric\",\"name\":\"";
      WriteEscaped(os, r.name);
      os << "\",\"t_us\":" << r.t.us() << ",\"value\":";
      WriteNumber(os, r.value);
      os << "}";
      return;
  }
}

}  // namespace

void WriteJson(std::ostream& os, const AnomalyEvent& e) {
  os << "{\"type\":\"anomaly\",\"kind\":\"" << SlugFor(e.kind) << "\",\"layer\":\""
     << obs::ToString(e.layer) << "\",\"window_begin_us\":" << e.window_begin.us()
     << ",\"window_end_us\":" << e.window_end.us() << ",\"confidence\":";
  WriteNumber(os, e.confidence);
  os << ",\"detector\":\"";
  WriteEscaped(os, e.detector);
  os << "\",\"message\":\"";
  WriteEscaped(os, e.message);
  os << "\",\"evidence\":{";
  for (std::size_t i = 0; i < e.evidence_count; ++i) {
    if (i > 0) os << ",";
    os << "\"";
    WriteEscaped(os, e.evidence[i].key);
    os << "\":";
    WriteNumber(os, e.evidence[i].value);
  }
  os << "}}";
}

EventLog::EventLog(std::size_t capacity) : ring_(capacity == 0 ? 1 : capacity) {}

void EventLog::Push(Record record) {
  if (jsonl_ != nullptr) {
    WriteRecordJson(*jsonl_, record);
    *jsonl_ << '\n';
  }
  ring_[head_] = std::move(record);
  head_ = (head_ + 1) % ring_.size();
  if (size_ < ring_.size()) ++size_;
  ++pushed_;
}

void EventLog::PushAnomaly(const AnomalyEvent& event) {
  Record r;
  r.kind = Record::Kind::kAnomaly;
  r.t = event.window_end;
  r.anomaly = event;
  Push(std::move(r));
}

void EventLog::PushSpan(Layer layer, std::string_view name, sim::TimePoint end,
                        double duration_ms) {
  Record r;
  r.kind = Record::Kind::kSpan;
  r.t = end;
  r.layer = layer;
  r.name = name;
  r.value = duration_ms;
  Push(std::move(r));
}

void EventLog::PushMetric(std::string_view name, sim::TimePoint t, double value) {
  Record r;
  r.kind = Record::Kind::kMetric;
  r.t = t;
  r.name = name;
  r.value = value;
  Push(std::move(r));
}

std::vector<const EventLog::Record*> EventLog::Ordered() const {
  std::vector<const Record*> out;
  out.reserve(size_);
  const std::size_t start = (head_ + ring_.size() - size_) % ring_.size();
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(&ring_[(start + i) % ring_.size()]);
  }
  return out;
}

void EventLog::WriteJsonl(std::ostream& os) const {
  for (const Record* r : Ordered()) {
    WriteRecordJson(os, *r);
    os << '\n';
  }
}

}  // namespace athena::obs::live
