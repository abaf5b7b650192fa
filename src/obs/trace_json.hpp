// Chrome trace-event JSON primitives, shared by the in-memory recorder
// (TraceRecorder::WriteJson) and the chunked Perfetto emitter that
// streams from columnar blocks (obs/pipeline/export.hpp). Internal to
// the obs subsystem — tools should use those two entry points.
#pragma once

#include <iosfwd>
#include <string>
#include <unordered_map>

#include "obs/json_string.hpp"
#include "obs/trace.hpp"

namespace athena::obs::jsonio {

/// JSON-safe number: non-finite clamps to 0, integers render exactly.
void WriteNumber(std::ostream& os, double v);

/// One trace-event object for `e` (no surrounding comma/newline); `name`
/// is the resolved text of `e.name`.
void WriteEventJson(std::ostream& os, const TraceEvent& e, const std::string& name);

/// Document preamble: `{"traceEvents":[` plus process/track metadata for
/// every layer flagged in `layer_used`.
void WriteTraceHeader(std::ostream& os, const bool layer_used[kLayerCount]);

/// Resolves each distinct interned id once per export, not per event.
class NameCache {
 public:
  const std::string& Resolve(NameId id);

 private:
  std::unordered_map<NameId, std::string> cache_;
};

}  // namespace athena::obs::jsonio
