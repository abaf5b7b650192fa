// The one JSON string escaper. Every JSON writer in the tree uses it:
// the trace exporters, anomaly JSONL, fleet reports and the chaos and
// mitigation matrices. Header-only, so callers outside the trace
// recorder can include it on its own.
#pragma once

#include <cstdio>
#include <ostream>
#include <string_view>

namespace athena::obs::jsonio {

/// Writes `s` as the body of a JSON string: quote and backslash escaped,
/// `\n` and `\t` by name, every other byte below 0x20 as `\u00XX`.
inline void WriteEscaped(std::ostream& os, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
}

/// Writes `s` as a quoted JSON string.
inline void WriteString(std::ostream& os, std::string_view s) {
  os << '"';
  WriteEscaped(os, s);
  os << '"';
}

}  // namespace athena::obs::jsonio
