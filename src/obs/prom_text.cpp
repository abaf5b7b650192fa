#include "obs/prom_text.hpp"

#include <cmath>
#include <cstdint>
#include <ostream>

#include "sim/digest.hpp"

namespace athena::obs::prom {
namespace {

bool ValidStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':';
}

bool ValidRest(char c) { return ValidStart(c) || (c >= '0' && c <= '9'); }

}  // namespace

std::string SanitizeMetricName(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 1);
  if (name.empty() || !ValidStart(name.front())) out.push_back('_');
  for (char c : name) out.push_back(ValidRest(c) ? c : '_');
  return out;
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

}  // namespace athena::obs::prom
