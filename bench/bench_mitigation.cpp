// Mitigation control-plane baseline (BENCH_mitigation.json): the full
// mitigation on/off chaos matrix — per-scenario QoE deltas, guardrail
// engagement, sense-to-act latency and the ledger digests — plus the
// wall-clock overhead of running the closed loop at all.
//
// Doubles as a CI gate: exits non-zero when any pair violates the
// contract (QoE regression beyond slack, budget overrun, guardrails
// silent on hostile telemetry) or when the matrix is not byte-identical
// across job counts.
#include <chrono>
#include <cstddef>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "fault/chaos.hpp"
#include "fault/mitigation_chaos.hpp"
#include "sim/time.hpp"
#include "sim/wall_clock.hpp"

namespace {


std::string MatrixBytes(const athena::fault::MitigationMatrixResult& result,
                        std::size_t seeds, athena::sim::Duration budget) {
  std::ostringstream os;
  // jobs pinned to 0 in the serialization so different job counts are
  // byte-comparable.
  athena::fault::WriteMitigationJson(os, result, 42, seeds, 0, budget);
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace athena;
  using namespace std::chrono_literals;
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_mitigation.json";
  bool smoke = false;
  for (int i = 2; i < argc; ++i) smoke = smoke || std::string(argv[i]) == "--smoke";

  const sim::Duration budget = 50ms;
  const std::size_t seeds = smoke ? 1 : 2;
  std::vector<fault::ChaosScenario> scenarios = fault::BuiltinScenarios();
  if (smoke) {
    // CI sizing: the clean reference plus the scenarios whose contract
    // requires visible guardrail engagement.
    std::vector<fault::ChaosScenario> subset;
    for (const fault::ChaosScenario& s : scenarios) {
      if (s.name == "clean_baseline" || s.expect.mitigation_guarded) {
        subset.push_back(s);
      }
    }
    scenarios = std::move(subset);
  }

  auto t0 = athena::sim::WallClock::now();
  const fault::MitigationMatrixResult matrix =
      fault::RunMitigationMatrix(scenarios, 42, seeds, 8, budget);
  const double matrix_secs = athena::sim::SecondsSince(t0);

  fault::RenderMitigationTable(std::cout, matrix);
  std::cout << matrix.outcomes.size() << " on/off pairs in " << matrix_secs * 1e3
            << " ms\n";

  // Byte-identity across job counts: the determinism half of the gate.
  t0 = athena::sim::WallClock::now();
  const fault::MitigationMatrixResult sequential =
      fault::RunMitigationMatrix(scenarios, 42, seeds, 1, budget);
  const double sequential_secs = athena::sim::SecondsSince(t0);
  const bool jobs_identical =
      MatrixBytes(matrix, seeds, budget) == MatrixBytes(sequential, seeds, budget);
  std::cout << "jobs 8 vs 1: " << (jobs_identical ? "byte-identical" : "DIVERGED")
            << " (" << sequential_secs * 1e3 << " ms sequential)\n";

  std::ofstream os{out_path};
  os << "{\n";
  os << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  os << "  \"matrix_secs\": " << matrix_secs << ",\n";
  os << "  \"sequential_secs\": " << sequential_secs << ",\n";
  os << "  \"jobs_identical\": " << (jobs_identical ? "true" : "false") << ",\n";
  os << "  \"matrix\": ";
  {
    std::ostringstream inner;
    fault::WriteMitigationJson(inner, matrix, 42, seeds, 8, budget);
    // Indent the nested document to keep the envelope readable.
    std::string s = inner.str();
    std::string indented;
    indented.reserve(s.size());
    for (const char c : s) {
      indented += c;
      if (c == '\n') indented += "  ";
    }
    while (!indented.empty() &&
           (indented.back() == ' ' || indented.back() == '\n')) {
      indented.pop_back();
    }
    os << indented << "\n";
  }
  os << "}\n";
  std::cout << "wrote " << out_path << "\n";

  if (!matrix.all_ok()) {
    std::cerr << "mitigation matrix contract violations: " << matrix.failures()
              << "\n";
    return 1;
  }
  if (!jobs_identical) {
    std::cerr << "mitigation matrix diverged across job counts\n";
    return 1;
  }
  return 0;
}
