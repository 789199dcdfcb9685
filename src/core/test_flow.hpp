// End-to-end CP test generation flow: classical line stuck-at ATPG plus the
// paper's extensions (functional polarity-fault tests, IDDQ tests,
// two-pattern stuck-open tests for SP gates, channel-break procedure for
// DP gates), with verification by fault simulation and optional
// compaction.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "atpg/channel_break.hpp"
#include "atpg/compaction.hpp"
#include "atpg/podem.hpp"
#include "atpg/two_pattern.hpp"
#include "faults/fault_list.hpp"
#include "faults/fault_sim.hpp"

namespace cpsinw::core {

/// How a fault ended up covered.
enum class CoverageMethod {
  kStuckAtPattern,     ///< classical PODEM pattern
  kFunctionalPattern,  ///< output-observable polarity/stuck-on test
  kIddqPattern,        ///< leakage-observable test (paper Table III)
  kTwoPattern,         ///< stuck-open two-pattern sequence
  kChannelBreak,       ///< the paper's new DP procedure
  kUncovered,          ///< no test found (untestable or aborted)
};

/// Readable method name.
[[nodiscard]] const char* to_string(CoverageMethod method);

/// Per-fault outcome of the flow.
struct FaultOutcome {
  faults::Fault fault;
  CoverageMethod method = CoverageMethod::kUncovered;
  atpg::AtpgStatus status = atpg::AtpgStatus::kUntestable;
};

/// Flow controls.
struct TestFlowOptions {
  atpg::PodemOptions podem;
  bool compact = true;
  bool observe_iddq = true;
  /// Disable the new fault models (baseline comparison: classical flow).
  bool classical_only = false;
};

/// The generated test artifacts.
struct TestSuite {
  std::vector<logic::Pattern> logic_patterns;    ///< voltage-observed tests
  std::vector<logic::Pattern> iddq_patterns;     ///< IDDQ-observed tests
  std::vector<atpg::TwoPatternTest> two_pattern_tests;
  std::vector<atpg::ChannelBreakTest> channel_break_tests;
  std::vector<FaultOutcome> outcomes;

  [[nodiscard]] int covered_count() const;
  [[nodiscard]] int count(CoverageMethod method) const;
  [[nodiscard]] double coverage() const;
};

/// Runs body(i) once for every i in [0, n), in any order and on any
/// threads, and returns when all have finished.
using ParallelFor = std::function<void(
    std::size_t n, const std::function<void(std::size_t)>& body)>;

/// The serial ParallelFor: a plain loop on the calling thread.
void serial_for(std::size_t n, const std::function<void(std::size_t)>& body);

/// Runs the complete flow over the circuit's fault universe.  Each fault is
/// targeted on its own (no fault dropping), so the per-fault searches are
/// independent: `parallel_for` spreads them, all sharing one immutable
/// PodemEngine, and the suite is the same whichever thread ran which
/// search.  Tests are collected in universe order afterwards.
[[nodiscard]] TestSuite run_test_flow(
    const logic::Circuit& ckt, const TestFlowOptions& options = {},
    const ParallelFor& parallel_for = serial_for);

}  // namespace cpsinw::core
