#include "core/test_flow.hpp"

#include <utility>
#include <variant>

#include "gates/fault_dictionary.hpp"

namespace cpsinw::core {

using atpg::AtpgResult;
using atpg::AtpgStatus;
using faults::Fault;
using faults::FaultSite;

const char* to_string(CoverageMethod method) {
  switch (method) {
    case CoverageMethod::kStuckAtPattern: return "stuck-at pattern";
    case CoverageMethod::kFunctionalPattern: return "functional pattern";
    case CoverageMethod::kIddqPattern: return "IDDQ pattern";
    case CoverageMethod::kTwoPattern: return "two-pattern";
    case CoverageMethod::kChannelBreak: return "channel-break procedure";
    case CoverageMethod::kUncovered: return "uncovered";
  }
  return "?";
}

int TestSuite::covered_count() const {
  int n = 0;
  for (const FaultOutcome& o : outcomes)
    if (o.method != CoverageMethod::kUncovered) ++n;
  return n;
}

int TestSuite::count(CoverageMethod method) const {
  int n = 0;
  for (const FaultOutcome& o : outcomes)
    if (o.method == method) ++n;
  return n;
}

double TestSuite::coverage() const {
  if (outcomes.empty()) return 1.0;
  return static_cast<double>(covered_count()) /
         static_cast<double>(outcomes.size());
}

void serial_for(std::size_t n, const std::function<void(std::size_t)>& body) {
  for (std::size_t i = 0; i < n; ++i) body(i);
}

namespace {

/// The test the flow found for one fault, if any: a stuck-at, functional
/// or IDDQ pattern, a two-pattern test or a channel-break test.
using FaultTest = std::variant<std::monostate, logic::Pattern,
                               atpg::TwoPatternTest, atpg::ChannelBreakTest>;

/// Targets one fault with the strongest applicable method, filling its
/// outcome.  Shares only the immutable engine, circuit and dictionary
/// table; each search owns its solver state, so faults may be targeted
/// concurrently.
FaultTest target_fault(const atpg::PodemEngine& engine,
                       const TestFlowOptions& options, const Fault& f,
                       FaultOutcome& outcome) {
  outcome.fault = f;

  if (f.site != FaultSite::kGateTransistor) {
    AtpgResult r = engine.generate_line(f, options.podem);
    outcome.status = r.status;
    if (r.status != AtpgStatus::kDetected) return {};
    outcome.method = CoverageMethod::kStuckAtPattern;
    return std::move(r.pattern);
  }

  // Transistor fault: pick the strongest applicable method.
  const gates::FaultAnalysis& fa =
      gates::dictionary(engine.circuit().gate(f.gate).kind, f.cell_fault);

  if (fa.output_detectable) {
    AtpgResult r = engine.generate_functional(f, options.podem);
    outcome.status = r.status;
    if (r.status == AtpgStatus::kDetected) {
      outcome.method = CoverageMethod::kFunctionalPattern;
      return std::move(r.pattern);
    }
  }
  if (!options.classical_only && fa.iddq_detectable && options.observe_iddq) {
    AtpgResult r = engine.generate_iddq(f, options.podem);
    outcome.status = r.status;
    if (r.status == AtpgStatus::kDetected) {
      outcome.method = CoverageMethod::kIddqPattern;
      return std::move(r.pattern);
    }
  }
  if (fa.needs_sequence &&
      f.cell_fault.kind == gates::TransistorFault::kStuckOpen) {
    atpg::TwoPatternResult r =
        atpg::generate_two_pattern(engine, f, options.podem);
    outcome.status = r.status;
    if (r.status == AtpgStatus::kDetected && r.test) {
      outcome.method = CoverageMethod::kTwoPattern;
      return std::move(*r.test);
    }
  }
  if (!options.classical_only &&
      f.cell_fault.kind == gates::TransistorFault::kStuckOpen) {
    auto test = atpg::gate_channel_break_test(
        engine, f.gate, f.cell_fault.transistor, options.podem);
    if (test && test->pattern) {
      outcome.method = CoverageMethod::kChannelBreak;
      outcome.status = AtpgStatus::kDetected;
      return std::move(*test);
    }
  }
  return {};
}

}  // namespace

TestSuite run_test_flow(const logic::Circuit& ckt,
                        const TestFlowOptions& options,
                        const ParallelFor& parallel_for) {
  const atpg::PodemEngine engine(ckt);
  TestSuite suite;

  faults::FaultListOptions flo;
  flo.collapse = true;
  // The flow targets IDDQ tests unless running classically: stuck-ons that
  // are only logic-equivalent to a stuck-at must then stay in the universe
  // so their IDDQ signature is counted separately.
  flo.observe_iddq = options.observe_iddq && !options.classical_only;
  const std::vector<Fault> universe = generate_fault_list(ckt, flo);

  {
    // Each fault is targeted on its own, into its own slots; the tests
    // are then appended in universe order, whatever thread found them.
    // The slots are freed before compaction allocates.
    suite.outcomes.resize(universe.size());
    std::vector<FaultTest> tests(universe.size());
    parallel_for(universe.size(), [&](std::size_t i) {
      tests[i] = target_fault(engine, options, universe[i], suite.outcomes[i]);
    });
    for (std::size_t i = 0; i < tests.size(); ++i) {
      if (auto* p = std::get_if<logic::Pattern>(&tests[i])) {
        std::vector<logic::Pattern>& set =
            suite.outcomes[i].method == CoverageMethod::kIddqPattern
                ? suite.iddq_patterns
                : suite.logic_patterns;
        set.push_back(std::move(*p));
      } else if (auto* t = std::get_if<atpg::TwoPatternTest>(&tests[i])) {
        suite.two_pattern_tests.push_back(std::move(*t));
      } else if (auto* c = std::get_if<atpg::ChannelBreakTest>(&tests[i])) {
        suite.channel_break_tests.push_back(std::move(*c));
      }
    }
  }

  if (options.compact && !suite.logic_patterns.empty()) {
    // Compact only the voltage-observed combinational set; two-pattern and
    // IDDQ tests have their own observation protocols.  The compaction
    // universe is everything those patterns are responsible for: all line
    // faults plus the transistor faults covered by functional patterns.
    std::vector<Fault> comb;
    for (const FaultOutcome& o : suite.outcomes) {
      if (o.fault.site != FaultSite::kGateTransistor)
        comb.push_back(o.fault);
      else if (o.method == CoverageMethod::kFunctionalPattern)
        comb.push_back(o.fault);
    }
    // Retention off: each pattern stands alone, so compaction keeps
    // coverage exactly; the check below still guards that contract.
    faults::FaultSimOptions fso;
    fso.observe_iddq = false;
    fso.sequential_patterns = false;
    const atpg::CompactionResult cr = atpg::compact_patterns(
        ckt, comb, suite.logic_patterns, fso);
    if (cr.coverage_after >= cr.coverage_before)
      suite.logic_patterns = cr.patterns;
  }
  return suite;
}

}  // namespace cpsinw::core
