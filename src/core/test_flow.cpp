#include "core/test_flow.hpp"

#include "gates/dictionary_cache.hpp"

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

TestSuite run_test_flow(const logic::Circuit& ckt,
                        const TestFlowOptions& options) {
  const atpg::PodemEngine engine(ckt);
  TestSuite suite;

  faults::FaultListOptions flo;
  flo.collapse = true;
  // The flow targets IDDQ tests unless running classically: stuck-ons that
  // are only logic-equivalent to a stuck-at must then stay in the universe
  // so their IDDQ signature is counted separately.
  flo.observe_iddq = options.observe_iddq && !options.classical_only;
  const std::vector<Fault> universe = generate_fault_list(ckt, flo);

  for (const Fault& f : universe) {
    FaultOutcome outcome;
    outcome.fault = f;

    if (f.site != FaultSite::kGateTransistor) {
      const AtpgResult r = engine.generate_line(f, options.podem);
      outcome.status = r.status;
      if (r.status == AtpgStatus::kDetected) {
        outcome.method = CoverageMethod::kStuckAtPattern;
        suite.logic_patterns.push_back(r.pattern);
      }
      suite.outcomes.push_back(outcome);
      continue;
    }

    // Transistor fault: pick the strongest applicable method.
    const logic::GateInst& g = ckt.gate(f.gate);
    const gates::FaultAnalysis& fa =
        gates::DictionaryCache::global().lookup(g.kind, f.cell_fault);

    if (fa.output_detectable) {
      const AtpgResult r = engine.generate_functional(f, options.podem);
      outcome.status = r.status;
      if (r.status == AtpgStatus::kDetected) {
        outcome.method = CoverageMethod::kFunctionalPattern;
        suite.logic_patterns.push_back(r.pattern);
        suite.outcomes.push_back(outcome);
        continue;
      }
    }
    if (!options.classical_only && fa.iddq_detectable &&
        options.observe_iddq) {
      const AtpgResult r = engine.generate_iddq(f, options.podem);
      outcome.status = r.status;
      if (r.status == AtpgStatus::kDetected) {
        outcome.method = CoverageMethod::kIddqPattern;
        suite.iddq_patterns.push_back(r.pattern);
        suite.outcomes.push_back(outcome);
        continue;
      }
    }
    if (fa.needs_sequence &&
        f.cell_fault.kind == gates::TransistorFault::kStuckOpen) {
      const atpg::TwoPatternResult r =
          atpg::generate_two_pattern(engine, f, options.podem);
      outcome.status = r.status;
      if (r.status == AtpgStatus::kDetected && r.test) {
        outcome.method = CoverageMethod::kTwoPattern;
        suite.two_pattern_tests.push_back(*r.test);
        suite.outcomes.push_back(outcome);
        continue;
      }
    }
    if (!options.classical_only &&
        f.cell_fault.kind == gates::TransistorFault::kStuckOpen &&
        gates::is_dynamic_polarity(g.kind)) {
      auto test = atpg::derive_cell_test(g.kind, f.cell_fault.transistor);
      if (test) {
        test->gate = f.gate;
        bool pi_fed = true;
        for (int i = 0; i < g.input_count(); ++i)
          if (!ckt.is_primary_input(g.in[static_cast<std::size_t>(i)]))
            pi_fed = false;
        test->pi_accessible = pi_fed;
        const AtpgResult just = engine.justify_gate_cube(
            f.gate, test->local_vector, options.podem);
        if (just.status == AtpgStatus::kDetected) {
          test->pattern = just.pattern;
          outcome.method = CoverageMethod::kChannelBreak;
          outcome.status = AtpgStatus::kDetected;
          suite.channel_break_tests.push_back(*test);
          suite.outcomes.push_back(outcome);
          continue;
        }
      }
    }
    suite.outcomes.push_back(outcome);
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
