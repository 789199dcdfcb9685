#include "atpg/two_pattern.hpp"

#include <stdexcept>

namespace cpsinw::atpg {

using faults::Fault;
using faults::FaultSite;

TwoPatternResult generate_two_pattern(const logic::Circuit& ckt,
                                      const Fault& fault,
                                      const PodemOptions& opt) {
  const PodemEngine engine(ckt);
  return generate_two_pattern(engine, fault, opt);
}

TwoPatternResult generate_two_pattern(const PodemEngine& engine,
                                      const Fault& fault,
                                      const PodemOptions& opt) {
  if (fault.site != FaultSite::kGateTransistor ||
      fault.cell_fault.kind != gates::TransistorFault::kStuckOpen)
    throw std::invalid_argument(
        "generate_two_pattern: needs a transistor stuck-open fault");

  const logic::Circuit& ckt = engine.circuit();
  const gates::FaultAnalysis& fa =
      checked_transistor_dictionary(ckt, fault, "generate_two_pattern");
  const faults::FaultSimulator fsim(ckt);

  TwoPatternResult result;
  bool any_aborted = false;

  for (const gates::FaultRow& row2 : fa.rows) {
    if (!row2.faulty.floating) continue;  // v2 must float the output
    const unsigned v2 = row2.input;
    const int o2 = row2.good;

    for (const gates::FaultRow& row1 : fa.rows) {
      // v1 must drive the *opposite* value correctly in the faulty machine.
      if (row1.good == o2) continue;
      const int fv1 = fa.faulty_logic(row1.input);
      if (fv1 != row1.good) continue;

      ++result.attempts;
      // Justify v1 (initialization only; no propagation needed) and v2
      // with D propagation to a PO: the faulty output retains !o2 while
      // the good machine produces o2.
      const AtpgResult r1 =
          engine.justify_gate_cube(fault.gate, row1.input, opt);
      if (r1.status == AtpgStatus::kAborted) any_aborted = true;
      if (r1.status != AtpgStatus::kDetected) continue;

      const AtpgResult r2 = engine.generate_functional_retained(
          fault, v2, o2 != 0, opt);
      if (r2.status == AtpgStatus::kAborted) any_aborted = true;
      if (r2.status != AtpgStatus::kDetected) continue;

      // Independent verification with retention-aware fault simulation.
      const faults::EvalContext pair(engine.compiled(),
                                     {r1.pattern, r2.pattern});
      if (!fsim.simulate_transistor_fault(pair, fault).detected_output)
        continue;

      TwoPatternTest test;
      test.fault = fault;
      test.init = r1.pattern;
      test.test = r2.pattern;
      test.init_cube = row1.input;
      test.test_cube = v2;
      result.status = AtpgStatus::kDetected;
      result.test = test;
      return result;
    }
  }
  result.status =
      any_aborted ? AtpgStatus::kAborted : AtpgStatus::kUntestable;
  return result;
}

std::vector<TwoPatternResult> generate_all_stuck_open_tests(
    const logic::Circuit& ckt, const PodemOptions& opt) {
  std::vector<TwoPatternResult> out;
  // One engine for the whole sweep: the circuit is compiled and SCOAP
  // computed once, not once per stuck-open fault.
  const PodemEngine engine(ckt);
  for (const logic::GateInst& g : ckt.gates()) {
    const int nt = static_cast<int>(gates::cell(g.kind).transistors.size());
    for (int t = 0; t < nt; ++t) {
      out.push_back(generate_two_pattern(
          engine,
          Fault::transistor(g.id, t, gates::TransistorFault::kStuckOpen),
          opt));
    }
  }
  return out;
}

}  // namespace cpsinw::atpg
