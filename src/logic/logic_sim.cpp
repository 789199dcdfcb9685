#include "logic/logic_sim.hpp"

#include <stdexcept>

#include "gates/fault_dictionary.hpp"

namespace cpsinw::logic {

namespace {

const Circuit& require_finalized(const Circuit& ckt, const char* what) {
  if (!ckt.finalized()) throw std::invalid_argument(what);
  return ckt;
}

}  // namespace

Simulator::Simulator(const Circuit& ckt)
    : ckt_(ckt),
      cc_(require_finalized(ckt, "Simulator: circuit not finalized")) {}

LogicV eval_cell_x(gates::CellKind kind, LogicV a, LogicV b, LogicV c) {
  const int n = gates::input_count(kind);
  const LogicV in_v[3] = {a, b, c};
  // Enumerate binary completions of X/Z inputs; if all agree the output is
  // defined (no false pessimism on e.g. NAND(0, X) = 1).
  LogicV agreed = LogicV::kZ;  // sentinel: not yet set
  for (unsigned fill = 0; fill < (1u << n); ++fill) {
    unsigned v = 0;
    bool compatible = true;
    for (int i = 0; i < n; ++i) {
      const bool bit = (fill >> i) & 1u;
      if (in_v[i] == LogicV::k0 && bit) compatible = false;
      if (in_v[i] == LogicV::k1 && !bit) compatible = false;
      if (bit) v |= 1u << i;
    }
    if (!compatible) continue;
    const LogicV out = from_bool(gates::good_output(kind, v) != 0);
    if (agreed == LogicV::kZ) {
      agreed = out;
    } else if (agreed != out) {
      return LogicV::kX;
    }
  }
  return agreed == LogicV::kZ ? LogicV::kX : agreed;
}

SimResult Simulator::simulate(const Pattern& pattern) const {
  if (pattern.size() != ckt_.primary_inputs().size())
    throw std::invalid_argument("Simulator: pattern arity mismatch");
  SimResult r;
  cc_.init_scalar(pattern, r.net_values);
  cc_.eval_scalar(r.net_values);
  return r;
}

SimResult Simulator::simulate_faulty(
    const Pattern& pattern, const GateFault& fault,
    const std::vector<LogicV>* previous_state) const {
  if (fault.gate < 0 || fault.gate >= ckt_.gate_count())
    throw std::invalid_argument("simulate_faulty: bad gate id");
  const gates::FaultAnalysis& fa =
      gates::dictionary(ckt_.gate(fault.gate).kind, fault.cell_fault);
  return simulate_faulty_with(pattern, fault, fa, previous_state);
}

SimResult Simulator::simulate_faulty_with(
    const Pattern& pattern, const GateFault& fault,
    const gates::FaultAnalysis& fa,
    const std::vector<LogicV>* previous_state) const {
  if (fault.gate < 0 || fault.gate >= ckt_.gate_count())
    throw std::invalid_argument("simulate_faulty: bad gate id");
  if (pattern.size() != ckt_.primary_inputs().size())
    throw std::invalid_argument("Simulator: pattern arity mismatch");
  SimResult r;
  cc_.init_scalar(pattern, r.net_values);
  r.iddq_flag =
      cc_.eval_scalar_faulty(r.net_values, fault.gate, fa, previous_state);
  return r;
}

}  // namespace cpsinw::logic
