#include "faults/diagnosis.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "gates/fault_dictionary.hpp"

namespace cpsinw::faults {

using logic::LogicV;
using logic::Pattern;

namespace {

/// Throws std::invalid_argument, prefixed with `where`, when the fault's
/// ids do not fit the circuit or a transistor fault has no kind
/// (checked_line_fault, transistor_fault_error): predict indexes nets,
/// gates and pins with them unchecked.
void check_fault(const logic::Circuit& ckt, const Fault& fault,
                 const std::string& where) {
  if (fault.site == FaultSite::kGateTransistor) {
    if (const char* error = transistor_fault_error(ckt, fault))
      throw std::invalid_argument(where + ": " + error);
    return;
  }
  try {
    (void)checked_line_fault(ckt, fault);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(where + ": " + e.what());
  }
}

/// Simulated (outputs, iddq) of a fault under one pattern.
struct Predicted {
  std::vector<LogicV> outputs;
  bool iddq = false;
};

Predicted predict(const logic::Simulator& sim, const Fault& fault,
                  const Pattern& pattern) {
  const logic::Circuit& ckt = sim.circuit();
  Predicted out;
  if (fault.site == FaultSite::kGateTransistor) {
    const logic::GateFault gf{fault.gate, fault.cell_fault};
    const logic::SimResult r = sim.simulate_faulty(pattern, gf);
    out.iddq = r.iddq_flag;
    for (const logic::NetId po : ckt.primary_outputs())
      out.outputs.push_back(r.value(po));
    return out;
  }
  // Line fault: a scalar X-aware pass with the line forced.
  const logic::SimResult good = sim.simulate(pattern);
  std::vector<LogicV> values = good.net_values;
  const LogicV forced = fault.stuck_at_one ? LogicV::k1 : LogicV::k0;
  if (fault.site == FaultSite::kNet)
    values[static_cast<std::size_t>(fault.net)] = forced;
  for (const int gid : ckt.topo_order()) {
    const logic::GateInst& g = ckt.gate(gid);
    LogicV in_v[3] = {LogicV::kX, LogicV::kX, LogicV::kX};
    for (int i = 0; i < g.input_count(); ++i) {
      in_v[i] =
          values[static_cast<std::size_t>(g.in[static_cast<std::size_t>(i)])];
      if (fault.site == FaultSite::kGateInput && fault.gate == gid &&
          fault.pin == i)
        in_v[i] = forced;
    }
    LogicV o = logic::eval_cell_x(g.kind, in_v[0], in_v[1], in_v[2]);
    if (fault.site == FaultSite::kNet && g.out == fault.net) o = forced;
    values[static_cast<std::size_t>(g.out)] = o;
  }
  for (const logic::NetId po : ckt.primary_outputs())
    out.outputs.push_back(values[static_cast<std::size_t>(po)]);
  // A hard line short to a rail draws contention current whenever the
  // driver fights it (good value differs from the forced value).
  if (fault.site == FaultSite::kNet)
    out.iddq = is_binary(good.value(fault.net)) &&
               good.value(fault.net) != forced;
  return out;
}

/// Does a simulated response explain an observation?  X predictions are
/// compatible with anything.
bool compatible(const Predicted& predicted, const Observation& observed) {
  if (predicted.outputs.size() != observed.outputs.size()) return false;
  for (std::size_t i = 0; i < predicted.outputs.size(); ++i) {
    const LogicV p = predicted.outputs[i];
    const LogicV o = observed.outputs[i];
    if (is_binary(p) && is_binary(o) && p != o) return false;
  }
  if (predicted.iddq != observed.iddq_elevated) return false;
  return true;
}

}  // namespace

Observation predict_observation(const logic::Circuit& ckt,
                                const Fault& fault,
                                const Pattern& pattern) {
  check_fault(ckt, fault, "predict_observation");
  const Predicted p = predict(logic::Simulator(ckt), fault, pattern);
  return {pattern, p.outputs, p.iddq};
}

Observation predict_good_observation(const logic::Circuit& ckt,
                                     const Pattern& pattern) {
  const logic::Simulator sim(ckt);
  const logic::SimResult r = sim.simulate(pattern);
  Observation obs;
  obs.pattern = pattern;
  for (const logic::NetId po : ckt.primary_outputs())
    obs.outputs.push_back(r.value(po));
  obs.iddq_elevated = false;
  return obs;
}

std::vector<DiagnosisCandidate> diagnose(
    const logic::Circuit& ckt, std::span<const Observation> observations,
    const std::vector<Fault>& candidates) {
  for (const Fault& f : candidates) check_fault(ckt, f, "diagnose");
  const logic::Simulator sim(ckt);
  std::vector<DiagnosisCandidate> ranked;
  ranked.reserve(candidates.size());
  for (const Fault& f : candidates) {
    DiagnosisCandidate c;
    c.fault = f;
    for (const Observation& obs : observations) {
      const Predicted p = predict(sim, f, obs.pattern);
      if (compatible(p, obs))
        ++c.matches;
      else
        ++c.mismatches;
    }
    const int total = c.matches + c.mismatches;
    c.score = total == 0 ? 0.0
                         : static_cast<double>(c.matches) /
                               static_cast<double>(total);
    ranked.push_back(std::move(c));
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const DiagnosisCandidate& a,
                      const DiagnosisCandidate& b) {
                     return a.score > b.score;
                   });
  return ranked;
}

}  // namespace cpsinw::faults
