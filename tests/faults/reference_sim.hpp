// Reference evaluators for the fault-simulation differential suites: the
// plain algorithms every production walk must reproduce record for
// record.  Nothing here drops faults, batches them or reads a plane
// kernel, so a record from these functions is what the pattern set alone
// says about the fault.
#pragma once

#include <cstdint>
#include <vector>

#include "faults/eval_context.hpp"
#include "faults/fault.hpp"
#include "faults/fault_sim.hpp"
#include "gates/fault_dictionary.hpp"
#include "logic/logic_sim.hpp"

namespace cpsinw::faults::reference {

/// The seed's serial transistor-fault algorithm, verbatim: scalar good
/// machine per pattern, ad-hoc analyze_fault, retained-state threading.
/// In first-only mode it stops after the first counted detection.
inline DetectionRecord transistor(const logic::Circuit& ckt,
                                  const Fault& fault,
                                  const std::vector<logic::Pattern>& patterns,
                                  const FaultSimOptions& options) {
  using logic::LogicV;
  const logic::Simulator sim(ckt);
  const logic::GateFault gf{fault.gate, fault.cell_fault};
  const gates::FaultAnalysis fa =
      gates::analyze_fault(ckt.gate(fault.gate).kind, fault.cell_fault);

  DetectionRecord rec;
  std::vector<LogicV> state;
  for (std::size_t pi = 0; pi < patterns.size(); ++pi) {
    const logic::Pattern& p = patterns[pi];
    const logic::SimResult good = sim.simulate(p);
    const logic::SimResult bad = sim.simulate_faulty_with(
        p, gf, fa, options.sequential_patterns && !state.empty() ? &state
                                                                 : nullptr);
    if (options.sequential_patterns) state = bad.net_values;

    bool hit = false;
    if (bad.iddq_flag && options.observe_iddq) {
      rec.detected_iddq = true;
      hit = true;
    }
    for (const logic::NetId po : ckt.primary_outputs()) {
      const LogicV g = good.value(po);
      const LogicV b = bad.value(po);
      if (is_binary(g) && is_binary(b) && g != b) {
        rec.detected_output = true;
        hit = true;
      } else if (is_binary(g) && !is_binary(b)) {
        rec.potential = true;
      }
    }
    if (hit && rec.first_pattern < 0)
      rec.first_pattern = static_cast<int>(pi);
    if (rec.first_pattern >= 0 &&
        options.detection_mode == DetectionMode::kFirstOnly)
      break;
  }
  return rec;
}

/// Per-word detection words of one line fault on a packed context: one
/// init_packed + eval_packed_line per (fault, word), PO-differenced
/// against the good planes and masked by the word's active patterns.
inline std::vector<std::uint64_t> line_det_words(const EvalContext& ctx,
                                                 const Fault& fault) {
  const logic::Circuit& ckt = ctx.circuit();
  const logic::CompiledCircuit& cc = ctx.compiled();
  const logic::CompiledCircuit::LineFault lf = checked_line_fault(ckt, fault);
  std::vector<std::uint64_t> det(ctx.word_count(), 0);
  std::vector<std::uint64_t> values;
  for (std::size_t w = 0; w < ctx.word_count(); ++w) {
    const EvalContext::Batch& batch = ctx.batches()[w];
    cc.init_packed(batch.pi_words, values);
    cc.eval_packed_line(values, lf);
    std::uint64_t diff = 0;
    for (const logic::NetId po : ckt.primary_outputs())
      diff |= ctx.good_plane(po)[w] ^ values[static_cast<std::size_t>(po)];
    det[w] = diff & batch.active;
  }
  return det;
}

/// Line-fault record from line_det_words: detected at the lowest set bit
/// of the first nonzero word.  A line fault has no IDDQ or X observable,
/// so full and first-only records coincide.
inline DetectionRecord line(const EvalContext& ctx, const Fault& fault) {
  DetectionRecord rec;
  const std::vector<std::uint64_t> det = line_det_words(ctx, fault);
  for (std::size_t w = 0; w < det.size(); ++w) {
    if (det[w] == 0) continue;
    rec.detected_output = true;
    rec.first_pattern = static_cast<int>(w * 64) + __builtin_ctzll(det[w]);
    break;
  }
  return rec;
}

/// Reference record of any line or transistor fault over the context's
/// pattern set.
inline DetectionRecord record(const EvalContext& ctx, const Fault& fault,
                              const FaultSimOptions& options) {
  return fault.site == FaultSite::kGateTransistor
             ? transistor(ctx.circuit(), fault, ctx.patterns(), options)
             : line(ctx, fault);
}

/// Reference records of a fault list, parallel to it.
inline std::vector<DetectionRecord> records(const EvalContext& ctx,
                                            const std::vector<Fault>& faults,
                                            const FaultSimOptions& options) {
  std::vector<DetectionRecord> out;
  out.reserve(faults.size());
  for (const Fault& f : faults) out.push_back(record(ctx, f, options));
  return out;
}

}  // namespace cpsinw::faults::reference
