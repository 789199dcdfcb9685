// Reference evaluators for the fault-simulation differential suites: the
// plain algorithms every production walk must reproduce record for
// record.  Nothing here batches faults or reads a plane kernel, so a
// result from these functions is what the pattern set alone says about
// the faults.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "faults/bridge.hpp"
#include "faults/eval_context.hpp"
#include "faults/fault.hpp"
#include "faults/fault_sim.hpp"
#include "faults/random_patterns.hpp"
#include "gates/fault_dictionary.hpp"
#include "logic/logic_sim.hpp"
#include "util/rng.hpp"
#include "../logic/reference_logic.hpp"

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

/// The engine's bridge record before the plane kernel: per pattern, a
/// scalar good machine and faults::simulate_bridge (the bounded feedback
/// fixpoint with its oscillation -> X rule), a PO flip counting where
/// both values are binary, and an IDDQ hit where the good machine drives
/// the two nets to opposite binary values.  In first-only mode it stops
/// after the first counted detection.
inline DetectionRecord bridge(const logic::Circuit& ckt,
                              const BridgeFault& bridge,
                              const std::vector<logic::Pattern>& patterns,
                              const FaultSimOptions& options) {
  using logic::LogicV;
  const logic::Simulator sim(ckt);
  DetectionRecord rec;
  for (std::size_t pi = 0; pi < patterns.size(); ++pi) {
    const logic::SimResult good = sim.simulate(patterns[pi]);
    bool hit = false;
    if (!rec.detected_output) {
      const std::vector<LogicV> bad =
          simulate_bridge(ckt, bridge, patterns[pi]);
      for (const logic::NetId po : ckt.primary_outputs()) {
        const LogicV g = good.net_values[static_cast<std::size_t>(po)];
        const LogicV b = bad[static_cast<std::size_t>(po)];
        if (is_binary(g) && is_binary(b) && g != b) {
          rec.detected_output = true;
          hit = true;
          break;
        }
      }
    }
    if (options.observe_iddq) {
      const LogicV va = good.net_values[static_cast<std::size_t>(bridge.a)];
      const LogicV vb = good.net_values[static_cast<std::size_t>(bridge.b)];
      if (is_binary(va) && is_binary(vb) && va != vb) {
        rec.detected_iddq = true;
        hit = true;
      }
    }
    if (hit && rec.first_pattern < 0) rec.first_pattern = static_cast<int>(pi);
    if (rec.first_pattern >= 0 &&
        options.detection_mode == DetectionMode::kFirstOnly)
      break;
    if (rec.detected_output && (rec.detected_iddq || !options.observe_iddq))
      break;
  }
  return rec;
}

/// One pattern word of PI values, packed by the oracle itself.
struct PackedWord {
  std::vector<std::uint64_t> pi_words;  ///< per PI: bit k = pattern 64w + k
  std::uint64_t active = 0;             ///< one bit per pattern of the word
};

/// Pattern word `w` of the context's pattern list, packed on its own with
/// logic::reference::pack_patterns rather than read from the context.
inline PackedWord pack_word(const EvalContext& ctx, std::size_t w) {
  const std::vector<logic::Pattern>& patterns = ctx.patterns();
  const std::size_t base = w * 64;
  const std::size_t count = std::min<std::size_t>(64, patterns.size() - base);
  const auto first = patterns.begin() + static_cast<long>(base);
  PackedWord out;
  out.pi_words = logic::reference::pack_patterns(
      ctx.circuit(), std::vector<logic::Pattern>(
                         first, first + static_cast<long>(count)));
  out.active = count == 64 ? ~0ull : ((1ull << count) - 1ull);
  return out;
}

/// Per-word detection words of one line fault on a packed context: one
/// pack_word + interpreted single-word line walk per (fault, word),
/// PO-differenced against the good planes and masked by the word's
/// patterns.
inline std::vector<std::uint64_t> line_det_words(const EvalContext& ctx,
                                                 const Fault& fault) {
  const logic::Circuit& ckt = ctx.circuit();
  const logic::CompiledCircuit::LineFault lf = checked_line_fault(ckt, fault);
  std::vector<std::uint64_t> det(ctx.word_count(), 0);
  for (std::size_t w = 0; w < ctx.word_count(); ++w) {
    const PackedWord word = pack_word(ctx, w);
    const std::vector<std::uint64_t> values =
        logic::reference::packed_line(ckt, word.pi_words, lf);
    std::uint64_t diff = 0;
    for (const logic::NetId po : ckt.primary_outputs())
      diff |= ctx.good_plane(po)[w] ^ values[static_cast<std::size_t>(po)];
    det[w] = diff & word.active;
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

/// The random-pattern campaign loop that run_random_patterns replaced,
/// verbatim apart from its single-word packed passes, which now come from
/// reference_logic.hpp: per drawn pattern, a scalar good machine and a
/// packed one; then every fault, a line fault through the interpreted
/// single-word walk, a transistor fault through a scalar faulty pass that
/// threads its retained state across the whole sequence (a detected fault
/// keeps threading it).  Stops after `stale_limit` patterns without a new
/// detection, then once every fault is detected.  The option checks are
/// left to the library.
inline RandomPatternResult random_patterns(
    const logic::Circuit& ckt, const std::vector<Fault>& faults,
    const RandomPatternOptions& options) {
  using logic::LogicV;
  const logic::CompiledCircuit cc(ckt);
  util::SplitMix64 rng(options.seed);

  struct TransState {
    logic::GateFault gf;
    const gates::FaultAnalysis* fa = nullptr;
    std::vector<LogicV> state;
  };
  std::vector<TransState> trans(faults.size());
  std::vector<logic::CompiledCircuit::LineFault> line(faults.size());
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    const Fault& f = faults[fi];
    if (f.site != FaultSite::kGateTransistor) {
      line[fi] = checked_line_fault(ckt, f);
      continue;
    }
    trans[fi].gf = {f.gate, f.cell_fault};
    trans[fi].fa = &gates::dictionary(ckt.gate(f.gate).kind, f.cell_fault);
  }

  RandomPatternResult result;
  result.total_faults = static_cast<int>(faults.size());
  std::vector<char> detected(faults.size(), 0);
  int detected_count = 0;
  int stale = 0;
  std::vector<std::uint64_t> pi_words(ckt.primary_inputs().size());
  std::vector<LogicV> good_values;
  std::vector<LogicV> faulty_values;
  for (int k = 0; k < options.max_patterns; ++k) {
    logic::Pattern p(ckt.primary_inputs().size());
    for (auto& v : p)
      v = logic::from_bool(rng.chance(options.one_probability));

    cc.init_scalar(p, good_values);
    cc.eval_scalar(good_values);
    for (std::size_t i = 0; i < p.size(); ++i)
      pi_words[i] = p[i] == LogicV::k1 ? 1ull : 0ull;
    const std::vector<std::uint64_t> good_words =
        logic::reference::simulate_packed(ckt, pi_words);

    bool progress = false;
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
      const Fault& f = faults[fi];
      bool hit = false;
      if (f.site == FaultSite::kGateTransistor) {
        TransState& ts = trans[fi];
        const bool has_state =
            options.sim.sequential_patterns && !ts.state.empty();
        cc.init_scalar(p, faulty_values);
        const bool iddq = cc.eval_scalar_faulty(
            faulty_values, ts.gf.gate, *ts.fa, has_state ? &ts.state : nullptr);
        if (detected[fi]) {
          if (options.sim.sequential_patterns) ts.state.swap(faulty_values);
          continue;
        }
        if (iddq && options.sim.observe_iddq) hit = true;
        for (const logic::NetId po : ckt.primary_outputs()) {
          const LogicV g = good_values[static_cast<std::size_t>(po)];
          const LogicV b = faulty_values[static_cast<std::size_t>(po)];
          if (is_binary(g) && is_binary(b) && g != b) hit = true;
        }
        if (options.sim.sequential_patterns) ts.state.swap(faulty_values);
      } else {
        if (detected[fi]) continue;
        const std::vector<std::uint64_t> faulty_words =
            logic::reference::packed_line(ckt, pi_words, line[fi]);
        for (const logic::NetId po : ckt.primary_outputs())
          if (((good_words[static_cast<std::size_t>(po)] ^
                faulty_words[static_cast<std::size_t>(po)]) &
               1ull) != 0) {
            hit = true;
            break;
          }
      }
      if (hit && !detected[fi]) {
        detected[fi] = 1;
        ++detected_count;
        progress = true;
      }
    }

    result.patterns.push_back(std::move(p));
    result.curve.push_back(
        {k + 1, detected_count,
         faults.empty() ? 1.0
                        : static_cast<double>(detected_count) /
                              static_cast<double>(faults.size())});

    stale = progress ? 0 : stale + 1;
    if (stale >= options.stale_limit) break;
    if (detected_count == static_cast<int>(faults.size())) break;
  }
  return result;
}

}  // namespace cpsinw::faults::reference
