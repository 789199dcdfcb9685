#include "faults/random_patterns.hpp"

#include <cstdint>
#include <stdexcept>

#include "gates/dictionary_cache.hpp"
#include "util/rng.hpp"

namespace cpsinw::faults {

using logic::LogicV;
using logic::Pattern;

RandomPatternResult run_random_patterns(const logic::Circuit& ckt,
                                        const std::vector<Fault>& faults,
                                        const RandomPatternOptions& options) {
  if (options.max_patterns < 1)
    throw std::invalid_argument("run_random_patterns: max_patterns >= 1");
  if (options.one_probability <= 0.0 || options.one_probability >= 1.0)
    throw std::invalid_argument(
        "run_random_patterns: one_probability must be in (0,1)");

  // One compilation for the whole run, read directly by the per-pattern
  // checks below: a transistor fault's retained state spans the whole
  // random sequence, which a per-pattern context would restart.
  const logic::CompiledCircuit cc(ckt);
  util::SplitMix64 rng(options.seed);

  // Per-transistor-fault cached dictionary and retained net state, so that
  // floating outputs carry charge across the random sequence (chance
  // two-pattern stuck-open detection); per-line-fault validated compiled
  // descriptors.
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
    trans[fi].fa = &gates::DictionaryCache::global().lookup(
        ckt.gate(f.gate).kind, f.cell_fault);
  }

  RandomPatternResult result;
  result.total_faults = static_cast<int>(faults.size());
  std::vector<char> detected(faults.size(), 0);
  int detected_count = 0;
  int stale = 0;

  // Every buffer the per-pattern verification loop touches is hoisted here
  // and reused — the packed good/faulty words, the single-pattern PI
  // words, the scalar good/faulty values — matching the run_range scratch
  // pattern: zero allocations per (pattern, fault) candidate.  (Retained
  // transistor state moves by swap: `faulty_values` hands its storage to
  // ts.state and takes the stale buffer back for the next candidate.)
  std::vector<std::uint64_t> good_words;
  std::vector<std::uint64_t> faulty_words;
  std::vector<std::uint64_t> pi_words(ckt.primary_inputs().size());
  std::vector<LogicV> good_values;
  std::vector<LogicV> faulty_values;
  for (int k = 0; k < options.max_patterns; ++k) {
    Pattern p(ckt.primary_inputs().size());
    for (auto& v : p)
      v = logic::from_bool(rng.chance(options.one_probability));

    // Per generated pattern: the scalar good machine and the packed good
    // words are computed once here, not once per fault below.  Patterns
    // are binary by construction, so packing is bit 0 of each PI word.
    cc.init_scalar(p, good_values);
    cc.eval_scalar(good_values);
    for (std::size_t i = 0; i < p.size(); ++i)
      pi_words[i] = p[i] == LogicV::k1 ? 1ull : 0ull;
    cc.init_packed(pi_words, good_words);
    cc.eval_packed(good_words);

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
        cc.init_packed(pi_words, faulty_words);
        cc.eval_packed_line(faulty_words, line[fi]);
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

}  // namespace cpsinw::faults
