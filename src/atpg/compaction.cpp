#include "atpg/compaction.hpp"

#include <algorithm>

namespace cpsinw::atpg {

CompactionResult compact_patterns(const logic::Circuit& ckt,
                                  const std::vector<faults::Fault>& faults,
                                  const std::vector<logic::Pattern>& patterns,
                                  const faults::FaultSimOptions& options) {
  const faults::FaultSimulator fsim(ckt);
  CompactionResult out;
  out.original_count = static_cast<int>(patterns.size());
  // The one compile of the pass: every later context borrows it.
  const faults::EvalContext before_ctx(ckt, patterns);
  const logic::CompiledCircuit& cc = before_ctx.compiled();
  out.coverage_before = fsim.run(before_ctx, faults, options).coverage();

  // Walk patterns in reverse; keep one iff it adds coverage over the kept
  // set so far.  (Reverse order works well because ATPG emits patterns for
  // hard faults last, and those often cover many easy faults.)
  std::vector<logic::Pattern> kept;
  std::vector<char> covered(faults.size(), 0);
  int covered_count = 0;
  for (auto it = patterns.rbegin(); it != patterns.rend(); ++it) {
    bool adds = false;
    const faults::EvalContext pattern_ctx(cc, {*it});
    const faults::FaultSimReport rep = fsim.run(pattern_ctx, faults, options);
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
      if (covered[fi]) continue;
      if (rep.records[fi].detected(options.observe_iddq)) {
        covered[fi] = 1;
        ++covered_count;
        adds = true;
      }
    }
    if (adds) kept.push_back(*it);
    if (covered_count == static_cast<int>(faults.size())) break;
  }
  std::reverse(kept.begin(), kept.end());
  out.patterns = std::move(kept);
  out.coverage_after =
      fsim.run(faults::EvalContext(cc, out.patterns), faults, options)
          .coverage();
  return out;
}

}  // namespace cpsinw::atpg
