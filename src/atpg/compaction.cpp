#include "atpg/compaction.hpp"

namespace cpsinw::atpg {

CompactionResult compact_patterns(const logic::Circuit& ckt,
                                  const std::vector<faults::Fault>& faults,
                                  const std::vector<logic::Pattern>& patterns,
                                  const faults::FaultSimOptions& options) {
  const faults::FaultSimulator fsim(ckt);
  CompactionResult out;
  out.original_count = static_cast<int>(patterns.size());
  // The one compile of the pass: the other two contexts borrow it.
  const faults::EvalContext before_ctx(ckt, patterns);
  const logic::CompiledCircuit& cc = before_ctx.compiled();
  out.coverage_before = fsim.run(before_ctx, faults, options).coverage();

  // Walking the list last-to-first, a pattern is kept iff it is the first
  // to detect some fault.  (Reverse order works well because ATPG emits
  // patterns for hard faults last, and those often cover many easy
  // faults.)  With retention off a pattern's detections do not depend on
  // its neighbours, so one first-detection run over the reversed list
  // names every kept pattern.
  faults::FaultSimOptions pass = options;
  pass.sequential_patterns = false;
  pass.detection_mode = faults::DetectionMode::kFirstOnly;
  const std::size_t n = patterns.size();
  const faults::EvalContext rev_ctx(
      cc, std::vector<logic::Pattern>(patterns.rbegin(), patterns.rend()));
  std::vector<char> keep(n, 0);
  for (const faults::DetectionRecord& rec :
       fsim.run(rev_ctx, faults, pass).records)
    if (rec.first_pattern >= 0)
      keep[n - 1 - static_cast<std::size_t>(rec.first_pattern)] = 1;
  for (std::size_t p = 0; p < n; ++p)
    if (keep[p]) out.patterns.push_back(patterns[p]);
  out.coverage_after =
      fsim.run(faults::EvalContext(cc, out.patterns), faults, options)
          .coverage();
  return out;
}

}  // namespace cpsinw::atpg
