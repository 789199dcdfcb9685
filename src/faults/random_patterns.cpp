#include "faults/random_patterns.hpp"

#include <cstddef>
#include <stdexcept>
#include <utility>

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

  util::SplitMix64 rng(options.seed);
  std::vector<Pattern> drawn(static_cast<std::size_t>(options.max_patterns),
                             Pattern(ckt.primary_inputs().size()));
  for (Pattern& p : drawn)
    for (LogicV& v : p)
      v = logic::from_bool(rng.chance(options.one_probability));

  // One first-detection run over the whole sequence.  A kFirstOnly record
  // is the record of the sequence cut at its first counted detection, and
  // retained state threads forward only, so the patterns after the stop
  // point below cannot change a detection before it.
  FaultSimOptions sim = options.sim;
  sim.detection_mode = DetectionMode::kFirstOnly;
  const EvalContext ctx(ckt, std::move(drawn));
  const FaultSimReport report = FaultSimulator(ckt).run(ctx, faults, sim);
  std::vector<int> first_at(ctx.pattern_count(), 0);
  for (const DetectionRecord& r : report.records)
    if (r.first_pattern >= 0)
      ++first_at[static_cast<std::size_t>(r.first_pattern)];

  RandomPatternResult result;
  result.total_faults = static_cast<int>(faults.size());
  int detected = 0;
  int stale = 0;
  std::size_t used = 0;
  while (used < first_at.size()) {
    detected += first_at[used];
    stale = first_at[used] > 0 ? 0 : stale + 1;
    ++used;
    result.curve.push_back(
        {static_cast<int>(used), detected,
         faults.empty() ? 1.0
                        : static_cast<double>(detected) /
                              static_cast<double>(faults.size())});
    if (stale >= options.stale_limit) break;
    if (detected == result.total_faults) break;
  }
  const auto first = ctx.patterns().begin();
  result.patterns.assign(first, first + static_cast<std::ptrdiff_t>(used));
  return result;
}

}  // namespace cpsinw::faults
