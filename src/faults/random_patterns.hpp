// Random-pattern test generation: the standard baseline ATPG compares
// against, and the source of the coverage-vs-pattern-count curves used to
// quantify how much the deterministic flow (and the paper's new
// observation methods) buy.
#pragma once

#include <cstdint>
#include <vector>

#include "faults/fault_sim.hpp"

namespace cpsinw::faults {

/// Options of a random-pattern campaign.
struct RandomPatternOptions {
  std::uint64_t seed = 1;
  int max_patterns = 256;
  /// Probability of a 1 on each input (0.5 = uniform; other values give
  /// weighted random patterns).
  double one_probability = 0.5;
  /// Stop after this many consecutive patterns without a new detection.
  int stale_limit = 64;
  /// Observation options.  `detection_mode` is ignored: the curve needs
  /// each fault's first detection, so the run is always kFirstOnly.
  FaultSimOptions sim;
};

/// One point of the coverage curve.
struct CoveragePoint {
  int patterns = 0;
  int detected = 0;
  double coverage = 0.0;
};

/// Result of a campaign.
struct RandomPatternResult {
  std::vector<logic::Pattern> patterns;   ///< the applied sequence
  std::vector<CoveragePoint> curve;       ///< one point per pattern
  int total_faults = 0;

  [[nodiscard]] double final_coverage() const {
    return curve.empty() ? 0.0 : curve.back().coverage;
  }
};

/// Runs a random-pattern campaign against a fault list, recording the
/// cumulative coverage after every pattern.  All `max_patterns` patterns
/// are drawn up front and fault-simulated in one first-detection
/// FaultSimulator run over one EvalContext (the same plane kernels as
/// every other caller, with IDDQ observation and retention across the
/// sequence when the options allow them); the curve then stops at the
/// first of `stale_limit` patterns without a new detection or every fault
/// detected.
/// @throws std::invalid_argument when max_patterns < 1 or
///   one_probability is not in (0, 1)
[[nodiscard]] RandomPatternResult run_random_patterns(
    const logic::Circuit& ckt, const std::vector<Fault>& faults,
    const RandomPatternOptions& options = {});

}  // namespace cpsinw::faults
