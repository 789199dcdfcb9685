// Test-set compaction: reverse-order fault-simulation-based compaction
// (drop patterns that detect no not-yet-covered fault) for combinational
// test sets, found in one first-detection fault-simulation pass.
#pragma once

#include <vector>

#include "faults/fault_sim.hpp"

namespace cpsinw::atpg {

/// Result of a compaction pass.
struct CompactionResult {
  std::vector<logic::Pattern> patterns;  ///< the compacted set
  int original_count = 0;
  double coverage_before = 0.0;
  double coverage_after = 0.0;
};

/// Reverse-order compaction: walking the patterns last-to-first, keep a
/// pattern only if it detects at least one fault not detected by the
/// already-kept ones.  One pass finds them all: a first-detection
/// (DetectionMode::kFirstOnly) run over the reversed list with
/// `sequential_patterns` off keeps every pattern that some record's
/// `first_pattern` names.  `options.observe_iddq` decides whether an
/// IDDQ-only hit counts.  The kept patterns keep their input order.
///
/// `coverage_before` and `coverage_after` are runs with `options` over the
/// input and the kept set.  With `sequential_patterns` off they are equal.
/// With it on (the FaultSimOptions default), a detection that needs charge
/// retained from an earlier pattern is credited to no pattern, so the kept
/// set may lose it and `coverage_after` can fall below `coverage_before`.
/// core::run_test_flow passes retention off and still keeps the compacted
/// set only when coverage did not fall.
///
/// The pass compiles the circuit once; its three contexts (input,
/// reversed, kept) share that compile.
/// @param faults the fault universe to preserve coverage for
[[nodiscard]] CompactionResult compact_patterns(
    const logic::Circuit& ckt, const std::vector<faults::Fault>& faults,
    const std::vector<logic::Pattern>& patterns,
    const faults::FaultSimOptions& options = {});

}  // namespace cpsinw::atpg
