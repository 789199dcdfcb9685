// Engine-backed benchmark sweeps.  Lives apart from core/experiments.hpp
// so the serial experiment drivers (and the many bench TUs including
// them) stay free of engine headers — engine depends on core only at the
// implementation level, and core exposes the engine only through this
// dedicated header.
#pragma once

#include <cstdint>
#include <vector>

#include "engine/campaign.hpp"

namespace cpsinw::core {

/// Controls for running the benchmark fault sweep through the campaign
/// engine instead of the per-circuit serial loops.
struct CampaignSweepOptions {
  int threads = 1;              ///< 0 = hardware concurrency
  std::size_t shard_size = 64;  ///< faults per work unit
  int random_patterns = 192;
  std::uint64_t seed = 1;
  bool include_bridges = false;
  engine::PatternSourceSpec::Kind pattern_source =
      engine::PatternSourceSpec::Kind::kRandom;
  /// Shard-phase backend (inline / thread pool / remote shard servers —
  /// kRemote endpoints ride along in this spec).
  /// Every backend produces byte-identical stable report JSON.
  engine::ExecutorSpec executor;
  /// Passed through to CampaignSpec: opt-in telemetry block in the
  /// report JSON, and an optional Chrome trace-event output path.
  bool emit_telemetry = false;
  std::string trace_path;
};

/// The standard benchmark roster of the coverage experiments as campaign
/// jobs (c17, full adder, ripple adder, parity tree, multiplier, ALU
/// slice, TMR voter, XOR3 chain) — the circuit set of run_atpg_coverage.
[[nodiscard]] std::vector<engine::CircuitJobSpec> benchmark_campaign_jobs();

/// Runs the whole-roster fault sweep (every fault x every pattern, all
/// fault models of the paper) through the parallel campaign engine.  The
/// per-job records are bit-identical to a serial FaultSimulator::run over
/// the same universe and patterns, at any thread count.
[[nodiscard]] engine::CampaignReport run_benchmark_campaign(
    const CampaignSweepOptions& options = {});

}  // namespace cpsinw::core
