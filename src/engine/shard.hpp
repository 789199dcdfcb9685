// Fault-list sharding: the unit of parallelism of a campaign.  A shard is
// a contiguous slice of one job's fault universe plus a forked RNG stream;
// executing it against the job's shared faults::EvalContext produces
// records that depend only on (circuit, universe slice, patterns, shard
// seed) — never on which thread ran it, when, or even in which process
// (the remote backend ships a shard through engine/shard_io and gets the
// same bytes back).  All shards of a job read one immutable context:
// patterns are packed and the good machine is simulated once per job, not
// once per shard.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "faults/bridge.hpp"
#include "faults/eval_context.hpp"
#include "faults/fault_sim.hpp"
#include "util/rng.hpp"

namespace cpsinw::engine {

/// Fault classes a campaign reports on separately.
enum class FaultClass {
  kLineStuckAt,  ///< classical net/branch stuck-at
  kPolarity,     ///< stuck-at-n-type / stuck-at-p-type (paper's new model)
  kStuckOpen,    ///< channel break
  kStuckOn,      ///< resistive short
  kBridge,       ///< inter-net bridge
};

inline constexpr int kFaultClassCount = 5;

/// Readable class name ("line_stuck_at", ...; stable, used in JSON keys).
[[nodiscard]] const char* to_string(FaultClass cls);

/// Classifies a circuit fault (bridges are classified at construction).
[[nodiscard]] FaultClass classify(const faults::Fault& fault);

/// One fault of a campaign universe: either a circuit fault or a bridge.
struct CampaignFault {
  FaultClass cls = FaultClass::kLineStuckAt;
  faults::Fault fault;          ///< valid unless cls == kBridge
  faults::BridgeFault bridge;   ///< valid when cls == kBridge

  [[nodiscard]] static CampaignFault from_fault(const faults::Fault& f) {
    CampaignFault cf;
    cf.cls = classify(f);
    cf.fault = f;
    return cf;
  }
  [[nodiscard]] static CampaignFault from_bridge(
      const faults::BridgeFault& b) {
    CampaignFault cf;
    cf.cls = FaultClass::kBridge;
    cf.bridge = b;
    return cf;
  }
};

/// A contiguous slice [begin, end) of one job's fault universe.
struct Shard {
  int job = 0;    ///< index into the campaign's jobs
  int index = 0;  ///< shard index within the job
  std::size_t begin = 0;
  std::size_t end = 0;
  /// Forked stream for any stochastic decision inside the shard (fault
  /// sampling).  Depends on (campaign seed, job, index) only, so results
  /// are identical for every thread count.
  util::SplitMix64 rng = util::SplitMix64(0);
};

/// Per-fault outcome, parallel to the shard's slice.
struct FaultResult {
  FaultClass cls = FaultClass::kLineStuckAt;
  faults::DetectionRecord record;
  bool sampled_out = false;  ///< skipped by fault sampling (not simulated)
};

/// Everything one shard produces.
struct ShardResult {
  int job = 0;
  int index = 0;
  std::vector<FaultResult> results;
  double elapsed_s = 0.0;  ///< shard wall clock (reporting only)
};

/// Execution controls shared by every shard of a campaign.
struct ShardExecOptions {
  faults::FaultSimOptions sim;
  /// Simulate each fault with this probability (classic fault sampling for
  /// coverage estimation on huge universes); 1.0 simulates everything.
  double fault_sample_fraction = 1.0;
};

/// Deterministically partitions `fault_count` faults of `job` into shards
/// of at most `shard_size`, forking one RNG stream per shard from
/// `job_rng`.
[[nodiscard]] std::vector<Shard> make_shards(int job,
                                             std::size_t fault_count,
                                             std::size_t shard_size,
                                             const util::SplitMix64& job_rng);

/// Executes one shard against the job's shared evaluation context (the
/// campaign path: the context is built once per job and shared by every
/// shard and thread).
[[nodiscard]] ShardResult run_shard(const faults::EvalContext& ctx,
                                    const std::vector<CampaignFault>& universe,
                                    const Shard& shard,
                                    const ShardExecOptions& options);

/// Convenience wrapper: builds a private context over (ckt, patterns) and
/// runs the shard against it.  Bit-identical to the shared-context path.
[[nodiscard]] ShardResult run_shard(
    const logic::Circuit& ckt, const std::vector<CampaignFault>& universe,
    const std::vector<logic::Pattern>& patterns, const Shard& shard,
    const ShardExecOptions& options);

}  // namespace cpsinw::engine
