// Fault-campaign engine: a whole sweep (circuits x fault models x a
// pattern source) as one first-class object, executed as sharded work
// units on a work-stealing pool and merged into a deterministic
// CampaignReport.  Bit-identical results for every thread count are an
// API guarantee: all stochastic choices flow from per-job / per-shard
// forks of the campaign seed, and the merge order is fixed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/test_flow.hpp"
#include "engine/executor.hpp"
#include "engine/report.hpp"
#include "engine/shard.hpp"
#include "logic/circuit.hpp"

namespace cpsinw::engine {

/// Where a job's patterns come from.
struct PatternSourceSpec {
  enum class Kind {
    kExplicit,  ///< caller-provided patterns (applied to every job)
    kRandom,    ///< seeded random patterns, one stream per job
    kAtpg,      ///< run the full CP test-generation flow per job
  };
  Kind kind = Kind::kRandom;

  // kExplicit:
  std::vector<logic::Pattern> explicit_patterns;

  // kRandom:
  int random_count = 256;
  double one_probability = 0.5;

  // kAtpg:
  bool atpg_compact = true;
};

/// Readable source name ("explicit", "random", "atpg").
[[nodiscard]] const char* to_string(PatternSourceSpec::Kind kind);

/// Which fault models populate the universe.
struct FaultModelSelection {
  bool line_stuck_at = true;
  bool polarity = true;    ///< stuck-at-n-type / stuck-at-p-type
  bool stuck_open = true;  ///< channel break
  bool stuck_on = true;    ///< resistive short
  bool bridge = false;     ///< adjacent-net bridge universe (large!)
  /// Collapse equivalent faults before classification (note: collapsing
  /// runs on the full transistor universe, so a kept representative may
  /// stand for merged faults of a deselected class).
  bool collapse = true;
};

/// One circuit of a campaign.
struct CircuitJobSpec {
  std::string name;
  logic::Circuit circuit;  ///< finalized
};

/// A complete campaign description.
struct CampaignSpec {
  std::vector<CircuitJobSpec> jobs;
  FaultModelSelection models;
  PatternSourceSpec patterns;
  faults::FaultSimOptions sim;
  /// Detection semantics for the whole campaign (authoritative: overrides
  /// whatever `sim.detection_mode` holds).  kFull keeps the historical
  /// whole-pattern-set detection flags; kFirstOnly lets every simulation
  /// path stop at the first counted detection, changing the records —
  /// still deterministically merged, and serialized in the report JSON
  /// only when non-default.
  faults::DetectionMode detection_mode = faults::DetectionMode::kFull;
  std::uint64_t seed = 1;
  std::size_t shard_size = 64;  ///< faults per work unit (must be > 0)
  /// Worker threads (kThreadPool), or maximum concurrent shard exchanges
  /// (kRemote); 0 = hardware concurrency, ignored by kInline.  Must not be
  /// negative.
  int threads = 1;
  double fault_sample_fraction = 1.0;
  /// How the shard phase executes.  Any backend and any thread count
  /// produce byte-identical stable JSON — the executor only decides
  /// where shards run, never what they compute.
  ExecutorSpec executor;
  /// Opt-in "telemetry" block in the report JSON (counters, gauges,
  /// latency histograms collected by this campaign) plus setup_s/merge_s
  /// in the timing section.  Default off: the stable JSON stays
  /// byte-identical to an uninstrumented run.
  bool emit_telemetry = false;
  /// When non-empty, the campaign records phase/shard/RPC spans and
  /// writes a Chrome trace-event JSON file here on completion (load it
  /// in chrome://tracing or Perfetto).  Empty = no span overhead at all.
  std::string trace_path;
};

/// Builds the classified fault universe of one circuit (deterministic
/// enumeration order; exposed so tests can reproduce exactly what a
/// campaign simulates).  `observe_iddq` must match the campaign's IDDQ
/// observation: it decides whether stuck-on faults that are only
/// logic-equivalent to a line stuck-at may be collapsed onto it.
[[nodiscard]] std::vector<CampaignFault> build_universe(
    const logic::Circuit& ckt, const FaultModelSelection& models,
    bool observe_iddq);

/// Materializes the pattern set of one job.  `job_rng` is consumed only by
/// the random source (fork it per job as the campaign does).  The ATPG
/// source spreads its per-fault searches with `parallel_for`; the patterns
/// do not depend on it.
[[nodiscard]] std::vector<logic::Pattern> build_patterns(
    const logic::Circuit& ckt, const PatternSourceSpec& source,
    util::SplitMix64 job_rng,
    const core::ParallelFor& parallel_for = core::serial_for);

/// Runs the campaign on the backend selected by `spec.executor`.  Shards
/// execute in arbitrary order; the report they merge into does not depend
/// on that order (nor on the backend).
/// @throws std::invalid_argument on a malformed spec (shard_size == 0,
///   negative threads, fault_sample_fraction outside (0, 1], unfinalized
///   circuits, explicit-pattern arity mismatches, or a remote backend with
///   an empty endpoint list, a malformed "host:port" entry, or
///   non-positive timeout/in-flight/quarantine knobs); per-shard
///   execution failures never throw — they surface on
///   CampaignReport::error
[[nodiscard]] CampaignReport run_campaign(const CampaignSpec& spec);

}  // namespace cpsinw::engine
