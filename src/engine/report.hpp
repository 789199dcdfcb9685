// Campaign result aggregation and JSON emission.  Everything outside the
// `timing` section is a pure function of the campaign spec — the JSON of
// the same spec is byte-identical at any thread count AND on any
// execution backend (inline, thread pool, remote shard servers); the
// cross-backend equivalence tests pin that guarantee down.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/shard.hpp"
#include "engine/telemetry.hpp"

namespace cpsinw::engine {

/// First-detect histograms bucket the pattern index into this many bins.
inline constexpr int kHistogramBuckets = 16;

/// Detection statistics of one fault class.
struct ClassStats {
  int total = 0;            ///< faults of this class in the universe
  int sampled = 0;          ///< actually simulated (fault sampling)
  int detected = 0;         ///< per the campaign's observation options
  int detected_output = 0;  ///< definite PO flip
  int iddq_only = 0;        ///< IDDQ anomaly without any PO flip
  int potential = 0;        ///< X reached a PO where good is defined

  /// detected / sampled; 1.0 for an empty class (nothing to cover) but
  /// 0.0 when fault sampling skipped every fault of a non-empty class.
  [[nodiscard]] double coverage() const;

  void add(const ClassStats& other);
};

/// Aggregated result of one circuit job.
struct JobReport {
  std::string circuit;
  int gate_count = 0;
  int transistor_count = 0;
  int pattern_count = 0;
  int shard_count = 0;
  std::array<ClassStats, kFaultClassCount> by_class;
  /// Count of first detections per pattern-index bucket.
  std::array<int, kHistogramBuckets> first_detect_histogram = {};
  double shard_time_sum_s = 0.0;  ///< reporting only, not in stable JSON

  [[nodiscard]] ClassStats totals() const;
};

/// Wall-clock statistics (never part of the deterministic JSON).
struct CampaignTiming {
  std::string backend;  ///< executor backend name ("inline", ...)
  int threads = 0;
  int shard_count = 0;
  double wall_s = 0.0;
  double shard_time_sum_s = 0.0;       ///< total CPU-side shard time
  double fault_patterns_per_s = 0.0;   ///< sampled faults x patterns / wall
  /// Phase breakdown (universe/pattern/shard construction vs the final
  /// deterministic merge).  Serialized only when the report's telemetry
  /// block is on.
  double setup_s = 0.0;
  double merge_s = 0.0;
};

/// The merged result of a whole campaign.
struct CampaignReport {
  std::uint64_t seed = 0;
  std::size_t shard_size = 0;
  std::string pattern_source;
  double fault_sample_fraction = 1.0;
  bool observe_iddq = true;
  /// The campaign's detection semantics.  Serialized (after observe_iddq)
  /// only when kFirstOnly, so default-mode JSON stays byte-identical to
  /// every report ever emitted in full mode.
  faults::DetectionMode detection_mode = faults::DetectionMode::kFull;
  /// First shard-phase task failure (what() text), empty on success.  A
  /// failed shard's slot is filled with default simulated-but-undetected
  /// records (totals stay complete), so a non-empty error marks every
  /// detection count and coverage below as a lower bound.  Serialized into
  /// the stable JSON only when non-empty — successful runs stay
  /// byte-identical.
  std::string error;
  std::vector<JobReport> jobs;
  CampaignTiming timing;
  /// Opt-in (CampaignSpec::emit_telemetry): when true, to_json appends a
  /// "telemetry" block with the campaign's metric snapshot — and only
  /// then, so the default output stays byte-identical across backends,
  /// thread counts, and instrumented vs uninstrumented builds.
  bool emit_telemetry = false;
  telemetry::RegistrySnapshot telemetry;

  [[nodiscard]] bool ok() const { return error.empty(); }
  [[nodiscard]] ClassStats totals() const;

  /// Deterministic JSON (stable key order, fixed float formatting).  With
  /// `include_timing` a trailing "timing" object is appended — only then
  /// does the output depend on the machine and thread count.  With
  /// `emit_telemetry` a "telemetry" object (counters/gauges/histograms)
  /// lands between "totals" and "timing"; its values are runtime-
  /// dependent, like timing.
  [[nodiscard]] std::string to_json(bool include_timing = false) const;
};

/// Folds one shard's results into a job report (the fold is commutative,
/// so any merge order yields the same report; the campaign still merges
/// in shard-index order for clarity).
void accumulate_shard(JobReport& job, const ShardResult& shard,
                      int pattern_count, bool observe_iddq);

}  // namespace cpsinw::engine
