// Pluggable shard-executor backends.  A campaign's shard phase is "run
// these shards, deliver every ShardResult into its canonical slot"; how
// that happens — serially in-process, on the work-stealing pool, or
// fanned out to cpsinw_shard_server endpoints — is a backend choice that
// must never change the answer.  The campaign JSON is byte-identical
// across all backends (and all thread counts): shards are pure functions
// of (context, universe slice, shard seed), and the merge order is fixed
// upstream of the executor.
//
// Failure contract (all backends): a failing shard never aborts the
// campaign.  Its slot is filled with placeholder simulated-but-undetected
// records (totals stay complete, detections become lower bounds) and the
// first failure in canonical shard order is returned as the error text
// that run_campaign surfaces on CampaignReport::error.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "engine/shard.hpp"
#include "engine/telemetry.hpp"
#include "engine/thread_pool.hpp"

namespace cpsinw::engine {

/// Available shard-phase execution strategies.
enum class ExecutorBackend {
  kInline,      ///< serial in-process loop (zero-dependency reference)
  kThreadPool,  ///< work-stealing in-process pool
  kRemote,      ///< cpsinw_shard_server endpoints over TCP (multi-host)
};

/// Readable backend name ("inline", "thread_pool", "remote").
[[nodiscard]] const char* to_string(ExecutorBackend backend);

/// Backend selection plus the knobs only some backends consume.
struct ExecutorSpec {
  ExecutorBackend backend = ExecutorBackend::kThreadPool;
  /// kRemote: per-shard wall-clock budget.  An attempt that exceeds it
  /// (connect + send + receive) is abandoned and failed over.
  double worker_timeout_s = 120.0;
  /// kRemote: cpsinw_shard_server addresses as "host:port" strings
  /// (required, non-empty; each entry must parse).
  std::vector<std::string> endpoints;
  /// kRemote: maximum shards in flight on one endpoint at a time.
  int remote_max_in_flight = 2;
  /// kRemote: consecutive failures after which an endpoint is quarantined
  /// for the rest of the campaign (a downed host costs a few timeouts,
  /// not one per shard).
  int remote_quarantine_failures = 3;
};

/// One unit of shard-phase work: where to read and where to deliver.  All
/// pointers outlive the executor run (they live in the campaign's JobData).
struct ShardTask {
  const faults::EvalContext* context = nullptr;
  const std::vector<CampaignFault>* universe = nullptr;
  const Shard* shard = nullptr;
  ShardResult* slot = nullptr;
};

/// Fills a failed shard's slot with placeholder undetected records so the
/// merged report keeps complete totals (the CampaignReport::error
/// lower-bound contract).  Replays the shard's sampling decisions from its
/// RNG fork so the sampled universe — the coverage denominator — is the
/// same one a successful run would have simulated: a failed shard lowers
/// detection counts, never inflates the denominator.
void fill_failed_shard(const std::vector<CampaignFault>& universe,
                       const Shard& shard, double fault_sample_fraction,
                       ShardResult& slot);

/// Executes the shard phase of a campaign.
class ShardExecutor {
 public:
  virtual ~ShardExecutor() = default;

  /// Stable backend name (reported in the campaign's timing section).
  [[nodiscard]] virtual const char* name() const = 0;

  /// Runs the campaign's per-job setup tasks (universe, patterns, shard
  /// decomposition) on the backend's compute resource: serially for
  /// kInline, on the one shared pool otherwise (the remote backend also
  /// sets up in-process — servers only ever see finished shards).
  /// Setup failures are spec-level problems, not shard failures: the
  /// first exception is rethrown.
  virtual void run_setup(const std::vector<std::function<void()>>& tasks) = 0;

  /// Runs body(i) for every i in [0, n) on the same resource as run_setup,
  /// callable from inside a setup task: a plain loop for kInline,
  /// ThreadPool::parallel_for otherwise.  One ATPG job spreads its
  /// per-fault searches this way.  If some index throws, an exception is
  /// rethrown once the call ends.
  virtual void parallel_for(
      std::size_t n, const std::function<void(std::size_t)>& body) = 0;

  /// Runs every task, filling `task.slot` in place.  Per-shard failures do
  /// not throw: the failed slot is placeholder-filled and the first
  /// failure message in canonical task order is returned (empty string on
  /// full success).
  [[nodiscard]] virtual std::string run(const std::vector<ShardTask>& tasks,
                                        const ShardExecOptions& options) = 0;

  /// Points the executor at a campaign's telemetry (metric registry +
  /// trace recorder).  Null (the default) disables both: executors must
  /// tolerate a null pointer on every path, so standalone executor use
  /// stays zero-setup.  Call before run_setup/run; the pointee must
  /// outlive the executor run.
  void set_telemetry(telemetry::CampaignTelemetry* telemetry) {
    telemetry_ = telemetry;
  }

 protected:
  /// The campaign's telemetry, or null when telemetry is off.
  telemetry::CampaignTelemetry* telemetry_ = nullptr;

  /// The trace recorder, or null when telemetry/tracing is off.
  [[nodiscard]] telemetry::TraceRecorder* trace() const {
    return telemetry_ != nullptr ? &telemetry_->trace : nullptr;
  }
};

/// Common base of the concurrent backends: one ThreadPool serves the setup
/// phase, the setup tasks' parallel_for and the shard phase (no thread
/// churn between phases; the remote backend uses the pool's threads to
/// pump its per-shard I/O while setup always runs in-process).
class PooledExecutorBase : public ShardExecutor {
 public:
  explicit PooledExecutorBase(int threads) : pool_(threads) {}

  void run_setup(const std::vector<std::function<void()>>& tasks) override;

  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body) override {
    pool_.parallel_for(n, body);
  }

 protected:
  ThreadPool pool_;
};

/// Builds the backend selected by `spec`.  `threads` means: ignored by
/// kInline, worker-thread count for kThreadPool, maximum concurrent shard
/// exchanges for kRemote (0 selects the hardware concurrency).
/// @throws std::invalid_argument for kRemote with an empty endpoint list,
///   a malformed "host:port" entry, or non-positive
///   timeout/in-flight/quarantine knobs
[[nodiscard]] std::unique_ptr<ShardExecutor> make_shard_executor(
    const ExecutorSpec& spec, int threads);

}  // namespace cpsinw::engine
