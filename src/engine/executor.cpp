#include "engine/executor.hpp"

#include <mutex>
#include <stdexcept>

#include "engine/remote_executor.hpp"
#include "engine/thread_pool.hpp"

namespace cpsinw::engine {

const char* to_string(ExecutorBackend backend) {
  switch (backend) {
    case ExecutorBackend::kInline: return "inline";
    case ExecutorBackend::kThreadPool: return "thread_pool";
    case ExecutorBackend::kRemote: return "remote";
  }
  return "?";
}

void PooledExecutorBase::run_setup(
    const std::vector<std::function<void()>>& tasks) {
  std::exception_ptr first;
  std::mutex mutex;
  for (const std::function<void()>& task : tasks) {
    pool_.submit([&task, &first, &mutex] {
      try {
        task();
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex);
        if (!first) first = std::current_exception();
      }
    });
  }
  pool_.wait_idle();
  if (first) std::rethrow_exception(first);
}

void fill_failed_shard(const std::vector<CampaignFault>& universe,
                       const Shard& shard, double fault_sample_fraction,
                       ShardResult& slot) {
  slot.job = shard.job;
  slot.index = shard.index;
  slot.results.assign(shard.end - shard.begin, {});
  // Exactly the sampling loop of run_shard: same RNG fork, same slice
  // order, one draw per fault.
  util::SplitMix64 rng = shard.rng;
  const bool sampling = fault_sample_fraction < 1.0;
  for (std::size_t i = shard.begin; i < shard.end; ++i) {
    FaultResult& r = slot.results[i - shard.begin];
    r.cls = universe[i].cls;
    if (sampling && !rng.chance(fault_sample_fraction)) r.sampled_out = true;
  }
}

namespace {

/// Picks the error the campaign reports: the first failure in canonical
/// (job, shard) task order, so the surfaced message does not depend on
/// which thread or endpoint happened to fail first on the wall clock.
std::string first_error(const std::vector<std::string>& errors) {
  for (const std::string& e : errors)
    if (!e.empty()) return e;
  return {};
}

std::string describe_exception(const std::exception_ptr& ep) {
  try {
    std::rethrow_exception(ep);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown shard failure";
  }
}

// ---------------------------------------------------------------- inline

/// Adds the per-shard trace span every backend records around a shard's
/// execution window (name materialized only when tracing is live).
void trace_shard_span(telemetry::TraceRecorder* trace, const char* backend,
                      const Shard& shard, telemetry::TimePoint start) {
  if (trace == nullptr) return;
  trace->add_span(std::string(backend) + ":shard j" +
                      std::to_string(shard.job) + "." +
                      std::to_string(shard.index),
                  "shard", start, telemetry::Clock::now());
}

/// Serial reference backend: a plain loop, no pool, no processes.  Exists
/// so every other backend has a zero-dependency implementation to be
/// byte-identical against.
class InlineExecutor final : public ShardExecutor {
 public:
  [[nodiscard]] const char* name() const override { return "inline"; }

  void run_setup(const std::vector<std::function<void()>>& tasks) override {
    for (const std::function<void()>& task : tasks) task();
  }

  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body) override {
    for (std::size_t i = 0; i < n; ++i) body(i);
  }

  [[nodiscard]] std::string run(const std::vector<ShardTask>& tasks,
                                const ShardExecOptions& options) override {
    telemetry::Histogram* exec_s =
        telemetry_ != nullptr
            ? &telemetry_->registry.histogram("inline.shard_exec_s")
            : nullptr;
    std::vector<std::string> errors(tasks.size());
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      const ShardTask& task = tasks[t];
      const telemetry::TimePoint start = telemetry::Clock::now();
      try {
        *task.slot =
            run_shard(*task.context, *task.universe, *task.shard, options);
      } catch (...) {
        errors[t] = describe_exception(std::current_exception());
        fill_failed_shard(*task.universe, *task.shard,
                          options.fault_sample_fraction, *task.slot);
      }
      if (exec_s != nullptr) exec_s->record_since(start);
      trace_shard_span(trace(), "inline", *task.shard, start);
    }
    return first_error(errors);
  }
};

// ----------------------------------------------------------- thread pool

class ThreadPoolExecutor final : public PooledExecutorBase {
 public:
  using PooledExecutorBase::PooledExecutorBase;

  [[nodiscard]] const char* name() const override { return "thread_pool"; }

  [[nodiscard]] std::string run(const std::vector<ShardTask>& tasks,
                                const ShardExecOptions& options) override {
    // Metric handles are resolved once here; the hot path only touches
    // relaxed atomics.
    telemetry::Histogram* queue_wait_s = nullptr;
    telemetry::Histogram* exec_s = nullptr;
    if (telemetry_ != nullptr) {
      queue_wait_s = &telemetry_->registry.histogram(
          "thread_pool.queue_wait_s");
      exec_s = &telemetry_->registry.histogram("thread_pool.shard_exec_s");
    }
    telemetry::TraceRecorder* const tr = trace();
    std::vector<std::string> errors(tasks.size());
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      const ShardTask& task = tasks[t];
      const telemetry::TimePoint enqueued = telemetry::Clock::now();
      pool_.submit([&task, &options, &errors, queue_wait_s, exec_s, tr,
                    enqueued, t] {
        if (queue_wait_s != nullptr)
          queue_wait_s->record_since(enqueued);
        const telemetry::TimePoint start = telemetry::Clock::now();
        try {
          *task.slot =
              run_shard(*task.context, *task.universe, *task.shard, options);
        } catch (...) {
          errors[t] = describe_exception(std::current_exception());
          fill_failed_shard(*task.universe, *task.shard,
                            options.fault_sample_fraction, *task.slot);
        }
        if (exec_s != nullptr) exec_s->record_since(start);
        trace_shard_span(tr, "thread_pool", *task.shard, start);
      });
    }
    pool_.wait_idle();
    // Belt and braces: anything that slipped past the per-task handlers
    // (it cannot today, but the pool-level capture keeps this
    // future-proof) is treated like a shard failure, not dropped.
    if (first_error(errors).empty() && pool_.first_exception())
      return describe_exception(pool_.first_exception());
    return first_error(errors);
  }
};

}  // namespace

std::unique_ptr<ShardExecutor> make_shard_executor(const ExecutorSpec& spec,
                                                   int threads) {
  switch (spec.backend) {
    case ExecutorBackend::kInline:
      return std::make_unique<InlineExecutor>();
    case ExecutorBackend::kThreadPool:
      return std::make_unique<ThreadPoolExecutor>(threads);
    case ExecutorBackend::kRemote:
      return make_remote_executor(spec, threads);
  }
  throw std::invalid_argument("make_shard_executor: unknown backend");
}

}  // namespace cpsinw::engine
