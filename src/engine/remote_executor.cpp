#include "engine/remote_executor.hpp"

#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "engine/net.hpp"
#include "engine/shard_io.hpp"
#include "engine/telemetry.hpp"
#include "util/log.hpp"

namespace cpsinw::engine {

namespace {

using util::LogLevel;

std::string first_error(const std::vector<std::string>& errors) {
  for (const std::string& e : errors)
    if (!e.empty()) return e;
  return {};
}

std::string endpoint_label(const net::Endpoint& ep) {
  return ep.host + ":" + std::to_string(ep.port);
}

/// Shared endpoint state for one campaign run: in-flight bookkeeping,
/// consecutive-failure counts, and the quarantine flag.  acquire/release
/// only decide *where* a shard attempt runs — results land in canonical
/// slots regardless, so none of this scheduling can change the report.
class EndpointRoster {
 public:
  EndpointRoster(const std::vector<net::Endpoint>& endpoints,
                 int max_in_flight, int quarantine_failures)
      : max_in_flight_(max_in_flight),
        quarantine_failures_(quarantine_failures) {
    states_.reserve(endpoints.size());
    for (const net::Endpoint& ep : endpoints) states_.push_back({ep});
  }

  /// Blocks until some endpoint not in `tried` is live with a free slot,
  /// then claims it (least-loaded first, index as the tie-break).
  /// Returns -1 once every untried endpoint is quarantined — the caller
  /// is out of failover options.
  [[nodiscard]] int acquire(const std::vector<char>& tried) {
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
      int best = -1;
      bool any_candidate = false;
      for (std::size_t i = 0; i < states_.size(); ++i) {
        if (states_[i].dead || tried[i] != 0) continue;
        any_candidate = true;
        if (states_[i].in_flight >= max_in_flight_) continue;
        if (best < 0 ||
            states_[i].in_flight <
                states_[static_cast<std::size_t>(best)].in_flight)
          best = static_cast<int>(i);
      }
      if (best >= 0) {
        ++states_[static_cast<std::size_t>(best)].in_flight;
        return best;
      }
      if (!any_candidate) return -1;
      cv_.wait(lock);  // candidates exist but are all at capacity
    }
  }

  /// Returns true when this release newly quarantined the endpoint (the
  /// caller owns the one log line / metric tick for that transition).
  bool release(int index, bool success) {
    bool newly_dead = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      State& s = states_[static_cast<std::size_t>(index)];
      --s.in_flight;
      if (success) {
        s.consecutive_failures = 0;
      } else if (!s.dead &&
                 ++s.consecutive_failures >= quarantine_failures_) {
        s.dead = true;  // retired for the rest of the campaign
        newly_dead = true;
      }
    }
    cv_.notify_all();
    return newly_dead;
  }

  [[nodiscard]] const net::Endpoint& endpoint(int index) const {
    return states_[static_cast<std::size_t>(index)].ep;
  }

 private:
  struct State {
    net::Endpoint ep;
    int in_flight = 0;
    int consecutive_failures = 0;
    bool dead = false;
  };

  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<State> states_;
  const int max_in_flight_;
  const int quarantine_failures_;
};

/// Closes a socket on every exit path of an exchange.
struct FdCloser {
  int fd;
  ~FdCloser() { close(fd); }
};

/// Per-endpoint metric handles, resolved once per run() (registry lookups
/// take a lock; updates are relaxed atomics).  All null when telemetry is
/// off.
struct EndpointMetrics {
  telemetry::Histogram* connect_s = nullptr;
  telemetry::Histogram* send_s = nullptr;
  telemetry::Histogram* recv_s = nullptr;
  telemetry::Counter* shards_ok = nullptr;
  telemetry::Counter* failures = nullptr;
};

class RemoteExecutor final : public PooledExecutorBase {
 public:
  RemoteExecutor(ExecutorSpec spec, std::vector<net::Endpoint> endpoints,
                 int threads)
      : PooledExecutorBase(threads),
        spec_(std::move(spec)),
        endpoints_(std::move(endpoints)) {}

  [[nodiscard]] const char* name() const override { return "remote"; }

  [[nodiscard]] std::string run(const std::vector<ShardTask>& tasks,
                                const ShardExecOptions& options) override {
    EndpointRoster roster(endpoints_, spec_.remote_max_in_flight,
                          spec_.remote_quarantine_failures);

    // Metric handles are resolved here, once, never in the per-shard path.
    ep_metrics_.assign(endpoints_.size(), EndpointMetrics{});
    queue_wait_s_ = nullptr;
    shard_exec_s_ = nullptr;
    retries_ = failovers_ = quarantines_ = nullptr;
    if (telemetry_ != nullptr) {
      telemetry::Registry& reg = telemetry_->registry;
      queue_wait_s_ = &reg.histogram("remote.queue_wait_s");
      shard_exec_s_ = &reg.histogram("remote.shard_exec_s");
      retries_ = &reg.counter("remote.retries");
      failovers_ = &reg.counter("remote.failovers");
      quarantines_ = &reg.counter("remote.quarantines");
      for (std::size_t i = 0; i < endpoints_.size(); ++i) {
        const std::string label = endpoint_label(endpoints_[i]);
        ep_metrics_[i].connect_s =
            &reg.histogram("remote." + label + ".connect_s");
        ep_metrics_[i].send_s = &reg.histogram("remote." + label + ".send_s");
        ep_metrics_[i].recv_s = &reg.histogram("remote." + label + ".recv_s");
        ep_metrics_[i].shards_ok =
            &reg.counter("remote." + label + ".shards_ok");
        ep_metrics_[i].failures =
            &reg.counter("remote." + label + ".failures");
      }
    }

    std::vector<std::string> errors(tasks.size());
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      const ShardTask& task = tasks[t];
      const telemetry::TimePoint enqueued = telemetry::Clock::now();
      pool_.submit([this, &task, &options, &roster, &errors, enqueued, t] {
        if (queue_wait_s_ != nullptr)
          queue_wait_s_->record_since(enqueued);
        const telemetry::TimePoint start = telemetry::Clock::now();
        errors[t] = run_one(task, options, roster);
        if (shard_exec_s_ != nullptr)
          shard_exec_s_->record_since(start);
        if (trace() != nullptr)
          trace()->add_span("remote:shard j" +
                                std::to_string(task.shard->job) + "." +
                                std::to_string(task.shard->index),
                            "remote", start, telemetry::Clock::now());
      });
    }
    pool_.wait_idle();
    return first_error(errors);
  }

 private:
  /// Runs one shard with failover: each endpoint is attempted at most
  /// once, in roster order of availability, until one answers.  On total
  /// failure the slot is placeholder-filled and the last endpoint's
  /// failure is reported (tagged with the canonical shard identity).
  [[nodiscard]] std::string run_one(const ShardTask& task,
                                    const ShardExecOptions& options,
                                    EndpointRoster& roster) {
    const std::string input = serialize_shard_input(
        task.context->circuit(), task.context->patterns(), *task.universe,
        *task.shard, options);

    std::vector<char> tried(endpoints_.size(), 0);
    std::string last_error;
    int attempts = 0;
    for (int ep = roster.acquire(tried); ep >= 0;
         ep = roster.acquire(tried)) {
      tried[static_cast<std::size_t>(ep)] = 1;
      ++attempts;
      if (attempts > 1) {
        if (retries_ != nullptr) retries_->add();
        if (failovers_ != nullptr) failovers_->add();
      }
      const std::string error = exchange(ep, roster.endpoint(ep), input, task);
      const bool ok = error.empty();
      EndpointMetrics& m = ep_metrics_[static_cast<std::size_t>(ep)];
      if (ok) {
        if (m.shards_ok != nullptr) m.shards_ok->add();
      } else if (m.failures != nullptr) {
        m.failures->add();
      }
      if (roster.release(ep, ok)) {
        if (quarantines_ != nullptr) quarantines_->add();
        util::log_kv(LogLevel::kWarn, "endpoint_quarantined",
                     {{"endpoint", endpoint_label(roster.endpoint(ep))},
                      {"error", error}});
      }
      if (ok) return {};
      util::log_kv(LogLevel::kInfo, "shard_attempt_failed",
                   {{"endpoint", endpoint_label(roster.endpoint(ep))},
                    {"job", task.shard->job},
                    {"index", task.shard->index},
                    {"attempt", attempts},
                    {"error", error}});
      last_error = endpoint_label(roster.endpoint(ep)) + ": " + error;
    }

    fill_failed_shard(*task.universe, *task.shard,
                      options.fault_sample_fraction, *task.slot);
    if (last_error.empty())
      last_error = "no live endpoints (all quarantined)";
    util::log_kv(LogLevel::kWarn, "shard_failed",
                 {{"job", task.shard->job},
                  {"index", task.shard->index},
                  {"error", last_error}});
    return "remote shard (job " + std::to_string(task.shard->job) +
           ", shard " + std::to_string(task.shard->index) + "): " +
           last_error;
  }

  /// One framed request/response attempt against one endpoint, the whole
  /// conversation under one wall-clock deadline.  Returns "" on success
  /// (the slot is filled) or the failure text.
  [[nodiscard]] std::string exchange(int ep_index, const net::Endpoint& ep,
                                     const std::string& input,
                                     const ShardTask& task) {
    const net::Deadline deadline =
        net::deadline_after(spec_.worker_timeout_s);
    EndpointMetrics& m = ep_metrics_[static_cast<std::size_t>(ep_index)];
    std::string error;

    const telemetry::TimePoint t_connect = telemetry::Clock::now();
    const int fd = net::connect_endpoint(ep, deadline, &error);
    if (m.connect_s != nullptr) m.connect_s->record_since(t_connect);
    if (fd < 0) return error;
    FdCloser closer{fd};

    const telemetry::TimePoint t_send = telemetry::Clock::now();
    const bool sent = net::send_frame(fd, input, deadline, &error);
    if (m.send_s != nullptr) m.send_s->record_since(t_send);
    if (!sent) return "send: " + error;

    std::string output;
    const telemetry::TimePoint t_recv = telemetry::Clock::now();
    const bool received =
        net::recv_frame(fd, &output, deadline, net::kMaxFrameBytes, &error);
    const telemetry::TimePoint t_done = telemetry::Clock::now();
    if (m.recv_s != nullptr)
      m.recv_s->record(std::chrono::duration<double>(t_done - t_recv).count());
    if (!received)
      return error.empty() ? "connection closed before a result arrived"
                           : error;

    ShardResult result;
    try {
      result = parse_shard_result(output);
    } catch (const std::exception& e) {
      return std::string("malformed result: ") + e.what();
    }
    const std::string mismatch =
        check_shard_result(result, *task.shard, *task.universe,
                           task.context->pattern_count());
    if (!mismatch.empty()) return mismatch;
    // The server's own clock never enters the trace: its execution span
    // is reconstructed from the reported elapsed time, ending when the
    // reply finished arriving.  It lands on this pool thread's dedicated
    // remote lane (one exchange per thread at a time, so lanes never
    // carry overlapping spans even with several shards in flight on one
    // endpoint); the endpoint identity rides in the category.
    if (trace() != nullptr)
      trace()->add_remote_span(
          "server:run_shard j" + std::to_string(result.job) + "." +
              std::to_string(result.index),
          "remote:" + endpoint_label(ep), t_done, result.elapsed_s,
          telemetry::TraceRecorder::remote_tid(
              telemetry::TraceRecorder::current_tid()));
    *task.slot = std::move(result);
    return {};
  }

  ExecutorSpec spec_;
  std::vector<net::Endpoint> endpoints_;
  std::vector<EndpointMetrics> ep_metrics_;
  telemetry::Histogram* queue_wait_s_ = nullptr;
  telemetry::Histogram* shard_exec_s_ = nullptr;
  telemetry::Counter* retries_ = nullptr;
  telemetry::Counter* failovers_ = nullptr;
  telemetry::Counter* quarantines_ = nullptr;
};

}  // namespace

bool query_server_stats(const std::string& endpoint, double timeout_s,
                        ServerStats* out, std::string* error) {
  net::Endpoint ep;
  try {
    ep = net::parse_endpoint(endpoint);
  } catch (const std::invalid_argument& e) {
    *error = e.what();
    return false;
  }
  const net::Deadline deadline = net::deadline_after(timeout_s);
  const int fd = net::connect_endpoint(ep, deadline, error);
  if (fd < 0) return false;
  FdCloser closer{fd};

  if (!net::send_frame(fd, serialize_stats_request(), deadline, error)) {
    *error = "send: " + *error;
    return false;
  }
  std::string reply;
  if (!net::recv_frame(fd, &reply, deadline, net::kMaxFrameBytes, error)) {
    if (error->empty())
      *error = "connection closed before a stats response arrived";
    return false;
  }
  try {
    *out = parse_stats_response(reply);
  } catch (const std::exception& e) {
    *error = std::string("malformed stats response: ") + e.what();
    return false;
  }
  return true;
}

std::unique_ptr<ShardExecutor> make_remote_executor(const ExecutorSpec& spec,
                                                    int threads) {
  std::vector<net::Endpoint> endpoints;
  try {
    endpoints = net::parse_endpoints(spec.endpoints);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(std::string("make_shard_executor: ") +
                                e.what());
  }
  if (!(spec.worker_timeout_s > 0.0))
    throw std::invalid_argument(
        "make_shard_executor: worker_timeout_s must be > 0");
  if (spec.remote_max_in_flight < 1)
    throw std::invalid_argument(
        "make_shard_executor: remote_max_in_flight must be >= 1");
  if (spec.remote_quarantine_failures < 1)
    throw std::invalid_argument(
        "make_shard_executor: remote_quarantine_failures must be >= 1");
  return std::make_unique<RemoteExecutor>(spec, std::move(endpoints),
                                          threads);
}

}  // namespace cpsinw::engine
