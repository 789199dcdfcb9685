// Campaign-engine scaling across execution backends: throughput (sampled
// faults x patterns per second) of the same parity_tree(64) campaign on
// the inline reference, the thread pool at 1/2/4/8 threads, and a
// loopback remote shard server.  The deterministic JSON of every run is
// checked against the inline reference — a scaling number only counts if
// the answer is bit-identical.  Results land in BENCH_engine_scaling.json
// (also the last stdout line) so the bench trajectory captures executor
// overhead per backend over time.
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "engine/campaign.hpp"
#include "engine/net.hpp"
#include "engine/thread_pool.hpp"
#include "logic/benchmarks.hpp"
#include "util/table.hpp"

namespace {

std::string server_path() {
#ifdef CPSINW_SHARD_SERVER_PATH
  return CPSINW_SHARD_SERVER_PATH;
#else
  return {};
#endif
}

struct RunConfig {
  cpsinw::engine::ExecutorBackend backend;
  int threads;
};

/// JSON fragment with the executor-side latency snapshot of one run:
/// queue-wait p50/p95 and the shard-execution histogram (p50/p95 plus raw
/// buckets, so the trajectory can spot distribution shifts, not just
/// median drift).
std::string telemetry_json(const cpsinw::engine::CampaignReport& report) {
  using cpsinw::engine::telemetry::HistogramValue;
  const std::string& backend = report.timing.backend;
  const HistogramValue* queue =
      report.telemetry.find_histogram(backend + ".queue_wait_s");
  const HistogramValue* exec =
      report.telemetry.find_histogram(backend + ".shard_exec_s");
  std::string out = "{";
  if (queue != nullptr) {
    out += "\"queue_wait_p50_s\":" + std::to_string(queue->quantile_s(0.5)) +
           ",\"queue_wait_p95_s\":" + std::to_string(queue->quantile_s(0.95)) +
           ",";
  }
  if (exec != nullptr) {
    out += "\"shard_exec_p50_s\":" + std::to_string(exec->quantile_s(0.5)) +
           ",\"shard_exec_p95_s\":" + std::to_string(exec->quantile_s(0.95)) +
           ",\"shard_exec_count\":" + std::to_string(exec->count) +
           ",\"shard_exec_buckets\":[";
    for (std::size_t i = 0; i < exec->buckets.size(); ++i) {
      if (i != 0) out += ",";
      out += std::to_string(exec->buckets[i]);
    }
    out += "],";
  }
  if (out.back() == ',') out.pop_back();
  return out + "}";
}

std::string us(double seconds) {
  return std::to_string(seconds * 1e6);
}

}  // namespace

int main() {
  using namespace cpsinw;

  // One loopback shard server stands in for a remote host; the RAII
  // handle kills it at exit.
  std::unique_ptr<engine::net::LocalServerProcess> server;
  if (!server_path().empty()) {
    server = std::make_unique<engine::net::LocalServerProcess>(server_path());
    if (!server->ok()) {
      std::cout << "(shard server failed to start: " << server->error()
                << "; remote backend skipped)\n";
      server.reset();
    }
  }

  const auto make_spec = [&server](const RunConfig& cfg) {
    engine::CampaignSpec spec;
    spec.jobs.push_back({"parity_tree_64", logic::parity_tree(64)});
    spec.patterns.kind = engine::PatternSourceSpec::Kind::kRandom;
    spec.patterns.random_count = 128;
    spec.shard_size = 32;
    spec.seed = 1;
    spec.threads = cfg.threads;
    spec.executor.backend = cfg.backend;
    if (cfg.backend == engine::ExecutorBackend::kRemote) {
      spec.executor.endpoints = {server->endpoint()};
      // The reported thread count must be the real concurrency: lift the
      // per-endpoint cap so the single loopback endpoint can actually
      // serve cfg.threads shards at once.
      spec.executor.remote_max_in_flight = cfg.threads;
    }
    return spec;
  };

  std::cout << "=== Campaign-engine scaling: parity_tree(64), full CP fault "
               "universe, 128 random patterns, per-backend ===\n";
  std::cout << "hardware threads: " << engine::ThreadPool::hardware_threads()
            << "\n\n";

  std::vector<RunConfig> configs = {
      {engine::ExecutorBackend::kInline, 1},
      {engine::ExecutorBackend::kThreadPool, 1},
      {engine::ExecutorBackend::kThreadPool, 2},
      {engine::ExecutorBackend::kThreadPool, 4},
      {engine::ExecutorBackend::kThreadPool, 8},
  };
  if (server != nullptr)
    configs.push_back({engine::ExecutorBackend::kRemote,
                       engine::ThreadPool::hardware_threads()});

  // Warm-up run (page-faults, allocator) outside the measured set.
  (void)engine::run_campaign(make_spec(configs[0]));

  util::AsciiTable table({"backend", "threads", "shards", "wall [ms]",
                          "faults x patterns / s", "speedup vs inline",
                          "identical JSON"});
  std::string json_line;
  double wall_inline = 0.0;
  std::string reference_json;
  bool all_identical = true;

  util::AsciiTable latency_table(
      {"backend", "threads", "queue wait p50 [us]", "queue wait p95 [us]",
       "shard exec p50 [us]", "shard exec p95 [us]"});

  for (const RunConfig& cfg : configs) {
    engine::CampaignSpec spec = make_spec(cfg);
    // Collect the latency snapshot, but compare the *stable* JSON — the
    // telemetry block is runtime-dependent by design.
    spec.emit_telemetry = true;
    engine::CampaignReport report = engine::run_campaign(spec);
    report.emit_telemetry = false;
    const std::string stable = report.to_json(false);
    if (reference_json.empty()) {
      reference_json = stable;
      wall_inline = report.timing.wall_s;
    }
    const bool identical = stable == reference_json;
    all_identical = all_identical && identical;

    const double speedup =
        report.timing.wall_s > 0.0 ? wall_inline / report.timing.wall_s : 0.0;
    table.add_row({report.timing.backend, std::to_string(cfg.threads),
                   std::to_string(report.timing.shard_count),
                   std::to_string(report.timing.wall_s * 1e3),
                   std::to_string(report.timing.fault_patterns_per_s),
                   std::to_string(speedup), identical ? "yes" : "NO"});

    const engine::telemetry::HistogramValue* queue =
        report.telemetry.find_histogram(report.timing.backend +
                                        ".queue_wait_s");
    const engine::telemetry::HistogramValue* exec =
        report.telemetry.find_histogram(report.timing.backend +
                                        ".shard_exec_s");
    latency_table.add_row(
        {report.timing.backend, std::to_string(cfg.threads),
         queue != nullptr ? us(queue->quantile_s(0.5)) : "-",
         queue != nullptr ? us(queue->quantile_s(0.95)) : "-",
         exec != nullptr ? us(exec->quantile_s(0.5)) : "-",
         exec != nullptr ? us(exec->quantile_s(0.95)) : "-"});

    if (!json_line.empty()) json_line += ",";
    json_line += "{\"backend\":\"" + report.timing.backend +
                 "\",\"threads\":" + std::to_string(cfg.threads) +
                 ",\"wall_s\":" + std::to_string(report.timing.wall_s) +
                 ",\"fault_patterns_per_s\":" +
                 std::to_string(report.timing.fault_patterns_per_s) +
                 ",\"speedup_vs_inline\":" + std::to_string(speedup) +
                 ",\"identical\":" + (identical ? "true" : "false") +
                 ",\"telemetry\":" + telemetry_json(report) + "}";
  }
  table.print(std::cout);
  std::cout << "\nexecutor latency snapshot (telemetry registry):\n";
  latency_table.print(std::cout);

  const engine::CampaignReport ref = engine::run_campaign(
      make_spec({engine::ExecutorBackend::kInline, 1}));
  const engine::ClassStats totals = ref.totals();
  std::cout << "\nworkload: " << totals.total << " faults x "
            << ref.jobs[0].pattern_count << " patterns, coverage "
            << totals.coverage() << "\n";
  std::cout << "determinism: "
            << (all_identical
                    ? "all backends and thread counts bit-identical"
                    : "MISMATCH ACROSS BACKENDS")
            << "\n\n";

  // Instrumentation-overhead gate: full telemetry + span tracing on the
  // thread-pool leg must stay within 5% of the uninstrumented wall time
  // (plus a small absolute allowance — a leg this size runs in tens of
  // milliseconds, where scheduler noise dwarfs percentages).  Best-of-3
  // on both sides to measure the floor, not the jitter.
  const RunConfig overhead_cfg{engine::ExecutorBackend::kThreadPool, 4};
  double plain_s = 0.0, traced_s = 0.0;
  for (int i = 0; i < 3; ++i) {
    engine::CampaignSpec plain = make_spec(overhead_cfg);
    const double p = engine::run_campaign(plain).timing.wall_s;
    if (i == 0 || p < plain_s) plain_s = p;
    engine::CampaignSpec traced = make_spec(overhead_cfg);
    traced.emit_telemetry = true;
    traced.trace_path = "BENCH_engine_scaling_trace.json";
    const double t = engine::run_campaign(traced).timing.wall_s;
    if (i == 0 || t < traced_s) traced_s = t;
  }
  const double budget_s = plain_s * 1.05 + 0.010;
  const bool overhead_ok = traced_s <= budget_s;
  std::cout << "tracing overhead (thread_pool x4, best of 3): plain "
            << plain_s * 1e3 << " ms, instrumented " << traced_s * 1e3
            << " ms, budget " << budget_s * 1e3 << " ms -> "
            << (overhead_ok ? "ok" : "EXCEEDED") << "\n";
  std::cout << "trace written to BENCH_engine_scaling_trace.json\n\n";

  // Single JSON object for the bench trajectory, mirrored to a file.
  const std::string json =
      std::string("{\"bench\":\"engine_scaling\",") +
      "\"circuit\":\"parity_tree_64\",\"faults\":" +
      std::to_string(totals.total) +
      ",\"patterns\":" + std::to_string(ref.jobs[0].pattern_count) +
      ",\"hardware_threads\":" +
      std::to_string(engine::ThreadPool::hardware_threads()) +
      ",\"deterministic\":" + (all_identical ? "true" : "false") +
      ",\"tracing_overhead\":{\"plain_wall_s\":" + std::to_string(plain_s) +
      ",\"instrumented_wall_s\":" + std::to_string(traced_s) +
      ",\"within_budget\":" + (overhead_ok ? "true" : "false") + "}" +
      ",\"runs\":[" + json_line + "]}";
  std::ofstream("BENCH_engine_scaling.json") << json << "\n";
  std::cout << json << "\n";

  return all_identical && overhead_ok ? 0 : 1;
}
