// Campaign benchmark workload program: netlist file -> five-class fault
// campaign -> stable report JSON, on one named workload.
//
// Untraced mode (--trace 0) repeats the whole campaign (ingest through
// CampaignReport::to_json) for --seconds and prints the medians of the
// end-to-end metrics.  Traced mode (--trace 1) replays the campaign one
// layer at a time through the layers' public entry points, timing each call
// from here, and prints the per-layer metrics.  Every report's stable JSON
// digest is checked against --expect; the final stdout line is the result
// object perfbench/run.py forwards.  See perfbench/README.md.
//
// Usage: campaign_bench --workload NAME --seed N --seconds S --trace 0|1
//                       --work-dir DIR [--expect HEX] [--digest]
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/campaign.hpp"
#include "engine/report.hpp"
#include "engine/shard.hpp"
#include "engine/telemetry.hpp"
#include "faults/eval_context.hpp"
#include "faults/fault_sim.hpp"
#include "logic/benchmarks.hpp"
#include "logic/netlist_ingest.hpp"
#include "logic/simd.hpp"

namespace {

using namespace cpsinw;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ------------------------------------------------------------- workloads

struct Workload {
  const char* name;
  int slices;  ///< logic::alu_array(slices)
  engine::FaultModelSelection models;
  engine::PatternSourceSpec::Kind source;
  int random_count;  ///< kRandom only
  int threads;
};

engine::FaultModelSelection line_and_stuck_on() {
  engine::FaultModelSelection m;
  m.polarity = false;
  m.stuck_open = false;
  return m;
}

engine::FaultModelSelection all_five_classes() {
  engine::FaultModelSelection m;
  m.bridge = true;
  return m;
}

const std::vector<Workload>& workloads() {
  using Kind = engine::PatternSourceSpec::Kind;
  static const std::vector<Workload> all = {
      {"alu16_default", 16, {}, Kind::kRandom, 128, 2},
      {"alu128_packed", 128, line_and_stuck_on(), Kind::kRandom, 1024, 1},
      {"alu4_bridges", 4, all_five_classes(), Kind::kRandom, 128, 2},
      {"alu4_atpg", 4, {}, Kind::kAtpg, 0, 2},
  };
  return all;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (name == w.name) return w;
  throw std::invalid_argument("unknown workload: " + name);
}

/// The campaign a workload runs, minus its job (thread-pool executor,
/// default FaultSimOptions, kFull detection).
engine::CampaignSpec make_spec(const Workload& w, std::uint64_t seed) {
  engine::CampaignSpec spec;
  spec.models = w.models;
  spec.patterns.kind = w.source;
  if (w.source == engine::PatternSourceSpec::Kind::kRandom)
    spec.patterns.random_count = w.random_count;
  spec.detection_mode = faults::DetectionMode::kFull;
  spec.seed = seed;
  spec.threads = w.threads;
  spec.executor.backend = engine::ExecutorBackend::kThreadPool;
  return spec;
}

// ---------------------------------------------------------------- digests

/// FNV-1a 64 of the stable report JSON, as 16 hex digits.
std::string digest(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// Counts checked runs; a run fails when its report carries an error or
/// its stable JSON digest differs from the expected one.
struct Checks {
  std::string expect;  ///< empty: digests are recorded, not compared
  int attempted = 0;
  int failed = 0;

  void check(bool ok, const std::string& got, const char* what) {
    ++attempted;
    if (ok && (expect.empty() || got == expect)) return;
    ++failed;
    std::cerr << "campaign_bench: " << what << " failed (digest " << got
              << ", expected " << expect << ")\n";
  }
};

// ---------------------------------------------------------------- metrics

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Samples per metric in first-insertion order; reports each median.
class Metrics {
 public:
  void add(const std::string& name, const char* unit, double value) {
    auto it = index_.find(name);
    if (it == index_.end()) {
      it = index_.emplace(name, entries_.size()).first;
      entries_.push_back({name, unit, {}});
    }
    entries_[it->second].samples.push_back(value);
  }

  [[nodiscard]] std::string json() const {
    std::string out = "{";
    for (const Entry& e : entries_) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", median(e.samples));
      if (out.size() > 1) out += ", ";
      out += "\"" + e.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
             e.unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    const char* unit;
    std::vector<double> samples;
  };

  std::vector<Entry> entries_;
  std::map<std::string, std::size_t> index_;
};

double per_fault_us(double seconds, std::size_t faults) {
  return faults == 0 ? 0.0 : 1e6 * seconds / static_cast<double>(faults);
}

// ------------------------------------------------------- end-to-end run

struct CampaignRun {
  engine::CampaignReport report;
  std::string digest;
  double ingest_s = 0.0;
  double campaign_s = 0.0;  ///< load_circuit_file .. to_json
};

/// One user-visible campaign: ingest the netlist file, run, render JSON.
CampaignRun run_from_file(const Workload& w, const std::string& path,
                          std::uint64_t seed) {
  CampaignRun run;
  const Clock::time_point t0 = Clock::now();
  logic::Circuit ckt = logic::load_circuit_file(path);
  run.ingest_s = seconds_between(t0, Clock::now());
  engine::CampaignSpec spec = make_spec(w, seed);
  spec.jobs.push_back({w.name, std::move(ckt)});
  run.report = engine::run_campaign(spec);
  const std::string json = run.report.to_json(false);
  run.campaign_s = seconds_between(t0, Clock::now());
  run.digest = digest(json);
  return run;
}

// ----------------------------------------------------------- layer replay

/// Times layer calls from the benchmark side and keeps each call as a span
/// for the Chrome trace written at the end of a traced run.
class LayerTimer {
 public:
  LayerTimer() { trace_.enable(); }

  template <class F>
  auto operator()(const char* layer, double& seconds, F&& call) {
    const engine::telemetry::TimePoint t0 = engine::telemetry::Clock::now();
    auto result = call();
    const engine::telemetry::TimePoint t1 = engine::telemetry::Clock::now();
    seconds = seconds_between(t0, t1);
    trace_.add_span(layer, "layer", t0, t1);
    return result;
  }

  void write(const std::string& path) const {
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        << trace_.to_chrome_json() << "\n";
  }

 private:
  engine::telemetry::TraceRecorder trace_;
};

/// A subset of the universe that takes one evaluation path.
struct Partition {
  std::vector<faults::Fault> faults;
  std::vector<std::size_t> slots;  ///< universe index of each fault
  std::vector<faults::DetectionRecord> records;
  double seconds = 0.0;
};

/// Folds shard results exactly as run_campaign's merge does.
engine::CampaignReport fold(const engine::CampaignSpec& spec,
                            const Workload& w, const logic::Circuit& ckt,
                            std::size_t pattern_count,
                            const std::vector<engine::ShardResult>& shards) {
  engine::CampaignReport report;
  report.seed = spec.seed;
  report.shard_size = spec.shard_size;
  report.pattern_source = engine::to_string(spec.patterns.kind);
  report.fault_sample_fraction = spec.fault_sample_fraction;
  report.observe_iddq = spec.sim.observe_iddq;
  report.detection_mode = spec.detection_mode;
  engine::JobReport job;
  job.circuit = w.name;
  job.gate_count = ckt.gate_count();
  job.transistor_count = ckt.transistor_count();
  job.pattern_count = static_cast<int>(pattern_count);
  for (const engine::ShardResult& sr : shards)
    engine::accumulate_shard(job, sr, job.pattern_count,
                             spec.sim.observe_iddq);
  report.jobs.push_back(std::move(job));
  return report;
}

/// Replays one campaign layer by layer, serially, and records the
/// per-layer metrics.  `ref` is an untraced campaign of the same inputs:
/// its timing gives the CPU time to attribute, its digest the report the
/// replay must reproduce.  `shards_first` runs the shard replay before the
/// per-path calls.
void replay_layers(const Workload& w, const std::string& path,
                   std::uint64_t seed, const CampaignRun& ref,
                   bool shards_first, LayerTimer& timed, Checks& checks,
                   Metrics& m) {
  const engine::CampaignSpec spec = make_spec(w, seed);
  engine::ShardExecOptions exec;
  exec.sim = spec.sim;
  exec.sim.detection_mode = spec.detection_mode;
  exec.fault_sample_fraction = spec.fault_sample_fraction;
  const util::SplitMix64 campaign_rng(spec.seed);

  double ingest_s = 0, universe_s = 0, patterns_s = 0, context_s = 0;
  const logic::Circuit ckt = timed("logic.ingest", ingest_s, [&] {
    return logic::load_circuit_file(path);
  });
  // observe_iddq as run_campaign passes it (true by default): IDDQ
  // observation keeps the stuck-ons that only collapse without it.
  const std::vector<engine::CampaignFault> universe =
      timed("faults.universe", universe_s, [&] {
        return engine::build_universe(ckt, spec.models,
                                      spec.sim.observe_iddq);
      });
  std::vector<logic::Pattern> patterns =
      timed("atpg.patterns", patterns_s, [&] {
        return engine::build_patterns(ckt, spec.patterns,
                                      campaign_rng.fork(0));
      });
  const std::unique_ptr<const faults::EvalContext> ctx =
      timed("faults.context", context_s, [&] {
        return std::make_unique<const faults::EvalContext>(
            ckt, std::move(patterns));
      });

  // Partition by evaluation path, mirroring FaultSimulator's dispatch: a
  // transistor fault is "binary" when the context is packed and its
  // dictionary compiled to a binary table, "retained" otherwise.
  Partition line, binary, retained;
  std::size_t retained_polarity = 0, retained_stuck_open = 0;
  std::size_t bridge_begin = universe.size();
  for (std::size_t i = 0; i < universe.size(); ++i) {
    const engine::CampaignFault& cf = universe[i];
    if (cf.cls == engine::FaultClass::kBridge) {
      bridge_begin = std::min(bridge_begin, i);
      continue;
    }
    Partition* p = &line;
    if (cf.fault.site == faults::FaultSite::kGateTransistor) {
      const bool is_binary =
          ctx->packed() && ctx->dictionary(ckt.gate(cf.fault.gate).kind,
                                           cf.fault.cell_fault)
                               .compiled_binary;
      p = is_binary ? &binary : &retained;
      if (!is_binary) {
        retained_polarity += cf.cls == engine::FaultClass::kPolarity;
        retained_stuck_open += cf.cls == engine::FaultClass::kStuckOpen;
      }
    }
    p->faults.push_back(cf.fault);
    p->slots.push_back(i);
  }

  faults::LineBatchStats line_stats;
  const auto run_partition = [&](const char* layer, Partition& p,
                                 faults::LineBatchStats* stats) {
    p.records = timed(layer, p.seconds, [&] {
      const faults::FaultSimulator fsim(ckt);
      return fsim.run_range(*ctx, p.faults, 0, p.faults.size(), exec.sim,
                            stats);
    });
  };
  // Bridges sit at the end of the universe; run_shard is their only entry.
  engine::Shard bridge_slice;
  bridge_slice.begin = bridge_begin;
  bridge_slice.end = universe.size();
  double bridge_s = 0;
  engine::ShardResult bridges;
  const auto run_paths = [&] {
    run_partition("faults.line", line, &line_stats);
    run_partition("faults.transistor_binary", binary, nullptr);
    run_partition("faults.transistor_retained", retained, nullptr);
    bridges = timed("faults.bridge", bridge_s, [&] {
      return engine::run_shard(*ctx, universe, bridge_slice, exec);
    });
  };

  // Serial replay of the campaign's own shard decomposition.
  const std::vector<engine::Shard> shards = engine::make_shards(
      0, universe.size(), spec.shard_size, campaign_rng.fork(1));
  double replay_s = 0;
  std::vector<engine::ShardResult> replay;
  const auto run_shards = [&] {
    replay = timed("engine.shard_replay", replay_s, [&] {
      std::vector<engine::ShardResult> out;
      out.reserve(shards.size());
      for (const engine::Shard& s : shards)
        out.push_back(engine::run_shard(*ctx, universe, s, exec));
      return out;
    });
  };
  // The shard overhead is the difference of two long serial windows, so
  // rounds alternate their order: drift in host speed cancels in the
  // median instead of landing in the overhead.
  if (shards_first) {
    run_shards();
    run_paths();
  } else {
    run_paths();
    run_shards();
  }
  double exec_sum_s = 0;
  for (const engine::ShardResult& sr : replay) exec_sum_s += sr.elapsed_s;

  double merge_s = 0, report_json_s = 0;
  const engine::CampaignReport replay_report =
      timed("engine.merge", merge_s, [&] {
        return fold(spec, w, ckt, ctx->pattern_count(), replay);
      });
  const std::string replay_json =
      timed("engine.report_json", report_json_s,
            [&] { return replay_report.to_json(false); });
  const std::string replay_digest = digest(replay_json);
  checks.check(replay_digest == ref.digest, replay_digest,
               "shard replay report");

  // Fidelity: the path partitions are disjoint and cover the universe, and
  // their records placed into the make_shards slots fold into the
  // campaign's report byte for byte.
  std::vector<engine::FaultResult> placed(universe.size());
  std::vector<int> covered(universe.size(), 0);
  for (const Partition* p : {&line, &binary, &retained})
    for (std::size_t k = 0; k < p->slots.size(); ++k) {
      placed[p->slots[k]] = {universe[p->slots[k]].cls, p->records[k], false};
      ++covered[p->slots[k]];
    }
  for (std::size_t k = 0; k < bridges.results.size(); ++k) {
    placed[bridge_begin + k] = bridges.results[k];
    ++covered[bridge_begin + k];
  }
  const bool partitioned = std::all_of(covered.begin(), covered.end(),
                                       [](int c) { return c == 1; });
  std::vector<engine::ShardResult> placed_shards;
  for (const engine::Shard& s : shards) {
    engine::ShardResult sr;
    sr.index = s.index;
    sr.results.assign(placed.begin() + static_cast<std::ptrdiff_t>(s.begin),
                      placed.begin() + static_cast<std::ptrdiff_t>(s.end));
    placed_shards.push_back(std::move(sr));
  }
  const std::string placed_digest = digest(
      fold(spec, w, ckt, ctx->pattern_count(), placed_shards).to_json(false));
  checks.check(partitioned && placed_digest == ref.digest, placed_digest,
               "path partition report");

  const double paths_s = line.seconds + binary.seconds + retained.seconds +
                         bridge_s;
  const engine::CampaignTiming& t = ref.report.timing;
  const double campaign_cpu_s = t.setup_s + t.shard_time_sum_s + t.merge_s;
  const double attributed_s =
      universe_s + patterns_s + context_s + exec_sum_s + merge_s;
  std::cerr << "replay" << (shards_first ? " (shards first)" : "")
            << ": paths " << paths_s << " s, shards " << exec_sum_s
            << " s, layers " << attributed_s << " s, campaign cpu "
            << campaign_cpu_s << " s\n";
  const std::size_t lanes =
      line_stats.groups * logic::CompiledCircuit::kBatchLanes;
  const std::size_t n_bridges = bridges.results.size();

  const auto count = [&m](const char* name, std::size_t n) {
    m.add(name, "count", static_cast<double>(n));
  };
  m.add("logic.ingest_s", "s", ingest_s);
  count("logic.gates", static_cast<std::size_t>(ckt.gate_count()));
  m.add("faults.universe_s", "s", universe_s);
  count("faults.universe_faults", universe.size());
  m.add("atpg.patterns_s", "s", patterns_s);
  count("atpg.pattern_count", ctx->pattern_count());
  m.add("faults.context_s", "s", context_s);
  m.add("faults.line_s", "s", line.seconds);
  count("faults.line_faults", line.faults.size());
  m.add("faults.line_us_per_fault", "us",
        per_fault_us(line.seconds, line.faults.size()));
  m.add("faults.line_lane_fill", "fraction",
        lanes == 0 ? 0.0 : static_cast<double>(line_stats.lane_slots) /
                               static_cast<double>(lanes));
  count("faults.line_words", line_stats.words);
  count("faults.line_cpt_faults", line_stats.cpt_faults);
  m.add("faults.transistor_binary_s", "s", binary.seconds);
  count("faults.transistor_binary_faults", binary.faults.size());
  m.add("faults.transistor_binary_us_per_fault", "us",
        per_fault_us(binary.seconds, binary.faults.size()));
  m.add("faults.transistor_retained_s", "s", retained.seconds);
  count("faults.transistor_retained_faults", retained.faults.size());
  m.add("faults.transistor_retained_us_per_fault", "us",
        per_fault_us(retained.seconds, retained.faults.size()));
  count("faults.transistor_retained_polarity_faults", retained_polarity);
  count("faults.transistor_retained_stuck_open_faults", retained_stuck_open);
  m.add("faults.bridge_s", "s", bridge_s);
  count("faults.bridge_faults", n_bridges);
  m.add("faults.bridge_us_per_fault", "us", per_fault_us(bridge_s, n_bridges));
  count("engine.shards", shards.size());
  m.add("engine.shard_exec_sum_s", "s", exec_sum_s);
  m.add("engine.shard_overhead_s", "s", exec_sum_s - paths_s);
  m.add("engine.parallel_efficiency", "fraction",
        t.shard_time_sum_s / (t.threads * (t.wall_s - t.setup_s)));
  m.add("engine.merge_s", "s", merge_s);
  m.add("engine.report_json_s", "s", report_json_s);
  m.add("layers.unattributed_frac", "fraction",
        std::abs(campaign_cpu_s - attributed_s) / campaign_cpu_s);
}

// ------------------------------------------------------------------ main

std::string host_json() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int nproc = sched_getaffinity(0, sizeof set, &set) == 0
                        ? CPU_COUNT(&set)
                        : 0;
  return std::string("{\"host\": {\"nproc\": ") + std::to_string(nproc) +
         ", \"hardware_concurrency\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"simd_backend\": \"" +
         logic::simd::backend_name(logic::simd::active_backend()) +
         "\", \"build_type\": \"" + PERFBENCH_BUILD_TYPE + "\"}}";
}

/// Peak resident set of this process image (VmHWM).  getrusage's
/// ru_maxrss would also count the parent's footprint from before exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
  std::string expect;
  bool digest_only = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--digest") {
      a.digest_only = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value: " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") a.workload = value;
    else if (flag == "--seed") a.seed = std::stoull(value);
    else if (flag == "--seconds") a.seconds = std::stod(value);
    else if (flag == "--trace") a.trace = value == "1";
    else if (flag == "--work-dir") a.work_dir = value;
    else if (flag == "--expect") a.expect = value;
    else throw std::invalid_argument("unknown flag: " + flag);
  }
  if (a.workload.empty() || a.work_dir.empty())
    throw std::invalid_argument("--workload and --work-dir are required");
  return a;
}

int run(const Args& args) {
  const Workload& w = find_workload(args.workload);
  std::filesystem::create_directories(args.work_dir);
  const std::string path = args.work_dir + "/" + w.name + ".bench";
  logic::save_circuit_file(logic::alu_array(w.slices), path);

  Checks checks;
  checks.expect = args.expect;
  if (args.digest_only) {
    const CampaignRun r = run_from_file(w, path, args.seed);
    checks.check(r.report.ok(), r.digest, "campaign");
    std::cout << r.digest << "\n";
    return checks.failed == 0 ? 0 : 1;
  }

  // Repeats until another round would overrun --seconds (at least
  // `min_rounds`), so a run's length stays close to --seconds.
  const Clock::time_point start = Clock::now();
  const auto another_round = [&](int done, int min_rounds) {
    const double elapsed = seconds_between(start, Clock::now());
    return done < min_rounds || elapsed + elapsed / done <= args.seconds;
  };
  Metrics m;
  if (!args.trace) {
    // Campaign 0 is a checked warm-up: it fills the process-wide dictionary
    // cache and the allocator, and is left out of the timings.
    std::vector<double> campaign_s, setup_s;
    double fault_patterns = 0;
    for (int n = 0; another_round(n, 4); ++n) {
      const CampaignRun r = run_from_file(w, path, args.seed);
      checks.check(r.report.ok(), r.digest, "campaign");
      const engine::JobReport& job = r.report.jobs.at(0);
      fault_patterns = static_cast<double>(job.totals().sampled) *
                       static_cast<double>(job.pattern_count);
      std::cerr << "campaign " << n << ": " << r.campaign_s << " s\n";
      if (n == 0) continue;
      campaign_s.push_back(r.campaign_s);
      setup_s.push_back(r.ingest_s + r.report.timing.setup_s);
    }
    // Every metric is the median over the timed campaigns, so a burst of
    // interference from other tenants moves it less than a mean or a
    // minimum over the same campaigns.
    const double campaign_median_s = median(campaign_s);
    m.add("campaign_s", "s", campaign_median_s);
    m.add("setup_s", "s", median(setup_s));
    m.add("fault_patterns_per_s", "1/s", fault_patterns / campaign_median_s);
    m.add("peak_rss_mb", "MB", peak_rss_mb());
  } else {
    // The reference campaign precedes each replay, so the replay runs
    // with a warm dictionary cache.
    LayerTimer timed;
    for (int n = 0; another_round(n, 2); ++n) {
      const CampaignRun ref = run_from_file(w, path, args.seed);
      checks.check(ref.report.ok(), ref.digest, "reference campaign");
      replay_layers(w, path, args.seed, ref, n % 2 == 1, timed, checks, m);
    }
    timed.write(args.work_dir + "/" + w.name + "_trace.json");
  }

  std::cout << host_json() << "\n";
  std::cout << "{\"correct\": " << (checks.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << checks.attempted
            << ", \"failed\": " << checks.failed
            << ", \"metrics\": " << m.json() << "}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "campaign_bench: " << e.what() << "\n";
    return 2;
  }
}
