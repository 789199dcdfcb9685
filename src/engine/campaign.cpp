#include "engine/campaign.hpp"

#include <chrono>
#include <fstream>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/test_flow.hpp"
#include "engine/telemetry.hpp"
#include "engine/thread_pool.hpp"
#include "faults/fault_list.hpp"
#include "util/log.hpp"

namespace cpsinw::engine {

const char* to_string(PatternSourceSpec::Kind kind) {
  switch (kind) {
    case PatternSourceSpec::Kind::kExplicit: return "explicit";
    case PatternSourceSpec::Kind::kRandom: return "random";
    case PatternSourceSpec::Kind::kAtpg: return "atpg";
  }
  return "?";
}

std::vector<CampaignFault> build_universe(const logic::Circuit& ckt,
                                          const FaultModelSelection& models,
                                          bool observe_iddq) {
  faults::FaultListOptions flo;
  flo.include_line_stuck_at = models.line_stuck_at;
  flo.include_transistor_faults =
      models.polarity || models.stuck_open || models.stuck_on;
  flo.collapse = models.collapse;
  // Stuck-on faults that are logic-equivalent to a line stuck-at still
  // differ in IDDQ signature; the generator keeps them when IDDQ is
  // observed.
  flo.observe_iddq = observe_iddq;

  std::vector<CampaignFault> universe;
  for (const faults::Fault& f : generate_fault_list(ckt, flo)) {
    const CampaignFault cf = CampaignFault::from_fault(f);
    const bool keep = (cf.cls == FaultClass::kLineStuckAt &&
                       models.line_stuck_at) ||
                      (cf.cls == FaultClass::kPolarity && models.polarity) ||
                      (cf.cls == FaultClass::kStuckOpen &&
                       models.stuck_open) ||
                      (cf.cls == FaultClass::kStuckOn && models.stuck_on);
    if (keep) universe.push_back(cf);
  }
  if (models.bridge)
    for (const faults::BridgeFault& b :
         faults::enumerate_adjacent_bridges(ckt))
      universe.push_back(CampaignFault::from_bridge(b));
  return universe;
}

std::vector<logic::Pattern> build_patterns(
    const logic::Circuit& ckt, const PatternSourceSpec& source,
    util::SplitMix64 job_rng, const core::ParallelFor& parallel_for) {
  switch (source.kind) {
    case PatternSourceSpec::Kind::kExplicit:
      return source.explicit_patterns;

    case PatternSourceSpec::Kind::kRandom: {
      if (source.random_count < 1)
        throw std::invalid_argument("build_patterns: random_count >= 1");
      std::vector<logic::Pattern> out;
      out.reserve(static_cast<std::size_t>(source.random_count));
      for (int k = 0; k < source.random_count; ++k) {
        logic::Pattern p(ckt.primary_inputs().size());
        for (logic::LogicV& v : p)
          v = logic::from_bool(job_rng.chance(source.one_probability));
        out.push_back(std::move(p));
      }
      return out;
    }

    case PatternSourceSpec::Kind::kAtpg: {
      core::TestFlowOptions opt;
      opt.compact = source.atpg_compact;
      const core::TestSuite suite =
          core::run_test_flow(ckt, opt, parallel_for);
      std::vector<logic::Pattern> out = suite.logic_patterns;
      out.insert(out.end(), suite.iddq_patterns.begin(),
                 suite.iddq_patterns.end());
      // Two-pattern tests ride along as consecutive (init, test) pairs so
      // campaigns with sequential_patterns see the retention sequences.
      for (const atpg::TwoPatternTest& t : suite.two_pattern_tests) {
        out.push_back(t.init);
        out.push_back(t.test);
      }
      return out;
    }
  }
  throw std::invalid_argument("build_patterns: unknown source kind");
}

namespace {

/// Everything one job needs, materialized before any shard runs.  The
/// evaluation context (packed patterns + good machine + dictionaries) is
/// built once here and shared read-only by every shard of the job.
struct JobData {
  const CircuitJobSpec* spec = nullptr;
  std::vector<CampaignFault> universe;
  std::unique_ptr<faults::EvalContext> context;
  std::vector<Shard> shards;
  std::vector<ShardResult> results;  ///< slot per shard, filled in parallel
};

/// Runs one setup sub-phase.  With telemetry on (`telem` non-null) it
/// records the phase's seconds in histogram `metric` and a span `span`;
/// with it off it reads no clock.
template <typename Body>
void setup_phase(telemetry::CampaignTelemetry* telem, const char* metric,
                 const char* span, Body&& body) {
  if (telem == nullptr) {
    body();
    return;
  }
  const telemetry::TimePoint start = telemetry::Clock::now();
  body();
  const telemetry::TimePoint end = telemetry::Clock::now();
  telem->registry.histogram(metric).record(
      std::chrono::duration<double>(end - start).count());
  telem->trace.add_span(span, "phase", start, end);
}

}  // namespace

CampaignReport run_campaign(const CampaignSpec& spec) {
  // Telemetry is per-campaign: a private registry (so the report's
  // telemetry block covers exactly this run, even with concurrent
  // campaigns in one process) plus the trace recorder behind trace_path.
  // With both knobs off the executor keeps a null pointer and every
  // instrumentation site short-circuits.
  telemetry::CampaignTelemetry telem;
  const bool telemetry_on = spec.emit_telemetry || !spec.trace_path.empty();
  if (!spec.trace_path.empty()) telem.trace.enable();

  const telemetry::TimePoint t_validate = telemetry::Clock::now();

  // Spec validation happens up front, before any work runs: a malformed
  // spec throws std::invalid_argument with the offending field named,
  // never a downstream failure from deep inside a shard.
  if (spec.fault_sample_fraction <= 0.0 || spec.fault_sample_fraction > 1.0)
    throw std::invalid_argument(
        "run_campaign: fault_sample_fraction must be in (0, 1]");
  if (spec.shard_size == 0)
    throw std::invalid_argument("run_campaign: shard_size must be > 0");
  if (spec.threads < 0)
    throw std::invalid_argument(
        "run_campaign: threads must be >= 0 (0 = hardware concurrency), got " +
        std::to_string(spec.threads));
  // Builds (and therefore validates) the selected backend before the
  // setup phase spends any cycles.
  std::unique_ptr<ShardExecutor> executor =
      make_shard_executor(spec.executor, spec.threads);

  const util::SplitMix64 campaign_rng(spec.seed);

  std::vector<JobData> jobs(spec.jobs.size());
  for (std::size_t j = 0; j < spec.jobs.size(); ++j) {
    jobs[j].spec = &spec.jobs[j];
    if (!jobs[j].spec->circuit.finalized())
      throw std::invalid_argument("run_campaign: circuit not finalized: " +
                                  jobs[j].spec->name);
    // Explicit patterns apply to every job, so a PI-count mismatch is
    // certain to blow up mid-campaign — fail fast, naming the job.
    if (spec.patterns.kind == PatternSourceSpec::Kind::kExplicit) {
      const std::size_t pis = jobs[j].spec->circuit.primary_inputs().size();
      for (std::size_t p = 0; p < spec.patterns.explicit_patterns.size(); ++p)
        if (spec.patterns.explicit_patterns[p].size() != pis)
          throw std::invalid_argument(
              "run_campaign: explicit pattern " + std::to_string(p) +
              " has arity " +
              std::to_string(spec.patterns.explicit_patterns[p].size()) +
              " but job '" + jobs[j].spec->name + "' has " +
              std::to_string(pis) + " primary inputs");
    }
  }

  ShardExecOptions exec;
  exec.sim = spec.sim;
  exec.sim.detection_mode = spec.detection_mode;
  exec.fault_sample_fraction = spec.fault_sample_fraction;

  if (telemetry_on) {
    executor->set_telemetry(&telem);
    telem.registry.histogram("campaign.validate_s")
        .record_since(t_validate);
    telem.trace.add_span("campaign:validate", "phase", t_validate,
                         telemetry::Clock::now());
  }

  const auto t0 = std::chrono::steady_clock::now();

  // ---- Setup phase, one unit per job: universe, patterns (ATPG runs
  // here) and shard decomposition.  Each job's RNG streams are forked from
  // the campaign seed by job index, so scheduling cannot affect them.
  // Setup runs on the executor's compute resource (serial for kInline, the
  // one shared pool otherwise): the pool runs jobs side by side, and an
  // ATPG job also spreads its per-fault searches over it through
  // parallel_for, so even a one-job campaign generates tests on every
  // thread (the flow collects its tests in universe order).  Setup errors
  // are spec-level problems and still throw — only shard-phase failures
  // degrade to the error slot.  With telemetry on, each job's universe,
  // patterns and context are timed as sub-phases, in wall time. ----------
  telemetry::CampaignTelemetry* const setup_telem =
      telemetry_on ? &telem : nullptr;
  ShardExecutor* const ex = executor.get();
  const core::ParallelFor parallel_for =
      [ex](std::size_t n, const std::function<void(std::size_t)>& body) {
        ex->parallel_for(n, body);
      };
  std::vector<std::function<void()>> setup_tasks;
  setup_tasks.reserve(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    setup_tasks.push_back([&jobs, &spec, &campaign_rng, &parallel_for,
                           setup_telem, j] {
      JobData& job = jobs[j];
      setup_phase(setup_telem, "campaign.setup.universe_s", "setup:universe",
                  [&] {
                    job.universe = build_universe(
                        job.spec->circuit, spec.models, spec.sim.observe_iddq);
                  });
      std::vector<logic::Pattern> patterns;
      setup_phase(setup_telem, "campaign.setup.patterns_s", "setup:patterns",
                  [&] {
                    patterns = build_patterns(
                        job.spec->circuit, spec.patterns,
                        campaign_rng.fork(2 * static_cast<std::uint64_t>(j)),
                        parallel_for);
                  });
      setup_phase(setup_telem, "campaign.setup.context_s", "setup:context",
                  [&] {
                    job.context = std::make_unique<faults::EvalContext>(
                        job.spec->circuit, std::move(patterns));
                  });
      job.shards = make_shards(
          static_cast<int>(j), job.universe.size(), spec.shard_size,
          campaign_rng.fork(2 * static_cast<std::uint64_t>(j) + 1));
      job.results.resize(job.shards.size());
    });
  }
  const telemetry::TimePoint t_setup = telemetry::Clock::now();
  executor->run_setup(setup_tasks);
  const double setup_s =
      std::chrono::duration<double>(telemetry::Clock::now() - t_setup)
          .count();
  if (telemetry_on) {
    telem.registry.histogram("campaign.setup_s").record(setup_s);
    telem.trace.add_span("campaign:setup", "phase", t_setup,
                         telemetry::Clock::now());
  }

  // ---- Shard phase, delegated to the selected backend.  Tasks are
  // handed over in canonical (job, shard) order and each fills its own
  // pre-sized slot, so the merge below never depends on execution order.
  // A failing shard does not abort the campaign: the backend fills the
  // slot with simulated-but-undetected placeholders (totals stay
  // complete, detections become lower bounds — the contract
  // CampaignReport::error documents) and reports the first failure. ------
  std::vector<ShardTask> tasks;
  int shard_count = 0;
  for (JobData& job : jobs) {
    for (std::size_t s = 0; s < job.shards.size(); ++s) {
      ++shard_count;
      tasks.push_back({job.context.get(), &job.universe, &job.shards[s],
                       &job.results[s]});
    }
  }
  const telemetry::TimePoint t_shards = telemetry::Clock::now();
  const std::string shard_error = executor->run(tasks, exec);
  if (telemetry_on) {
    telem.registry.histogram("campaign.shard_phase_s")
        .record_since(t_shards);
    telem.trace.add_span("campaign:shards", "phase", t_shards,
                         telemetry::Clock::now());
    // The stem walks each job's shards triggered on its context, and the
    // gates they evaluated.  kRemote shards run on the servers' contexts,
    // so a remote campaign reads 0 here.
    telemetry::Registry& reg = telem.registry;
    for (const JobData& job : jobs) {
      const faults::EvalContext& ctx = *job.context;
      reg.counter("engine.stem_walks").add(ctx.stem_walks());
      reg.counter("engine.x_walks").add(ctx.x_walks());
      reg.counter("engine.stem_gates").add(ctx.stem_gates());
      reg.counter("engine.x_gates").add(ctx.x_gates());
    }
  }

  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // ---- Deterministic merge in (job, shard) order. ------------------------
  const telemetry::TimePoint t_merge = telemetry::Clock::now();
  CampaignReport report;
  report.seed = spec.seed;
  report.shard_size = spec.shard_size;
  report.pattern_source = to_string(spec.patterns.kind);
  report.fault_sample_fraction = spec.fault_sample_fraction;
  report.observe_iddq = spec.sim.observe_iddq;
  report.detection_mode = spec.detection_mode;
  report.error = shard_error;

  double sampled_fault_patterns = 0.0;
  for (const JobData& job : jobs) {
    JobReport jr;
    jr.circuit = job.spec->name;
    jr.gate_count = job.spec->circuit.gate_count();
    jr.transistor_count = job.spec->circuit.transistor_count();
    jr.pattern_count = static_cast<int>(job.context->pattern_count());
    for (const ShardResult& sr : job.results)
      accumulate_shard(jr, sr, jr.pattern_count, spec.sim.observe_iddq);
    sampled_fault_patterns += static_cast<double>(jr.totals().sampled) *
                              static_cast<double>(jr.pattern_count);
    report.jobs.push_back(std::move(jr));
  }

  report.timing.backend = executor->name();
  report.timing.threads =
      spec.executor.backend == ExecutorBackend::kInline
          ? 1
          : (spec.threads > 0 ? spec.threads : ThreadPool::hardware_threads());
  report.timing.shard_count = shard_count;
  report.timing.wall_s = wall_s;
  for (const JobReport& jr : report.jobs)
    report.timing.shard_time_sum_s += jr.shard_time_sum_s;
  report.timing.fault_patterns_per_s =
      wall_s > 0.0 ? sampled_fault_patterns / wall_s : 0.0;
  report.timing.setup_s = setup_s;
  report.timing.merge_s =
      std::chrono::duration<double>(telemetry::Clock::now() - t_merge)
          .count();

  if (telemetry_on) {
    telem.registry.histogram("campaign.merge_s").record(report.timing.merge_s);
    telem.trace.add_span("campaign:merge", "phase", t_merge,
                         telemetry::Clock::now());
  }
  if (spec.emit_telemetry) {
    report.emit_telemetry = true;
    report.telemetry = telem.registry.snapshot();
  }
  if (!spec.trace_path.empty()) {
    // A failing trace write never fails the campaign — the report is the
    // product, the trace is a diagnostic.
    std::ofstream out(spec.trace_path,
                      std::ios::binary | std::ios::trunc);
    out << telem.trace.to_chrome_json() << "\n";
    if (!out)
      util::log_kv(util::LogLevel::kWarn, "trace_write_failed",
                   {{"path", spec.trace_path}});
  }
  return report;
}

}  // namespace cpsinw::engine
