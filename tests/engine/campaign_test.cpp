#include "engine/campaign.hpp"

#include <gtest/gtest.h>

#include "core/campaign_sweep.hpp"
#include "core/experiments.hpp"
#include "core/test_flow.hpp"
#include "faults/fault_sim.hpp"
#include "logic/benchmarks.hpp"
#include "logic/compiled_circuit.hpp"
#include "logic/netlist_ingest.hpp"

namespace cpsinw::engine {
namespace {

CampaignSpec two_circuit_spec() {
  CampaignSpec spec;
  spec.jobs.push_back({"ripple_adder_8", logic::ripple_adder(8)});
  spec.jobs.push_back({"tmr_voter_4", logic::tmr_voter(4)});
  spec.patterns.kind = PatternSourceSpec::Kind::kRandom;
  spec.patterns.random_count = 96;
  spec.shard_size = 16;
  return spec;
}

TEST(Campaign, ReportIsBitIdenticalAcrossThreadCounts) {
  CampaignSpec spec = two_circuit_spec();
  spec.threads = 1;
  const CampaignReport r1 = run_campaign(spec);
  spec.threads = 2;
  const CampaignReport r2 = run_campaign(spec);
  spec.threads = 8;
  const CampaignReport r8 = run_campaign(spec);

  const std::string json1 = r1.to_json();
  EXPECT_EQ(json1, r2.to_json());
  EXPECT_EQ(json1, r8.to_json());
  // Sanity: the deterministic JSON carries real content.
  EXPECT_NE(json1.find("ripple_adder_8"), std::string::npos);
  EXPECT_NE(json1.find("tmr_voter_4"), std::string::npos);
  EXPECT_GT(r1.totals().detected, 0);

  // The same guarantee at circuit scale: the build's ingested
  // alu_array_64.bench (over 1,000 gates after MAJ3 decomposition), with
  // the default classes (line stuck-at, both polarity faults, stuck-open,
  // stuck-on) over 128 random patterns.
  CampaignSpec large;
  large.jobs.push_back(
      {"alu_array_64_bench",
       logic::load_circuit_file(std::string(CPSINW_GEN_DATA_DIR) +
                                "/alu_array_64.bench")});
  large.patterns.kind = PatternSourceSpec::Kind::kRandom;
  large.patterns.random_count = 128;
  large.seed = 97;
  large.threads = 1;
  const std::string large1 = run_campaign(large).to_json();
  EXPECT_NE(large1.find("alu_array_64_bench"), std::string::npos);
  for (const int threads : {2, 8}) {
    large.threads = threads;
    EXPECT_EQ(run_campaign(large).to_json(), large1)
        << threads << " threads";
  }
}

TEST(Campaign, MatchesSerialFaultSimulatorExactly) {
  const CampaignSpec spec = two_circuit_spec();
  CampaignSpec parallel = spec;
  parallel.threads = 8;
  const CampaignReport report = run_campaign(parallel);
  ASSERT_EQ(report.jobs.size(), spec.jobs.size());

  const util::SplitMix64 campaign_rng(spec.seed);
  for (std::size_t j = 0; j < spec.jobs.size(); ++j) {
    // Reconstruct exactly what the campaign simulated...
    const logic::Circuit& ckt = spec.jobs[j].circuit;
    const std::vector<CampaignFault> universe =
        build_universe(ckt, spec.models, spec.sim.observe_iddq);
    const std::vector<logic::Pattern> patterns = build_patterns(
        ckt, spec.patterns, campaign_rng.fork(2 * j));

    // ...and run it through the untouched serial path.
    std::vector<faults::Fault> serial_faults;
    for (const CampaignFault& cf : universe) serial_faults.push_back(cf.fault);
    const faults::FaultSimulator fsim(ckt);
    const faults::FaultSimReport serial =
        fsim.run(serial_faults, patterns, spec.sim);

    const JobReport& job = report.jobs[j];
    ASSERT_EQ(job.totals().total, static_cast<int>(universe.size()));
    EXPECT_EQ(job.totals().detected, serial.detected_count());
    EXPECT_DOUBLE_EQ(job.totals().coverage(), serial.coverage());

    // Per-class detection counts agree with a direct classification of the
    // serial records.
    std::array<int, kFaultClassCount> serial_detected{};
    for (std::size_t i = 0; i < universe.size(); ++i)
      if (serial.records[i].detected(spec.sim.observe_iddq))
        ++serial_detected[static_cast<std::size_t>(universe[i].cls)];
    for (int c = 0; c < kFaultClassCount; ++c)
      EXPECT_EQ(job.by_class[static_cast<std::size_t>(c)].detected,
                serial_detected[static_cast<std::size_t>(c)])
          << to_string(static_cast<FaultClass>(c));
  }
}

TEST(Campaign, BenchmarkSweepMatchesExperimentsSerialPath) {
  // The engine-backed roster must see the exact fault universe the serial
  // experiments.cpp coverage driver enumerates, circuit by circuit.
  core::CampaignSweepOptions opt;
  opt.threads = 4;
  opt.random_patterns = 48;
  const CampaignReport report = core::run_benchmark_campaign(opt);
  const core::AtpgCoverageData serial = core::run_atpg_coverage();

  ASSERT_EQ(report.jobs.size(), serial.rows.size());
  for (std::size_t j = 0; j < serial.rows.size(); ++j) {
    EXPECT_EQ(report.jobs[j].circuit, serial.rows[j].circuit);
    EXPECT_EQ(report.jobs[j].gate_count, serial.rows[j].gate_count);
    EXPECT_EQ(report.jobs[j].transistor_count,
              serial.rows[j].transistor_count);
    EXPECT_EQ(report.jobs[j].totals().total, serial.rows[j].fault_count);
  }
}

TEST(Campaign, AtpgPatternSourceCoversAllLineFaultsOnC17) {
  CampaignSpec spec;
  spec.jobs.push_back({"c17", logic::c17()});
  spec.patterns.kind = PatternSourceSpec::Kind::kAtpg;
  spec.threads = 2;
  const CampaignReport report = run_campaign(spec);
  ASSERT_EQ(report.jobs.size(), 1u);
  // c17 has no redundant stuck-at faults and PODEM tests them all; fault
  // simulating those patterns must confirm every line fault.
  const ClassStats& line = report.jobs[0].by_class[static_cast<std::size_t>(
      FaultClass::kLineStuckAt)];
  EXPECT_GT(line.total, 0);
  EXPECT_DOUBLE_EQ(line.coverage(), 1.0);
}

TEST(Campaign, ExplicitExhaustiveSourceOnFullAdder) {
  CampaignSpec spec;
  logic::Circuit ckt = logic::full_adder();
  const int n = static_cast<int>(ckt.primary_inputs().size());
  for (unsigned v = 0; v < (1u << n); ++v) {
    logic::Pattern p(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      p[static_cast<std::size_t>(i)] = logic::from_bool((v >> i) & 1u);
    spec.patterns.explicit_patterns.push_back(std::move(p));
  }
  spec.patterns.kind = PatternSourceSpec::Kind::kExplicit;
  spec.jobs.push_back({"full_adder", std::move(ckt)});
  spec.threads = 2;
  spec.shard_size = 8;
  const CampaignReport report = run_campaign(spec);
  // Exhaustive stimulation detects every line stuck-at fault.
  const ClassStats& line = report.jobs[0].by_class[static_cast<std::size_t>(
      FaultClass::kLineStuckAt)];
  EXPECT_DOUBLE_EQ(line.coverage(), 1.0);
  EXPECT_EQ(report.jobs[0].pattern_count, 1 << n);
}

TEST(Campaign, BridgeUniverseIsCountedAndThreadInvariant) {
  CampaignSpec spec;
  spec.jobs.push_back({"c17", logic::c17()});
  spec.models.bridge = true;
  spec.patterns.random_count = 32;
  spec.shard_size = 8;
  spec.threads = 1;
  const CampaignReport r1 = run_campaign(spec);
  spec.threads = 4;
  const CampaignReport r4 = run_campaign(spec);
  EXPECT_EQ(r1.to_json(), r4.to_json());

  const std::size_t bridges =
      faults::enumerate_adjacent_bridges(spec.jobs[0].circuit).size();
  const ClassStats& cls = r1.jobs[0].by_class[static_cast<std::size_t>(
      FaultClass::kBridge)];
  EXPECT_EQ(cls.total, static_cast<int>(bridges));
  EXPECT_GT(cls.detected, 0);
}

TEST(Campaign, FaultSamplingIsDeterministicAndPartial) {
  CampaignSpec spec = two_circuit_spec();
  spec.fault_sample_fraction = 0.5;
  spec.threads = 1;
  const CampaignReport r1 = run_campaign(spec);
  spec.threads = 4;
  const CampaignReport r4 = run_campaign(spec);
  EXPECT_EQ(r1.to_json(), r4.to_json());

  const ClassStats totals = r1.totals();
  EXPECT_GT(totals.sampled, 0);
  EXPECT_LT(totals.sampled, totals.total);
}

TEST(Campaign, RejectsBadSpecs) {
  CampaignSpec spec = two_circuit_spec();
  spec.fault_sample_fraction = 0.0;
  EXPECT_THROW((void)run_campaign(spec), std::invalid_argument);

  CampaignSpec unfinalized;
  unfinalized.jobs.push_back({"empty", logic::Circuit()});
  EXPECT_THROW((void)run_campaign(unfinalized), std::invalid_argument);

  // Explicit patterns whose arity does not match a job's PI count are
  // rejected up front (naming the job), not mid-campaign from a worker.
  CampaignSpec mismatched;
  mismatched.jobs.push_back({"c17", logic::c17()});
  mismatched.patterns.kind = PatternSourceSpec::Kind::kExplicit;
  mismatched.patterns.explicit_patterns.push_back(logic::Pattern(3));
  try {
    (void)run_campaign(mismatched);
    FAIL() << "arity mismatch not rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("c17"), std::string::npos);
  }
}

TEST(Campaign, RejectsZeroShardSize) {
  CampaignSpec spec = two_circuit_spec();
  spec.shard_size = 0;
  try {
    (void)run_campaign(spec);
    FAIL() << "shard_size == 0 not rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("shard_size"), std::string::npos)
        << e.what();
  }
}

TEST(Campaign, RejectsNegativeThreads) {
  CampaignSpec spec = two_circuit_spec();
  spec.threads = -1;
  try {
    (void)run_campaign(spec);
    FAIL() << "negative threads not rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("threads"), std::string::npos)
        << e.what();
  }
  // Zero stays valid: it selects the hardware concurrency.
  spec.threads = 0;
  EXPECT_NO_THROW((void)run_campaign(spec));
}

/// Circuit compilations `fn` performs (the counter is process-wide, and
/// this binary runs one test at a time).
template <class Fn>
std::uint64_t compiles_during(const Fn& fn) {
  const std::uint64_t before = logic::CompiledCircuit::compile_count();
  fn();
  return logic::CompiledCircuit::compile_count() - before;
}

TEST(Campaign, RandomSourceJobCompilesOnceAtAnyShardSize) {
  // The job's context compiles; every shard reads that compile.
  for (const std::size_t shard_size :
       {std::size_t{1}, CampaignSpec{}.shard_size}) {
    CampaignSpec spec;
    spec.jobs.push_back({"alu_array_4", logic::alu_array(4)});
    spec.patterns.kind = PatternSourceSpec::Kind::kRandom;
    spec.shard_size = shard_size;
    spec.threads = 2;
    EXPECT_EQ(compiles_during([&] { (void)run_campaign(spec); }), 1u)
        << "shard_size " << shard_size;
  }
}

TEST(Campaign, AtpgSourceJobCompilesThreeTimes) {
  // The flow's engine, its compaction pass and the job's context; the
  // flow's two-pattern checks borrow the engine's compile.
  CampaignSpec spec;
  spec.jobs.push_back({"alu_array_4", logic::alu_array(4)});
  spec.patterns.kind = PatternSourceSpec::Kind::kAtpg;
  spec.threads = 2;
  EXPECT_EQ(compiles_during([&] { (void)run_campaign(spec); }), 3u);
}

TEST(Campaign, TestFlowCompilesTwice) {
  // The flow's engine and its compaction pass.
  const logic::Circuit ckt = logic::alu_array(4);
  EXPECT_EQ(compiles_during([&] { (void)core::run_test_flow(ckt); }), 2u);
}

TEST(Campaign, TimingIsReportedButExcludedFromStableJson) {
  CampaignSpec spec = two_circuit_spec();
  spec.threads = 2;
  const CampaignReport report = run_campaign(spec);
  EXPECT_GT(report.timing.wall_s, 0.0);
  EXPECT_EQ(report.timing.threads, 2);
  EXPECT_EQ(report.timing.backend, "thread_pool");
  EXPECT_GT(report.timing.shard_count, 0);
  EXPECT_EQ(report.to_json(false).find("timing"), std::string::npos);
  EXPECT_NE(report.to_json(true).find("timing"), std::string::npos);
}

}  // namespace
}  // namespace cpsinw::engine
