// Work-reduction equivalence suite: fault dropping must be invisible in
// full detection mode (records bit-identical to the oracles of
// reference_sim.hpp, which simulate every pattern), the first-only
// detection mode must be a well-defined truncation contract that the
// oracles agree on, and sampled-coverage accounting must survive shard
// failures.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "engine/campaign.hpp"
#include "engine/executor.hpp"
#include "engine/report.hpp"
#include "engine/shard.hpp"
#include "faults/eval_context.hpp"
#include "faults/fault_list.hpp"
#include "faults/fault_sim.hpp"
#include "logic/benchmarks.hpp"
#include "reference_sim.hpp"
#include "util/rng.hpp"

namespace cpsinw::faults {
namespace {

using logic::Circuit;
using logic::LogicV;
using logic::Pattern;

std::vector<Pattern> random_patterns(const Circuit& ckt, int count,
                                     std::uint64_t seed) {
  util::SplitMix64 rng(seed);
  std::vector<Pattern> out;
  for (int k = 0; k < count; ++k) {
    Pattern p(ckt.primary_inputs().size());
    for (LogicV& v : p) v = logic::from_bool(rng.chance(0.5));
    out.push_back(std::move(p));
  }
  return out;
}

struct Named {
  std::string name;
  Circuit ckt;
};

std::vector<Named> roster() {
  std::vector<Named> out;
  out.push_back({"c17", logic::c17()});
  out.push_back({"full_adder", logic::full_adder()});
  out.push_back({"alu_slice", logic::alu_slice()});
  out.push_back({"parity_tree_9", logic::parity_tree(9)});
  out.push_back({"ripple_adder_4", logic::ripple_adder(4)});
  out.push_back({"random_a", logic::random_circuit(11, 6, 30)});
  out.push_back({"random_b", logic::random_circuit(23, 8, 60)});
  return out;
}

void expect_record_eq(const DetectionRecord& got, const DetectionRecord& want,
                      const std::string& label) {
  EXPECT_EQ(got.detected_output, want.detected_output) << label;
  EXPECT_EQ(got.detected_iddq, want.detected_iddq) << label;
  EXPECT_EQ(got.potential, want.potential) << label;
  EXPECT_EQ(got.first_pattern, want.first_pattern) << label;
}

// In full detection mode the dropping walks must produce the oracles'
// records, for universes mixing all fault classes, with and without IDDQ
// observation.
TEST(WorkReduction, FullModeRecordsMatchTheOracles) {
  for (const Named& w : roster()) {
    // 130 patterns: three words, a ragged first strip.
    const EvalContext ctx(w.ckt, random_patterns(w.ckt, 130, 7));
    const FaultSimulator fsim(w.ckt);
    FaultListOptions flo;
    flo.cross_class_collapse = false;  // keep every class in the universe
    const std::vector<Fault> universe = generate_fault_list(w.ckt, flo);

    for (const bool iddq : {false, true}) {
      FaultSimOptions opt;
      opt.observe_iddq = iddq;
      const std::vector<DetectionRecord> want =
          reference::records(ctx, universe, opt);
      const std::vector<DetectionRecord> got =
          fsim.run_range(ctx, universe, 0, universe.size(), opt);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i)
        expect_record_eq(got[i], want[i],
                         w.name + " iddq=" + std::to_string(iddq) +
                             " fault " + std::to_string(i));
    }
  }
}

// A long pattern set: 1000 copies of one pattern, then 300 random ones.
// At 21 words every walk takes the narrow first strip, a wide strip and a
// ragged one.  Faults the repeated pattern detects must leave the walk at
// pattern 0, and detections (PO flips or IDDQ excitations) that only the
// random tail reaches land past the first strip, after the survivors have
// been regrouped.
TEST(WorkReduction, StripRefillMatchesTheOraclesPastTheFirstStrip) {
  std::size_t late = 0;
  for (const Named& w : roster()) {
    std::vector<Pattern> patterns(1000, random_patterns(w.ckt, 1, 5)[0]);
    for (Pattern& p : random_patterns(w.ckt, 300, 17))
      patterns.push_back(std::move(p));
    const EvalContext ctx(w.ckt, patterns);
    const FaultSimulator fsim(w.ckt);
    FaultListOptions flo;
    flo.cross_class_collapse = false;
    const std::vector<Fault> universe = generate_fault_list(w.ckt, flo);

    const std::vector<DetectionRecord> want =
        reference::records(ctx, universe, {});
    const std::vector<DetectionRecord> got =
        fsim.run_range(ctx, universe, 0, universe.size());
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      expect_record_eq(got[i], want[i], w.name + " fault " + std::to_string(i));
      late += want[i].first_pattern >= 1000;
    }
  }
  EXPECT_GT(late, 0u);
}

// First-only mode: a fault's record equals the full-mode record of the
// pattern list truncated right after the full-mode first_pattern — and the
// oracles agree on it.
TEST(WorkReduction, FirstOnlyModeIsExactTruncationAndMatchesTheOracles) {
  for (const Named& w : roster()) {
    const auto patterns = random_patterns(w.ckt, 130, 23);
    const EvalContext ctx(w.ckt, patterns);
    const FaultSimulator fsim(w.ckt);
    FaultListOptions flo;
    flo.cross_class_collapse = false;
    const std::vector<Fault> universe = generate_fault_list(w.ckt, flo);

    for (const bool iddq : {false, true}) {
      FaultSimOptions full;
      full.observe_iddq = iddq;
      FaultSimOptions first = full;
      first.detection_mode = DetectionMode::kFirstOnly;

      const auto full_rec =
          fsim.run_range(ctx, universe, 0, universe.size(), full);
      const auto got =
          fsim.run_range(ctx, universe, 0, universe.size(), first);
      const auto oracle = reference::records(ctx, universe, first);

      for (std::size_t i = 0; i < universe.size(); ++i) {
        const std::string label = w.name + " iddq=" + std::to_string(iddq) +
                                  " fault " + std::to_string(i);
        // Packed/batched first-only equals the oracle's first-only.
        expect_record_eq(got[i], oracle[i], label + " (oracle)");
        // Same first counted detection as full mode; flags are the
        // truncated-pattern-list reference.
        EXPECT_EQ(got[i].first_pattern, full_rec[i].first_pattern) << label;
        if (full_rec[i].first_pattern < 0) {
          expect_record_eq(got[i], full_rec[i], label + " (undetected)");
        } else {
          const std::vector<Pattern> prefix(
              patterns.begin(),
              patterns.begin() + full_rec[i].first_pattern + 1);
          const EvalContext trunc_ctx(w.ckt, prefix);
          const DetectionRecord want =
              fsim.run_range(trunc_ctx, universe, i, i + 1, full)[0];
          expect_record_eq(got[i], want, label + " (truncation)");
        }
      }
    }
  }
}

// Campaign level: the full-mode report equals the report folded from the
// oracles' records over the campaign's own universes, pattern sets and
// shards, including under fault sampling — dropping must never touch the
// sampled universe that forms the coverage denominator.
TEST(WorkReduction, CampaignJsonMatchesTheOraclesUnderSampling) {
  for (const double fraction : {1.0, 0.6}) {
    engine::CampaignSpec spec;
    spec.jobs.push_back({"c17", logic::c17()});
    spec.jobs.push_back({"parity_tree_7", logic::parity_tree(7)});
    spec.patterns.kind = engine::PatternSourceSpec::Kind::kRandom;
    spec.patterns.random_count = 128;
    spec.seed = 99;
    spec.shard_size = 5;
    spec.threads = 2;
    spec.fault_sample_fraction = fraction;
    spec.executor.backend = engine::ExecutorBackend::kThreadPool;
    const engine::CampaignReport got = engine::run_campaign(spec);
    ASSERT_TRUE(got.ok()) << got.error;

    // The campaign's setup, replayed job by job with the campaign's RNG
    // streams; every sampled fault's record comes from the oracles.
    engine::CampaignReport want = got;
    const util::SplitMix64 campaign_rng(spec.seed);
    engine::ShardExecOptions options;
    options.fault_sample_fraction = fraction;
    for (std::size_t j = 0; j < spec.jobs.size(); ++j) {
      const Circuit& ckt = spec.jobs[j].circuit;
      const std::vector<engine::CampaignFault> universe =
          engine::build_universe(ckt, spec.models, spec.sim.observe_iddq);
      const EvalContext ctx(
          ckt, engine::build_patterns(ckt, spec.patterns,
                                      campaign_rng.fork(2 * j)));
      engine::JobReport& job = want.jobs[j];
      job.by_class = {};
      job.first_detect_histogram = {};
      job.shard_count = 0;
      for (const engine::Shard& shard :
           engine::make_shards(static_cast<int>(j), universe.size(),
                               spec.shard_size, campaign_rng.fork(2 * j + 1))) {
        engine::ShardResult sr =
            engine::run_shard(ctx, universe, shard, options);
        for (std::size_t i = shard.begin; i < shard.end; ++i) {
          engine::FaultResult& r = sr.results[i - shard.begin];
          if (!r.sampled_out)
            r.record = reference::record(ctx, universe[i].fault, spec.sim);
        }
        engine::accumulate_shard(job, sr, job.pattern_count,
                                 spec.sim.observe_iddq);
      }
    }
    EXPECT_EQ(got.to_json(), want.to_json()) << "fraction=" << fraction;
  }
}

// The first-only detection mode is an explicit campaign field: it flows to
// every shard, merges deterministically, and marks the report JSON.
TEST(WorkReduction, FirstOnlyCampaignDeterministicAndMarked) {
  engine::CampaignSpec spec;
  spec.jobs.push_back({"alu_slice", logic::alu_slice()});
  spec.patterns.kind = engine::PatternSourceSpec::Kind::kRandom;
  spec.patterns.random_count = 96;
  spec.seed = 7;
  spec.shard_size = 6;
  spec.detection_mode = DetectionMode::kFirstOnly;
  spec.executor.backend = engine::ExecutorBackend::kThreadPool;

  std::string first;
  for (const int threads : {1, 2, 8}) {
    spec.threads = threads;
    const engine::CampaignReport report = engine::run_campaign(spec);
    ASSERT_TRUE(report.ok()) << report.error;
    const std::string json = report.to_json();
    EXPECT_NE(json.find("\"detection_mode\":\"first_only\""),
              std::string::npos);
    if (first.empty())
      first = json;
    else
      EXPECT_EQ(json, first) << "threads=" << threads;
  }

  // Default (full) mode leaves the historical JSON untouched.
  spec.detection_mode = DetectionMode::kFull;
  spec.threads = 1;
  const engine::CampaignReport full = engine::run_campaign(spec);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full.to_json().find("detection_mode"), std::string::npos);
}

// A failed shard's placeholder replays the shard's sampling decisions, so
// the coverage denominator matches what a successful run would have used.
TEST(WorkReduction, FailedShardPlaceholderReplaysSampling) {
  const Circuit ckt = logic::c17();
  std::vector<engine::CampaignFault> universe;
  FaultListOptions flo;
  for (const Fault& f : generate_fault_list(ckt, flo)) {
    engine::CampaignFault cf;
    cf.cls = engine::classify(f);
    cf.fault = f;
    universe.push_back(cf);
  }
  const util::SplitMix64 job_rng(1234);
  const std::vector<engine::Shard> shards =
      engine::make_shards(0, universe.size(), 8, job_rng);

  const EvalContext ctx(ckt, random_patterns(ckt, 64, 5));
  engine::ShardExecOptions options;
  options.fault_sample_fraction = 0.5;
  for (const engine::Shard& shard : shards) {
    const engine::ShardResult real =
        engine::run_shard(ctx, universe, shard, options);
    engine::ShardResult placeholder;
    engine::fill_failed_shard(universe, shard,
                              options.fault_sample_fraction, placeholder);
    ASSERT_EQ(placeholder.results.size(), real.results.size());
    bool any_sampled_out = false;
    for (std::size_t i = 0; i < real.results.size(); ++i) {
      EXPECT_EQ(placeholder.results[i].sampled_out,
                real.results[i].sampled_out)
          << "shard " << shard.index << " slot " << i;
      EXPECT_EQ(placeholder.results[i].cls, real.results[i].cls);
      any_sampled_out |= real.results[i].sampled_out;
    }
    EXPECT_FALSE(placeholder.results.empty());
    (void)any_sampled_out;
  }
}

}  // namespace
}  // namespace cpsinw::faults
