#include "engine/shard.hpp"

#include <gtest/gtest.h>

#include "engine/campaign.hpp"
#include "logic/benchmarks.hpp"

namespace cpsinw::engine {
namespace {

TEST(Shard, MakeShardsPartitionsExactly) {
  const util::SplitMix64 rng(17);
  const std::vector<Shard> shards = make_shards(3, 103, 16, rng);
  ASSERT_EQ(shards.size(), 7u);
  std::size_t expected_begin = 0;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    EXPECT_EQ(shards[i].job, 3);
    EXPECT_EQ(shards[i].index, static_cast<int>(i));
    EXPECT_EQ(shards[i].begin, expected_begin);
    EXPECT_LE(shards[i].end - shards[i].begin, 16u);
    expected_begin = shards[i].end;
  }
  EXPECT_EQ(expected_begin, 103u);
  // Tail shard carries the remainder.
  EXPECT_EQ(shards.back().end - shards.back().begin, 103u % 16u);
}

TEST(Shard, MakeShardsIsReproducible) {
  const util::SplitMix64 rng(5);
  std::vector<Shard> a = make_shards(0, 64, 8, rng);
  std::vector<Shard> b = make_shards(0, 64, 8, rng);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    // The forked streams must generate identical sequences.
    for (int k = 0; k < 8; ++k)
      EXPECT_EQ(a[i].rng.next_u64(), b[i].rng.next_u64());
  }
}

TEST(Shard, MakeShardsRejectsZeroShardSize) {
  EXPECT_THROW((void)make_shards(0, 10, 0, util::SplitMix64(1)),
               std::invalid_argument);
}

TEST(Shard, ClassifyCoversEveryFaultKind) {
  EXPECT_EQ(classify(faults::Fault::net_stuck(0, false)),
            FaultClass::kLineStuckAt);
  EXPECT_EQ(classify(faults::Fault::input_stuck(0, 1, true)),
            FaultClass::kLineStuckAt);
  EXPECT_EQ(
      classify(faults::Fault::transistor(
          0, 0, gates::TransistorFault::kStuckOpen)),
      FaultClass::kStuckOpen);
  EXPECT_EQ(classify(faults::Fault::transistor(
                0, 1, gates::TransistorFault::kStuckOn)),
            FaultClass::kStuckOn);
  EXPECT_EQ(classify(faults::Fault::transistor(
                0, 2, gates::TransistorFault::kStuckAtNType)),
            FaultClass::kPolarity);
  EXPECT_EQ(classify(faults::Fault::transistor(
                0, 3, gates::TransistorFault::kStuckAtPType)),
            FaultClass::kPolarity);
}

TEST(Shard, SingleShardMatchesSerialRunRecordForRecord) {
  const logic::Circuit ckt = logic::c17();
  const std::vector<CampaignFault> universe =
      build_universe(ckt, FaultModelSelection{}, /*observe_iddq=*/false);
  const std::vector<logic::Pattern> patterns =
      build_patterns(ckt, PatternSourceSpec{}, util::SplitMix64(3));

  Shard shard;
  shard.begin = 0;
  shard.end = universe.size();
  const ShardResult result =
      run_shard(ckt, universe, patterns, shard, ShardExecOptions{});

  std::vector<faults::Fault> serial_faults;
  for (const CampaignFault& cf : universe) serial_faults.push_back(cf.fault);
  const faults::FaultSimulator fsim(ckt);
  const faults::FaultSimReport serial = fsim.run(serial_faults, patterns);

  ASSERT_EQ(result.results.size(), serial.records.size());
  for (std::size_t i = 0; i < serial.records.size(); ++i) {
    const faults::DetectionRecord& a = result.results[i].record;
    const faults::DetectionRecord& b = serial.records[i];
    EXPECT_EQ(a.detected_output, b.detected_output) << "fault " << i;
    EXPECT_EQ(a.detected_iddq, b.detected_iddq) << "fault " << i;
    EXPECT_EQ(a.potential, b.potential) << "fault " << i;
    EXPECT_EQ(a.first_pattern, b.first_pattern) << "fault " << i;
    EXPECT_FALSE(result.results[i].sampled_out);
  }
}

TEST(Shard, SplitShardsConcatenateToTheSerialRun) {
  const logic::Circuit ckt = logic::full_adder();
  const std::vector<CampaignFault> universe =
      build_universe(ckt, FaultModelSelection{}, /*observe_iddq=*/false);
  PatternSourceSpec src;
  src.random_count = 48;
  const std::vector<logic::Pattern> patterns =
      build_patterns(ckt, src, util::SplitMix64(11));

  const std::vector<Shard> shards =
      make_shards(0, universe.size(), 7, util::SplitMix64(1));
  std::vector<FaultResult> merged;
  for (const Shard& s : shards) {
    const ShardResult r =
        run_shard(ckt, universe, patterns, s, ShardExecOptions{});
    merged.insert(merged.end(), r.results.begin(), r.results.end());
  }

  std::vector<faults::Fault> serial_faults;
  for (const CampaignFault& cf : universe) serial_faults.push_back(cf.fault);
  const faults::FaultSimulator fsim(ckt);
  const faults::FaultSimReport serial = fsim.run(serial_faults, patterns);

  ASSERT_EQ(merged.size(), serial.records.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i].record.detected_output,
              serial.records[i].detected_output);
    EXPECT_EQ(merged[i].record.detected_iddq,
              serial.records[i].detected_iddq);
    EXPECT_EQ(merged[i].record.first_pattern,
              serial.records[i].first_pattern);
  }
}

TEST(Shard, SamplingSkipsFaultsDeterministically) {
  const logic::Circuit ckt = logic::c17();
  const std::vector<CampaignFault> universe =
      build_universe(ckt, FaultModelSelection{}, /*observe_iddq=*/false);
  PatternSourceSpec src;
  src.random_count = 16;
  const std::vector<logic::Pattern> patterns =
      build_patterns(ckt, src, util::SplitMix64(2));

  Shard shard;
  shard.begin = 0;
  shard.end = universe.size();
  shard.rng = util::SplitMix64(99);
  ShardExecOptions opt;
  opt.fault_sample_fraction = 0.3;

  const ShardResult a = run_shard(ckt, universe, patterns, shard, opt);
  const ShardResult b = run_shard(ckt, universe, patterns, shard, opt);
  ASSERT_EQ(a.results.size(), b.results.size());
  int sampled_out = 0;
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].sampled_out, b.results[i].sampled_out);
    if (a.results[i].sampled_out) {
      ++sampled_out;
      // Skipped faults carry an untouched record.
      EXPECT_FALSE(a.results[i].record.detected_output);
      EXPECT_EQ(a.results[i].record.first_pattern, -1);
    }
  }
  EXPECT_GT(sampled_out, 0);
  EXPECT_LT(sampled_out, static_cast<int>(a.results.size()));
}

TEST(Shard, RejectsOutOfRangeSlice) {
  const logic::Circuit ckt = logic::c17();
  const std::vector<CampaignFault> universe =
      build_universe(ckt, FaultModelSelection{}, /*observe_iddq=*/false);
  Shard shard;
  shard.begin = 0;
  shard.end = universe.size() + 1;
  EXPECT_THROW(
      (void)run_shard(ckt, universe, {}, shard, ShardExecOptions{}),
      std::invalid_argument);
}

}  // namespace
}  // namespace cpsinw::engine
