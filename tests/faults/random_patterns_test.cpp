#include "faults/random_patterns.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "logic/benchmarks.hpp"
#include "reference_sim.hpp"

namespace cpsinw::faults {
namespace {

TEST(RandomPatterns, CoverageCurveIsMonotoneAndReproducible) {
  const logic::Circuit ckt = logic::c17();
  const auto faults = generate_fault_list(ckt);
  RandomPatternOptions opt;
  opt.seed = 7;
  opt.max_patterns = 64;
  const RandomPatternResult a = run_random_patterns(ckt, faults, opt);
  const RandomPatternResult b = run_random_patterns(ckt, faults, opt);
  ASSERT_FALSE(a.curve.empty());
  ASSERT_EQ(a.curve.size(), b.curve.size());
  double prev = 0.0;
  for (std::size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_GE(a.curve[i].coverage, prev);
    prev = a.curve[i].coverage;
    EXPECT_DOUBLE_EQ(a.curve[i].coverage, b.curve[i].coverage);
  }
}

TEST(RandomPatterns, IddqObservationLiftsTheCeiling) {
  // The paper's message as a random-pattern experiment: without IDDQ the
  // pull-up polarity faults of DP logic cap the achievable coverage.
  const logic::Circuit ckt = logic::full_adder();
  const auto faults = generate_fault_list(ckt);
  RandomPatternOptions with;
  with.max_patterns = 128;
  RandomPatternOptions without = with;
  without.sim.observe_iddq = false;
  const double cov_with =
      run_random_patterns(ckt, faults, with).final_coverage();
  const double cov_without =
      run_random_patterns(ckt, faults, without).final_coverage();
  EXPECT_GT(cov_with, cov_without + 0.1);
}

TEST(RandomPatterns, SequentialSimulationCatchesStuckOpens) {
  // With retention threaded between consecutive random patterns, SP
  // stuck-opens become detectable by chance two-pattern sequences.
  const logic::Circuit ckt = logic::c17();
  std::vector<Fault> opens;
  for (const logic::GateInst& g : ckt.gates())
    for (int t = 0; t < 4; ++t)
      opens.push_back(
          Fault::transistor(g.id, t, gates::TransistorFault::kStuckOpen));
  RandomPatternOptions opt;
  opt.max_patterns = 192;
  opt.sim.sequential_patterns = true;
  const RandomPatternResult r = run_random_patterns(ckt, opens, opt);
  EXPECT_GT(r.final_coverage(), 0.5);
}

TEST(RandomPatterns, StaleLimitStopsEarly) {
  const logic::Circuit ckt = logic::c17();
  faults::FaultListOptions flo;
  flo.include_transistor_faults = false;
  const auto faults = generate_fault_list(ckt, flo);
  RandomPatternOptions opt;
  opt.max_patterns = 10000;
  opt.stale_limit = 8;
  const RandomPatternResult r = run_random_patterns(ckt, faults, opt);
  EXPECT_LT(static_cast<int>(r.patterns.size()), 10000);
}

TEST(RandomPatterns, ValidatesOptions) {
  const logic::Circuit ckt = logic::c17();
  RandomPatternOptions bad;
  bad.max_patterns = 0;
  EXPECT_THROW((void)run_random_patterns(ckt, {}, bad),
               std::invalid_argument);
  bad = RandomPatternOptions{};
  bad.one_probability = 1.0;
  EXPECT_THROW((void)run_random_patterns(ckt, {}, bad),
               std::invalid_argument);
}

TEST(RandomPatterns, MatchesTheSequentialLoopOracle) {
  // One first-detection FaultSimulator run over the drawn sequence must
  // reproduce the pattern-by-pattern loop it replaced field for field:
  // the applied patterns, every curve point and the fault count, across
  // the stop rules (stale limit, all detected, max_patterns) and every
  // observation option.
  struct Named {
    std::string name;
    logic::Circuit ckt;
  };
  std::vector<Named> roster;
  roster.push_back({"c17", logic::c17()});
  roster.push_back({"full_adder", logic::full_adder()});
  roster.push_back({"ripple_adder_8", logic::ripple_adder(8)});
  roster.push_back({"parity_tree_48", logic::parity_tree(48)});
  roster.push_back({"multiplier_2x2", logic::multiplier_2x2()});
  roster.push_back({"alu_slice", logic::alu_slice()});
  roster.push_back({"tmr_voter_5", logic::tmr_voter(5)});
  roster.push_back({"alu_array_4", logic::alu_array(4)});

  int runs = 0;
  const auto expect_same = [&runs](const logic::Circuit& ckt,
                                   const std::vector<Fault>& faults,
                                   const RandomPatternOptions& opt,
                                   const std::string& label) {
    ++runs;
    const RandomPatternResult got = run_random_patterns(ckt, faults, opt);
    const RandomPatternResult want =
        reference::random_patterns(ckt, faults, opt);
    ASSERT_EQ(got.total_faults, want.total_faults) << label;
    ASSERT_EQ(got.patterns, want.patterns) << label;
    ASSERT_EQ(got.curve.size(), want.curve.size()) << label;
    for (std::size_t k = 0; k < want.curve.size(); ++k) {
      EXPECT_EQ(got.curve[k].patterns, want.curve[k].patterns) << label;
      EXPECT_EQ(got.curve[k].detected, want.curve[k].detected) << label;
      EXPECT_EQ(got.curve[k].coverage, want.curve[k].coverage) << label;
    }
  };

  for (const Named& n : roster) {
    for (const bool collapse : {true, false}) {
      FaultListOptions flo;
      flo.collapse = collapse;
      const std::vector<Fault> faults = generate_fault_list(n.ckt, flo);
      for (const bool iddq : {true, false})
        for (const bool sequential : {true, false})
          for (const double one_probability : {0.5, 0.3})
            for (const int stale_limit : {1, 8, 100000})
              for (const int max_patterns : {1, 64, 65, 130}) {
                RandomPatternOptions opt;
                opt.seed = 7;
                opt.max_patterns = max_patterns;
                opt.one_probability = one_probability;
                opt.stale_limit = stale_limit;
                opt.sim.observe_iddq = iddq;
                opt.sim.sequential_patterns = sequential;
                expect_same(n.ckt, faults, opt,
                            n.name + " collapse=" + std::to_string(collapse) +
                                " iddq=" + std::to_string(iddq) +
                                " seq=" + std::to_string(sequential) +
                                " p1=" + std::to_string(one_probability) +
                                " stale=" + std::to_string(stale_limit) +
                                " max=" + std::to_string(max_patterns));
              }
    }
  }
  RandomPatternOptions opt;
  opt.seed = 7;
  expect_same(logic::c17(), {}, opt, "empty fault list");
  EXPECT_EQ(runs, 1537);
}

}  // namespace
}  // namespace cpsinw::faults
