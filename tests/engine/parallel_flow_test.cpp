// Fault-parallel test generation: the flow targets every fault on its own,
// so spreading its searches over a pool must give exactly the suite of
// the serial loop, and an ATPG-source campaign must not depend on the
// thread count or the backend.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/test_flow.hpp"
#include "engine/campaign.hpp"
#include "engine/thread_pool.hpp"
#include "logic/bench_format.hpp"
#include "logic/benchmarks.hpp"
#include "logic/netlist_ingest.hpp"

namespace cpsinw::engine {
namespace {

void expect_same_two_pattern(const atpg::TwoPatternTest& a,
                             const atpg::TwoPatternTest& b) {
  EXPECT_EQ(a.fault, b.fault);
  EXPECT_EQ(a.init, b.init);
  EXPECT_EQ(a.test, b.test);
  EXPECT_EQ(a.init_cube, b.init_cube);
  EXPECT_EQ(a.test_cube, b.test_cube);
}

void expect_same_channel_break(const atpg::ChannelBreakTest& a,
                               const atpg::ChannelBreakTest& b) {
  EXPECT_EQ(a.gate, b.gate);
  EXPECT_EQ(a.transistor, b.transistor);
  EXPECT_EQ(a.emulated_polarity, b.emulated_polarity);
  EXPECT_EQ(a.local_vector, b.local_vector);
  EXPECT_EQ(a.rails.true_bits, b.rails.true_bits);
  EXPECT_EQ(a.rails.bar_bits, b.rails.bar_bits);
  EXPECT_EQ(a.expected_intact, b.expected_intact);
  EXPECT_EQ(a.expected_broken, b.expected_broken);
  EXPECT_EQ(a.broken_is_clean, b.broken_is_clean);
  EXPECT_EQ(a.intact_shows_iddq, b.intact_shows_iddq);
  EXPECT_EQ(a.intact_shows_output_error, b.intact_shows_output_error);
  EXPECT_EQ(a.pattern, b.pattern);
  EXPECT_EQ(a.pi_accessible, b.pi_accessible);
}

/// Field-by-field equality of two suites, in order.
void expect_same_suite(const core::TestSuite& a, const core::TestSuite& b) {
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "outcome " << i);
    EXPECT_EQ(a.outcomes[i].fault, b.outcomes[i].fault);
    EXPECT_EQ(a.outcomes[i].method, b.outcomes[i].method);
    EXPECT_EQ(a.outcomes[i].status, b.outcomes[i].status);
  }
  EXPECT_EQ(a.logic_patterns, b.logic_patterns);
  EXPECT_EQ(a.iddq_patterns, b.iddq_patterns);
  ASSERT_EQ(a.two_pattern_tests.size(), b.two_pattern_tests.size());
  for (std::size_t i = 0; i < a.two_pattern_tests.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "two-pattern test " << i);
    expect_same_two_pattern(a.two_pattern_tests[i], b.two_pattern_tests[i]);
  }
  ASSERT_EQ(a.channel_break_tests.size(), b.channel_break_tests.size());
  for (std::size_t i = 0; i < a.channel_break_tests.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "channel-break test " << i);
    expect_same_channel_break(a.channel_break_tests[i],
                              b.channel_break_tests[i]);
  }
}

TEST(ParallelFlow, MatchesSerial) {
  const std::string dir = CPSINW_TEST_DATA_DIR;
  const std::vector<std::pair<std::string, logic::Circuit>> circuits = {
      {"c17", logic::c17()},
      {"full_adder", logic::full_adder()},
      {"multiplier_2x2", logic::multiplier_2x2()},
      {"ripple_adder(4)", logic::ripple_adder(4)},
      {"tmr_voter(3)", logic::tmr_voter(3)},
      {"alu_array(1)", logic::alu_array(1)},
      {"alu_array(2)", logic::alu_array(2)},
      {"alu_array(4)", logic::alu_array(4)},
      {"c17.bench", logic::load_circuit_file(dir + "/c17.bench")},
      {"full_adder.cpn", logic::load_circuit_file(dir + "/full_adder.cpn")},
      {"full_adder.v", logic::load_circuit_file(dir + "/full_adder.v")},
      {"voter_cells.v", logic::load_circuit_file(dir + "/voter_cells.v")}};
  core::TestFlowOptions classical;
  classical.classical_only = true;
  core::TestFlowOptions uncompacted;
  uncompacted.compact = false;
  const std::vector<std::pair<std::string, core::TestFlowOptions>> options = {
      {"default", {}}, {"classical_only", classical},
      {"compact = false", uncompacted}};

  for (const int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    const core::ParallelFor on_pool =
        [&pool](std::size_t n, const std::function<void(std::size_t)>& body) {
          pool.parallel_for(n, body);
        };
    for (const auto& [name, ckt] : circuits) {
      for (const auto& [label, opts] : options) {
        SCOPED_TRACE(testing::Message()
                     << name << ", " << label << ", " << threads
                     << " threads");
        const core::TestSuite serial = core::run_test_flow(ckt, opts);
        ASSERT_FALSE(serial.outcomes.empty());
        expect_same_suite(serial, core::run_test_flow(ckt, opts, on_pool));
      }
    }
  }
}

TEST(ParallelFlow, AtpgCampaignIdenticalAcrossThreads) {
  // The ingested alu_array(4) of the benchmark's ATPG workload, beside a
  // second ATPG job so two setup tasks fan out at once.
  CampaignSpec spec;
  spec.jobs.push_back(
      {"alu_array_4",
       logic::read_bench_string(logic::to_bench_string(logic::alu_array(4)))});
  spec.jobs.push_back({"full_adder", logic::full_adder()});
  spec.patterns.kind = PatternSourceSpec::Kind::kAtpg;

  spec.executor.backend = ExecutorBackend::kInline;
  const CampaignReport reference = run_campaign(spec);
  ASSERT_TRUE(reference.ok()) << reference.error;
  const std::string json = reference.to_json();

  spec.executor.backend = ExecutorBackend::kThreadPool;
  for (const int threads : {1, 2, 4}) {
    spec.threads = threads;
    const CampaignReport r = run_campaign(spec);
    EXPECT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(json, r.to_json()) << threads << " threads";
  }
}

}  // namespace
}  // namespace cpsinw::engine
