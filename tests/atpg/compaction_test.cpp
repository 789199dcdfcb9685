// Test-set compaction: coverage and size on small sets, the coverage
// contract under each retention setting, and the one-pass compaction
// checked against the per-pattern loop it replaced (reference_compact)
// over random pattern sets and the whole test flow.
#include "atpg/compaction.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

#include "atpg/podem.hpp"
#include "core/test_flow.hpp"
#include "logic/benchmarks.hpp"
#include "logic/netlist_ingest.hpp"
#include "util/rng.hpp"

namespace cpsinw::atpg {
namespace {

using faults::Fault;
using logic::LogicV;
using logic::Pattern;

/// The per-pattern compaction loop compact_patterns replaced, kept
/// verbatim as its differential oracle: one one-pattern context and a
/// full fault simulation per pattern, walking the list in reverse.
CompactionResult reference_compact(const logic::Circuit& ckt,
                                   const std::vector<faults::Fault>& faults,
                                   const std::vector<logic::Pattern>& patterns,
                                   const faults::FaultSimOptions& options) {
  const faults::FaultSimulator fsim(ckt);
  CompactionResult out;
  out.original_count = static_cast<int>(patterns.size());
  // The one compile of the pass: every later context borrows it.
  const faults::EvalContext before_ctx(ckt, patterns);
  const logic::CompiledCircuit& cc = before_ctx.compiled();
  out.coverage_before = fsim.run(before_ctx, faults, options).coverage();

  // Walk patterns in reverse; keep one iff it adds coverage over the kept
  // set so far.  (Reverse order works well because ATPG emits patterns for
  // hard faults last, and those often cover many easy faults.)
  std::vector<logic::Pattern> kept;
  std::vector<char> covered(faults.size(), 0);
  int covered_count = 0;
  for (auto it = patterns.rbegin(); it != patterns.rend(); ++it) {
    bool adds = false;
    const faults::EvalContext pattern_ctx(cc, {*it});
    const faults::FaultSimReport rep = fsim.run(pattern_ctx, faults, options);
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
      if (covered[fi]) continue;
      if (rep.records[fi].detected(options.observe_iddq)) {
        covered[fi] = 1;
        ++covered_count;
        adds = true;
      }
    }
    if (adds) kept.push_back(*it);
    if (covered_count == static_cast<int>(faults.size())) break;
  }
  std::reverse(kept.begin(), kept.end());
  out.patterns = std::move(kept);
  out.coverage_after =
      fsim.run(faults::EvalContext(cc, out.patterns), faults, options)
          .coverage();
  return out;
}

std::vector<Pattern> random_patterns(const logic::Circuit& ckt, int count,
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

/// Visits the grid: eight circuits (fault lists with transistor faults)
/// x pattern sets of 0, 1, 7, 64 and 200 seeded random patterns plus one
/// list that repeats patterns x observe_iddq x sequential_patterns.
template <typename Visit>
void for_each_grid_case(Visit&& visit) {
  const std::vector<std::pair<std::string, logic::Circuit>> circuits = {
      {"c17", logic::c17()},
      {"full_adder", logic::full_adder()},
      {"multiplier_2x2", logic::multiplier_2x2()},
      {"ripple_adder(4)", logic::ripple_adder(4)},
      {"tmr_voter(3)", logic::tmr_voter(3)},
      {"alu_array(1)", logic::alu_array(1)},
      {"alu_array(2)", logic::alu_array(2)},
      {"parity_tree(8)", logic::parity_tree(8)}};
  std::uint64_t seed = 0x5eed;
  for (const auto& [name, ckt] : circuits) {
    const std::vector<Fault> faults = faults::generate_fault_list(ckt);
    std::vector<std::pair<std::string, std::vector<Pattern>>> sets;
    for (const int count : {0, 1, 7, 64, 200})
      sets.push_back({std::to_string(count) + " random",
                      random_patterns(ckt, count, ++seed)});
    // Each of 9 patterns twice, the copies interleaved in another order:
    // the copy later in the list is the one reverse order keeps.
    const std::vector<Pattern> base = random_patterns(ckt, 9, ++seed);
    std::vector<Pattern> dup = base;
    for (std::size_t k = 0; k < base.size(); ++k)
      dup.insert(dup.begin() + static_cast<std::ptrdiff_t>(2 * k + 1),
                 base[(k * 4) % base.size()]);
    sets.push_back({"duplicated", std::move(dup)});

    for (const auto& [set_name, patterns] : sets)
      for (const bool iddq : {false, true})
        for (const bool sequential : {false, true}) {
          faults::FaultSimOptions fso;
          fso.observe_iddq = iddq;
          fso.sequential_patterns = sequential;
          const std::string label = name + ", " + set_name +
                                    ", iddq=" + std::to_string(iddq) +
                                    ", sequential=" +
                                    std::to_string(sequential);
          visit(label, ckt, faults, patterns, fso);
        }
  }
}

std::vector<Pattern> exhaustive_patterns(const logic::Circuit& ckt) {
  const int n = static_cast<int>(ckt.primary_inputs().size());
  std::vector<Pattern> out;
  for (unsigned v = 0; v < (1u << n); ++v) {
    Pattern p(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      p[static_cast<std::size_t>(i)] = logic::from_bool((v >> i) & 1u);
    out.push_back(std::move(p));
  }
  return out;
}

TEST(Compaction, PreservesCoverageWhileShrinking) {
  const logic::Circuit ckt = logic::c17();
  faults::FaultListOptions flo;
  flo.include_transistor_faults = false;
  const auto faults = generate_fault_list(ckt, flo);
  const auto patterns = exhaustive_patterns(ckt);  // 32 patterns

  faults::FaultSimOptions fso;
  fso.observe_iddq = false;
  fso.sequential_patterns = false;
  const CompactionResult r = compact_patterns(ckt, faults, patterns, fso);
  EXPECT_EQ(r.original_count, 32);
  EXPECT_LT(r.patterns.size(), 32u);
  EXPECT_GE(r.coverage_after, r.coverage_before);
  EXPECT_DOUBLE_EQ(r.coverage_after, 1.0);
  // c17's minimal complete stuck-at test set is famously tiny.
  EXPECT_LE(r.patterns.size(), 10u);
}

TEST(Compaction, EmptyInputsAreHandled) {
  const logic::Circuit ckt = logic::c17();
  faults::FaultListOptions flo;
  flo.include_transistor_faults = false;
  const auto faults = generate_fault_list(ckt, flo);
  const CompactionResult r = compact_patterns(ckt, faults, {});
  EXPECT_TRUE(r.patterns.empty());
  EXPECT_EQ(r.original_count, 0);
}

TEST(Compaction, AtpgSetCompactsWithoutCoverageLoss) {
  const logic::Circuit ckt = logic::multiplier_2x2();
  const PodemEngine engine(ckt);
  faults::FaultListOptions flo;
  flo.include_transistor_faults = false;
  const auto faults = generate_fault_list(ckt, flo);

  std::vector<Pattern> patterns;
  for (const Fault& f : faults) {
    const AtpgResult r = engine.generate_line(f);
    if (r.status == AtpgStatus::kDetected) patterns.push_back(r.pattern);
  }
  faults::FaultSimOptions fso;
  fso.observe_iddq = false;
  fso.sequential_patterns = false;
  const CompactionResult r = compact_patterns(ckt, faults, patterns, fso);
  EXPECT_LT(r.patterns.size(), patterns.size());
  EXPECT_GE(r.coverage_after, r.coverage_before - 1e-12);
}

TEST(Compaction, OnePassMatchesPerPatternLoop) {
  int cases = 0;
  int shrunk = 0;
  for_each_grid_case([&](const std::string& label, const logic::Circuit& ckt,
                         const std::vector<Fault>& faults,
                         const std::vector<Pattern>& patterns,
                         const faults::FaultSimOptions& fso) {
    const CompactionResult got = compact_patterns(ckt, faults, patterns, fso);
    const CompactionResult want =
        reference_compact(ckt, faults, patterns, fso);
    EXPECT_EQ(got.patterns, want.patterns) << label;
    EXPECT_EQ(got.original_count, want.original_count) << label;
    EXPECT_EQ(got.coverage_before, want.coverage_before) << label;
    EXPECT_EQ(got.coverage_after, want.coverage_after) << label;
    ++cases;
    if (want.patterns.size() < patterns.size()) ++shrunk;
  });
  EXPECT_EQ(cases, 8 * 6 * 4);
  EXPECT_GT(shrunk, cases / 2);  // the grid exercises real compaction
}

TEST(Compaction, CoverageKeptExactlyOnlyWithRetentionOff) {
  // Retention off: each pattern stands alone, so the kept set detects
  // exactly what the input did.  Retention on: a detection that needs
  // charge from an earlier pattern is credited to no pattern, and the
  // kept set can lose it.
  int drops = 0;
  for_each_grid_case([&](const std::string& label, const logic::Circuit& ckt,
                         const std::vector<Fault>& faults,
                         const std::vector<Pattern>& patterns,
                         const faults::FaultSimOptions& fso) {
    const CompactionResult r = compact_patterns(ckt, faults, patterns, fso);
    if (!fso.sequential_patterns)
      EXPECT_EQ(r.coverage_after, r.coverage_before) << label;
    else if (r.coverage_after < r.coverage_before)
      ++drops;
  });
  EXPECT_GT(drops, 0);
}

TEST(Compaction, TestFlowMatchesPerPatternLoop) {
  const std::string dir = CPSINW_TEST_DATA_DIR;
  const std::vector<std::pair<std::string, logic::Circuit>> circuits = {
      {"alu_array(1)", logic::alu_array(1)},
      {"alu_array(2)", logic::alu_array(2)},
      {"alu_array(4)", logic::alu_array(4)},
      {"c17.bench", logic::load_circuit_file(dir + "/c17.bench")},
      {"full_adder.cpn", logic::load_circuit_file(dir + "/full_adder.cpn")},
      {"full_adder.v", logic::load_circuit_file(dir + "/full_adder.v")},
      {"voter_cells.v", logic::load_circuit_file(dir + "/voter_cells.v")}};
  int shrunk = 0;
  for (const auto& [name, ckt] : circuits) {
    for (const bool classical : {false, true}) {
      const std::string label =
          name + (classical ? ", classical_only" : ", default");
      core::TestFlowOptions opts;
      opts.classical_only = classical;
      opts.compact = false;
      const core::TestSuite full = core::run_test_flow(ckt, opts);
      opts.compact = true;
      const core::TestSuite compacted = core::run_test_flow(ckt, opts);
      ASSERT_FALSE(full.logic_patterns.empty()) << label;

      // The flow's compaction universe: every line fault plus the
      // transistor faults that functional patterns cover.
      std::vector<Fault> comb;
      for (const core::FaultOutcome& o : full.outcomes)
        if (o.fault.site != faults::FaultSite::kGateTransistor ||
            o.method == core::CoverageMethod::kFunctionalPattern)
          comb.push_back(o.fault);
      faults::FaultSimOptions fso;
      fso.observe_iddq = false;
      fso.sequential_patterns = false;
      const CompactionResult want =
          reference_compact(ckt, comb, full.logic_patterns, fso);
      ASSERT_EQ(want.coverage_after, want.coverage_before) << label;
      EXPECT_EQ(compacted.logic_patterns, want.patterns) << label;
      if (want.patterns.size() < full.logic_patterns.size()) ++shrunk;
    }
  }
  EXPECT_GT(shrunk, 0);
}

}  // namespace
}  // namespace cpsinw::atpg
