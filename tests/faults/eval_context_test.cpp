// Golden-equivalence suite for the shared evaluation context: the
// context-based run/run_range paths — the binary and X observability rows
// behind every line and transistor fault — must be bit-identical to the
// seed's serial algorithm (reference_sim.hpp).
#include "faults/eval_context.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "atpg/two_pattern.hpp"
#include "faults/bridge.hpp"
#include "faults/fault_sim.hpp"
#include "logic/bench_format.hpp"
#include "logic/benchmarks.hpp"
#include "logic/netlist_ingest.hpp"
#include "logic/simd.hpp"
#include "reference_sim.hpp"
#include "util/rng.hpp"

namespace cpsinw::faults {
namespace {

using logic::LogicV;
using logic::Pattern;

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

void expect_record_eq(const DetectionRecord& got, const DetectionRecord& want,
                      const std::string& label) {
  EXPECT_EQ(got.detected_output, want.detected_output) << label;
  EXPECT_EQ(got.detected_iddq, want.detected_iddq) << label;
  EXPECT_EQ(got.potential, want.potential) << label;
  EXPECT_EQ(got.first_pattern, want.first_pattern) << label;
}

struct Workload {
  std::string name;
  logic::Circuit ckt;
  std::vector<Fault> faults;
  std::vector<Pattern> patterns;
};

std::vector<Workload> workloads() {
  std::vector<Workload> out;
  {
    Workload w;
    w.name = "full_adder";
    w.ckt = logic::full_adder();
    FaultListOptions flo;
    flo.collapse = false;  // keep every dictionary shape in play
    w.faults = generate_fault_list(w.ckt, flo);
    // 70 patterns: crosses the 64-pattern batch boundary.
    w.patterns = random_patterns(w.ckt, 70, 11);
    out.push_back(std::move(w));
  }
  {
    Workload w;
    w.name = "multiplier_2x2";
    w.ckt = logic::multiplier_2x2();
    w.faults = generate_fault_list(w.ckt, {});
    w.patterns = random_patterns(w.ckt, 66, 23);
    out.push_back(std::move(w));
  }
  return out;
}

TEST(EvalContext, RunMatchesSeedSerialReferenceForAllFaultClasses) {
  for (const Workload& w : workloads()) {
    const FaultSimulator fsim(w.ckt);
    const EvalContext ctx(w.ckt, w.patterns);
    ASSERT_TRUE(ctx.packed()) << w.name;

    // The universe must actually exercise both dictionary kinds (binary
    // and retained-state, which also reads X rows).
    int binary = 0, retained = 0;
    for (const Fault& f : w.faults) {
      if (f.site != FaultSite::kGateTransistor) continue;
      ctx.dictionary(w.ckt.gate(f.gate).kind, f.cell_fault).compiled_binary
          ? ++binary
          : ++retained;
    }
    ASSERT_GT(binary, 0) << w.name;
    ASSERT_GT(retained, 0) << w.name;

    for (const bool observe_iddq : {true, false}) {
      for (const bool sequential : {true, false}) {
        FaultSimOptions opt;
        opt.observe_iddq = observe_iddq;
        opt.sequential_patterns = sequential;
        const FaultSimReport got = fsim.run(ctx, w.faults, opt);
        ASSERT_EQ(got.records.size(), w.faults.size());
        for (std::size_t fi = 0; fi < w.faults.size(); ++fi) {
          expect_record_eq(got.records[fi],
                           reference::record(ctx, w.faults[fi], opt),
                           w.name + " fault " + std::to_string(fi) +
                               " iddq=" + std::to_string(observe_iddq) +
                               " seq=" + std::to_string(sequential));
        }
      }
    }
  }
}

TEST(EvalContext, RunRangePartitionConcatenationMatchesWholeRun) {
  const Workload w = workloads()[0];
  const FaultSimulator fsim(w.ckt);
  const EvalContext ctx(w.ckt, w.patterns);
  const FaultSimReport whole = fsim.run(ctx, w.faults);

  std::vector<DetectionRecord> stitched;
  const std::size_t step = 7;
  for (std::size_t begin = 0; begin < w.faults.size(); begin += step) {
    const std::size_t end = std::min(w.faults.size(), begin + step);
    const auto part = fsim.run_range(ctx, w.faults, begin, end, {});
    stitched.insert(stitched.end(), part.begin(), part.end());
  }
  ASSERT_EQ(stitched.size(), whole.records.size());
  for (std::size_t fi = 0; fi < stitched.size(); ++fi)
    expect_record_eq(stitched[fi], whole.records[fi],
                     "fault " + std::to_string(fi));
}

TEST(EvalContext, ContextFreeWrappersMatchContextPath) {
  const Workload w = workloads()[1];
  const FaultSimulator fsim(w.ckt);
  const EvalContext ctx(w.ckt, w.patterns);
  const FaultSimReport via_ctx = fsim.run(ctx, w.faults);
  const FaultSimReport via_wrapper = fsim.run(w.faults, w.patterns);
  ASSERT_EQ(via_ctx.records.size(), via_wrapper.records.size());
  for (std::size_t fi = 0; fi < via_ctx.records.size(); ++fi)
    expect_record_eq(via_ctx.records[fi], via_wrapper.records[fi],
                     "fault " + std::to_string(fi));
}

TEST(EvalContext, TwoPatternStuckOpenSequencesRetainState) {
  // c17 is NAND-only: its stuck-opens have floating rows, so two-pattern
  // retention tests exist (dynamic-polarity XOR cells have none).
  const logic::Circuit ckt = logic::c17();
  const FaultSimulator fsim(ckt);
  int verified = 0;
  for (const logic::GateInst& g : ckt.gates()) {
    const int nt = static_cast<int>(gates::cell(g.kind).transistors.size());
    for (int t = 0; t < nt; ++t) {
      const Fault f =
          Fault::transistor(g.id, t, gates::TransistorFault::kStuckOpen);
      const atpg::TwoPatternResult r = atpg::generate_two_pattern(ckt, f, {});
      if (r.status != atpg::AtpgStatus::kDetected || !r.test) continue;
      ++verified;
      // The (init, test) retention sequence must detect through the
      // context path (the floating output's retained value read against
      // the observability rows) exactly as through the seed serial
      // algorithm.
      const std::vector<Pattern> seq = {r.test->init, r.test->test};
      const EvalContext ctx(ckt, seq);
      const FaultSimReport rep = fsim.run(ctx, {f}, {});
      EXPECT_TRUE(rep.records[0].detected_output) << g.name << ".t" << t;
      EXPECT_EQ(rep.records[0].first_pattern, 1) << g.name << ".t" << t;
      expect_record_eq(rep.records[0], reference::transistor(ckt, f, seq, {}),
                       g.name + ".t" + std::to_string(t));
      // Without sequence threading the retained value is lost: the same
      // two patterns must not report a definite output detection.
      FaultSimOptions no_seq;
      no_seq.sequential_patterns = false;
      EXPECT_FALSE(fsim.run(ctx, {f}, no_seq).records[0].detected_output)
          << g.name << ".t" << t;
    }
  }
  EXPECT_GT(verified, 0);
}

TEST(EvalContext, XBearingPatternsStayScalarAndRejectLineFaults) {
  const logic::Circuit ckt = logic::full_adder();
  std::vector<Pattern> patterns = random_patterns(ckt, 4, 3);
  patterns[2][0] = LogicV::kX;
  const EvalContext ctx(ckt, patterns);
  EXPECT_FALSE(ctx.packed());
  EXPECT_EQ(ctx.word_count(), 0u);

  // The scalar good machine is the only copy, and good_value reads it.
  const logic::Simulator sim(ckt);
  for (std::size_t k = 0; k < patterns.size(); ++k) {
    const logic::SimResult want = sim.simulate(patterns[k]);
    for (logic::NetId n = 0; n < ckt.net_count(); ++n)
      EXPECT_EQ(ctx.good_value(k, n), want.value(n))
          << "pattern " << k << " net " << n;
  }

  const FaultSimulator fsim(ckt);
  // Transistor faults still simulate (scalar serial path), under every
  // observation option and detection mode...
  std::vector<Fault> trans;
  for (const Fault& f : generate_fault_list(ckt, {}))
    if (f.site == FaultSite::kGateTransistor) trans.push_back(f);
  ASSERT_FALSE(trans.empty());
  for (const bool observe_iddq : {true, false}) {
    for (const bool sequential : {true, false}) {
      for (const DetectionMode mode :
           {DetectionMode::kFull, DetectionMode::kFirstOnly}) {
        FaultSimOptions opt;
        opt.observe_iddq = observe_iddq;
        opt.sequential_patterns = sequential;
        opt.detection_mode = mode;
        const FaultSimReport got = fsim.run(ctx, trans, opt);
        ASSERT_EQ(got.records.size(), trans.size());
        for (std::size_t fi = 0; fi < trans.size(); ++fi)
          expect_record_eq(
              got.records[fi],
              reference::transistor(ckt, trans[fi], patterns, opt),
              "fault " + std::to_string(fi) +
                  " iddq=" + std::to_string(observe_iddq) +
                  " seq=" + std::to_string(sequential) + " first_only=" +
                  std::to_string(mode == DetectionMode::kFirstOnly));
      }
    }
  }

  // ...while the packed line path refuses, like the seed did.
  const Fault line = Fault::net_stuck(ckt.primary_outputs()[0], false);
  EXPECT_THROW((void)fsim.run(ctx, {line}, {}), std::invalid_argument);
}

TEST(EvalContext, LineFaultDetectedOverloadMatchesSinglePatternCheck) {
  const Workload w = workloads()[0];
  const FaultSimulator fsim(w.ckt);
  const EvalContext ctx(w.ckt, w.patterns);
  // The same set with an X in one pattern: on the X-bearing context the
  // binary patterns still answer and the X pattern throws.
  const std::size_t x_at = 10;
  std::vector<Pattern> with_x = w.patterns;
  with_x[x_at][0] = LogicV::kX;
  const EvalContext x_ctx(w.ckt, with_x);
  ASSERT_FALSE(x_ctx.packed());
  int line_faults = 0;
  for (const Fault& f : w.faults) {
    if (f.site == FaultSite::kGateTransistor) continue;
    if (++line_faults % 3 != 0) continue;  // subsample for speed
    for (std::size_t pi = 0; pi < w.patterns.size(); pi += 5) {
      const bool want =
          reference::line(EvalContext(ctx.compiled(), {w.patterns[pi]}), f)
              .detected_output;
      EXPECT_EQ(fsim.line_fault_detected(ctx, f, pi), want)
          << "pattern " << pi;
      EXPECT_EQ(fsim.line_fault_detected(f, w.patterns[pi]), want)
          << "pattern " << pi;
      if (pi == x_at) {
        EXPECT_THROW((void)fsim.line_fault_detected(x_ctx, f, pi),
                     std::invalid_argument);
        EXPECT_THROW((void)fsim.line_fault_detected(f, with_x[pi]),
                     std::invalid_argument);
      } else {
        EXPECT_EQ(fsim.line_fault_detected(x_ctx, f, pi), want)
            << "X-bearing context, pattern " << pi;
      }
    }
  }
  EXPECT_GT(line_faults, 0);
}

TEST(EvalContext, BorrowedCompileMatchesOwningContext) {
  const Workload w = workloads()[0];
  const logic::CompiledCircuit cc(w.ckt);
  std::vector<Fault> trans;
  for (const Fault& f : w.faults)
    if (f.site == FaultSite::kGateTransistor) trans.push_back(f);
  const std::vector<BridgeFault> bridges = enumerate_adjacent_bridges(w.ckt);
  ASSERT_FALSE(trans.empty());
  ASSERT_FALSE(bridges.empty());
  std::vector<Pattern> with_x = w.patterns;
  with_x[3][1] = LogicV::kX;
  with_x[40][0] = LogicV::kX;

  const FaultSimulator fsim(w.ckt);
  for (const bool x_bearing : {false, true}) {
    const std::vector<Pattern>& patterns = x_bearing ? with_x : w.patterns;
    const EvalContext owning(w.ckt, patterns);
    const EvalContext borrowed(cc, patterns);
    EXPECT_EQ(&borrowed.compiled(), &cc);
    EXPECT_EQ(&borrowed.circuit(), &w.ckt);
    ASSERT_EQ(borrowed.packed(), !x_bearing);
    ASSERT_EQ(owning.packed(), borrowed.packed());
    for (const bool sequential : {true, false}) {
      for (const DetectionMode mode :
           {DetectionMode::kFull, DetectionMode::kFirstOnly}) {
        FaultSimOptions opt;
        opt.sequential_patterns = sequential;
        opt.detection_mode = mode;
        const std::string label =
            std::string(x_bearing ? "X-bearing" : "packed") +
            " seq=" + std::to_string(sequential) +
            " first_only=" + std::to_string(mode == DetectionMode::kFirstOnly);
        const FaultSimReport want = fsim.run(owning, trans, opt);
        const FaultSimReport got = fsim.run(borrowed, trans, opt);
        ASSERT_EQ(got.records.size(), want.records.size());
        for (std::size_t fi = 0; fi < trans.size(); ++fi)
          expect_record_eq(got.records[fi], want.records[fi],
                           label + " fault " + std::to_string(fi));
        const auto want_b = simulate_bridges(owning, bridges, opt);
        const auto got_b = simulate_bridges(borrowed, bridges, opt);
        ASSERT_EQ(got_b.size(), want_b.size());
        for (std::size_t bi = 0; bi < bridges.size(); ++bi)
          expect_record_eq(got_b[bi], want_b[bi],
                           label + " bridge " + std::to_string(bi));
      }
    }
  }
}

TEST(EvalContext, RejectsForeignCircuitAndBadRanges) {
  const logic::Circuit a = logic::full_adder();
  const logic::Circuit b = logic::c17();
  const FaultSimulator fsim(a);
  const EvalContext ctx_b(b, random_patterns(b, 4, 5));
  EXPECT_THROW((void)fsim.run(ctx_b, {}, {}), std::invalid_argument);

  const EvalContext ctx_a(a, random_patterns(a, 4, 5));
  const std::vector<Fault> faults = generate_fault_list(a, {});
  EXPECT_THROW(
      (void)fsim.run_range(ctx_a, faults, 2, 1, {}),
      std::invalid_argument);
  EXPECT_THROW(
      (void)fsim.run_range(ctx_a, faults, 0, faults.size() + 1, {}),
      std::invalid_argument);

  // Every pattern must be as long as the circuit has primary inputs, on
  // binary and X-bearing sets alike; the wrong-length pattern comes after
  // the X, so a check that stopped at the first X would miss it.
  for (const bool with_x : {false, true}) {
    for (const int extra : {-1, 1}) {
      std::vector<Pattern> patterns = random_patterns(a, 4, 7);
      if (with_x) patterns[1][0] = LogicV::kX;
      patterns[3].resize(a.primary_inputs().size() + extra, LogicV::k0);
      EXPECT_THROW((void)EvalContext(a, patterns), std::invalid_argument)
          << "with_x=" << with_x << " extra=" << extra;
    }
  }
}

/// RAII pin of the portable backend (tests must not leak the override).
struct ForcePortable {
  explicit ForcePortable(bool on) { logic::simd::force_portable(on); }
  ~ForcePortable() { logic::simd::force_portable(false); }
};

logic::Circuit ingested(const logic::Circuit& ckt) {
  return logic::read_bench_string(logic::to_bench_string(ckt));
}

struct Named {
  std::string name;
  logic::Circuit ckt;
};

/// The roster, the committed fixtures, ingested alu arrays and random
/// circuits.
std::vector<Named> inputs() {
  std::vector<Named> out;
  out.push_back({"c17", logic::c17()});
  out.push_back({"full_adder", logic::full_adder()});
  out.push_back({"alu_slice", logic::alu_slice()});
  out.push_back({"parity_tree_9", logic::parity_tree(9)});
  out.push_back({"tmr_voter_3", logic::tmr_voter(3)});
  out.push_back({"ripple_adder_4", logic::ripple_adder(4)});
  out.push_back({"multiplier_2x2", logic::multiplier_2x2()});
  out.push_back({"xor3_parity_chain_7", logic::xor3_parity_chain(7)});
  for (const char* file :
       {"c17.bench", "full_adder.cpn", "full_adder.v", "voter_cells.v"})
    out.push_back({file, logic::load_circuit_file(
                             std::string(CPSINW_TEST_DATA_DIR) + "/" + file)});
  for (const int slices : {1, 4, 16, 64})
    out.push_back({"alu_array_" + std::to_string(slices),
                   ingested(logic::alu_array(slices))});
  for (std::uint64_t seed = 1; seed <= 8; ++seed)
    out.push_back({"random_" + std::to_string(seed),
                   logic::random_circuit(seed, 4 + static_cast<int>(seed),
                                         12 + 6 * static_cast<int>(seed))});
  return out;
}

TEST(EvalContext, RecordsMatchTheOraclesAcrossTheMatrix) {
  // The oracles simulate one fault at a time, pattern by pattern, so on
  // the larger circuits they check an evenly spread sample: at most 256
  // faults and a fixed budget of reference gate evaluations per (pattern
  // count, options) cell.  run_range covers every fault (all of them read
  // rows), so both row kinds are shared as in a campaign.
  constexpr double kBudget = 4e6;
  constexpr std::size_t kMaxSample = 256;
  for (const Named& in : inputs()) {
    FaultListOptions flo;
    flo.collapse = false;
    const std::vector<Fault> universe = generate_fault_list(in.ckt, flo);
    const FaultSimulator fsim(in.ckt);
    const double gates = in.ckt.gate_count();
    for (const int count : {0, 1, 65, 300}) {
      const std::vector<Pattern> patterns =
          random_patterns(in.ckt, count, 5 + count);
      const double per_fault = 2.0 * gates * std::max(count, 1);
      const std::size_t sample = std::clamp<std::size_t>(
          static_cast<std::size_t>(kBudget / per_fault), 8, kMaxSample);
      const std::size_t step =
          std::max<std::size_t>(1, universe.size() / sample);
      const EvalContext ctx(in.ckt, patterns);
      std::vector<std::size_t> checked;  ///< positions in `universe`
      std::vector<DetectionRecord> line_want;  ///< option-independent
      for (std::size_t i = 0; i < universe.size(); i += step) {
        const Fault& f = universe[i];
        checked.push_back(i);
        line_want.push_back(f.site != FaultSite::kGateTransistor
                                ? reference::line(ctx, f)
                                : DetectionRecord{});
      }
      for (int o = 0; o < 8; ++o) {
        FaultSimOptions options;
        options.detection_mode =
            (o & 1) != 0 ? DetectionMode::kFirstOnly : DetectionMode::kFull;
        options.observe_iddq = (o & 2) != 0;
        options.sequential_patterns = (o & 4) != 0;
        std::vector<std::vector<DetectionRecord>> runs;
        for (const bool portable : {true, false}) {
          ForcePortable pin(portable);
          const EvalContext fresh(in.ckt, patterns);  // rows per backend
          runs.push_back(
              fsim.run_range(fresh, universe, 0, universe.size(), options));
        }
        for (std::size_t k = 0; k < checked.size(); ++k) {
          const Fault& f = universe[checked[k]];
          const DetectionRecord want =
              f.site == FaultSite::kGateTransistor
                  ? reference::transistor(in.ckt, f, patterns, options)
                  : line_want[k];
          for (std::size_t b = 0; b < runs.size(); ++b)
            expect_record_eq(runs[b][checked[k]], want,
                             in.name + " patterns " + std::to_string(count) +
                                 " options " + std::to_string(o) +
                                 (b == 0 ? " portable" : " dispatched") +
                                 " fault " + std::to_string(checked[k]));
        }
      }
    }
  }
}

}  // namespace
}  // namespace cpsinw::faults
