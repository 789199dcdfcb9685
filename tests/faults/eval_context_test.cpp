// Golden-equivalence suite for the shared evaluation context: the
// context-based run/run_range paths — including both transistor plane
// kernels — must be bit-identical to the seed's serial algorithm
// (reference_sim.hpp).
#include "faults/eval_context.hpp"

#include <gtest/gtest.h>

#include "atpg/two_pattern.hpp"
#include "faults/fault_sim.hpp"
#include "logic/benchmarks.hpp"
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

    // The universe must actually exercise both plane kernels (binary and
    // retained-state dictionaries).
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
      // context path (floating dictionaries take the dual-rail
      // retained-state plane kernel) exactly as through the seed serial
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
  EXPECT_TRUE(ctx.batches().empty());

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
  int line_faults = 0;
  for (const Fault& f : w.faults) {
    if (f.site == FaultSite::kGateTransistor) continue;
    if (++line_faults % 3 != 0) continue;  // subsample for speed
    for (std::size_t pi = 0; pi < w.patterns.size(); pi += 5)
      EXPECT_EQ(fsim.line_fault_detected(ctx, f, pi),
                fsim.line_fault_detected(f, w.patterns[pi]))
          << "pattern " << pi;
  }
  EXPECT_GT(line_faults, 0);
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
}

}  // namespace
}  // namespace cpsinw::faults
