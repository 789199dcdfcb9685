#include "faults/fault_sim.hpp"

#include <gtest/gtest.h>

#include "gates/fault_dictionary.hpp"
#include "logic/benchmarks.hpp"

namespace cpsinw::faults {
namespace {

using logic::LogicV;
using logic::Pattern;

Pattern bits_to_pattern(unsigned bits, int n) {
  Pattern p(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    p[static_cast<std::size_t>(i)] = logic::from_bool((bits >> i) & 1u);
  return p;
}

std::vector<Pattern> exhaustive_patterns(const logic::Circuit& ckt) {
  const int n = static_cast<int>(ckt.primary_inputs().size());
  std::vector<Pattern> out;
  for (unsigned v = 0; v < (1u << n); ++v)
    out.push_back(bits_to_pattern(v, n));
  return out;
}

TEST(FaultSim, ExhaustivePatternsDetectAllLineFaultsOnC17) {
  const logic::Circuit ckt = logic::c17();
  const FaultSimulator fsim(ckt);
  FaultListOptions flo;
  flo.include_transistor_faults = false;
  const auto faults = generate_fault_list(ckt, flo);
  const auto report = fsim.run(faults, exhaustive_patterns(ckt));
  // c17 has no redundant stuck-at faults: exhaustive coverage is 100 %.
  EXPECT_DOUBLE_EQ(report.coverage(), 1.0);
  for (const auto& rec : report.records) EXPECT_GE(rec.first_pattern, 0);
}

TEST(FaultSim, SingleBadPatternDetectsNothingItShouldnt) {
  const logic::Circuit ckt = logic::c17();
  const FaultSimulator fsim(ckt);
  const Fault f = Fault::net_stuck(ckt.find_net("22"), false);
  // Pattern driving output 22 to 0 cannot reveal SA0 on it.
  const logic::Simulator sim(ckt);
  for (const Pattern& p : exhaustive_patterns(ckt)) {
    const bool detected = fsim.line_fault_detected(f, p);
    const bool out_is_one =
        sim.simulate(p).value(ckt.find_net("22")) == logic::LogicV::k1;
    EXPECT_EQ(detected, out_is_one);
  }
}

TEST(FaultSim, PolarityFaultsOnXorDetectedViaIddqAndOutput) {
  logic::Circuit c;
  const auto a = c.add_primary_input("a");
  const auto b = c.add_primary_input("b");
  const auto y = c.add_net("y");
  c.add_gate(gates::CellKind::kXor2, {a, b}, y);
  c.mark_primary_output(y);
  c.finalize();
  const FaultSimulator fsim(c);
  const auto patterns = exhaustive_patterns(c);

  // Pull-up faults (t1, t2): IDDQ only.
  for (const int t : {0, 1}) {
    const auto rec = fsim.simulate_transistor_fault(
        Fault::transistor(0, t, gates::TransistorFault::kStuckAtNType),
        patterns);
    EXPECT_TRUE(rec.detected_iddq) << "t" << t + 1;
    EXPECT_FALSE(rec.detected_output) << "t" << t + 1;
  }
  // Pull-down stuck-at-n (t3, t4): output flip.
  for (const int t : {2, 3}) {
    const auto rec = fsim.simulate_transistor_fault(
        Fault::transistor(0, t, gates::TransistorFault::kStuckAtNType),
        patterns);
    EXPECT_TRUE(rec.detected_output) << "t" << t + 1;
  }
}

TEST(FaultSim, IddqObservationCanBeDisabled) {
  logic::Circuit c;
  const auto a = c.add_primary_input("a");
  const auto b = c.add_primary_input("b");
  const auto y = c.add_net("y");
  c.add_gate(gates::CellKind::kXor2, {a, b}, y);
  c.mark_primary_output(y);
  c.finalize();
  const FaultSimulator fsim(c);
  FaultSimOptions opt;
  opt.observe_iddq = false;
  const auto rec = fsim.simulate_transistor_fault(
      Fault::transistor(0, 0, gates::TransistorFault::kStuckAtNType),
      exhaustive_patterns(c), opt);
  EXPECT_FALSE(rec.detected(opt.observe_iddq));
}

TEST(FaultSim, StuckOpenNeedsTheRightPatternOrder) {
  // NAND2: t1 stuck-open detected by (11 -> 01) but not by (01 -> 11).
  logic::Circuit c;
  const auto a = c.add_primary_input("a");
  const auto b = c.add_primary_input("b");
  const auto y = c.add_net("y");
  c.add_gate(gates::CellKind::kNand2, {a, b}, y);
  c.mark_primary_output(y);
  c.finalize();
  const FaultSimulator fsim(c);
  const Fault f =
      Fault::transistor(0, 0, gates::TransistorFault::kStuckOpen);
  const Pattern p11 = bits_to_pattern(0b11u, 2);
  const Pattern p01 = bits_to_pattern(0b01u, 2);  // A=1, B=0
  const Pattern p10 = bits_to_pattern(0b10u, 2);  // A=0, B=1
  // t1 is the pull-up on input A: it must pull up when A = 0.
  EXPECT_TRUE(fsim.stuck_open_detected(f, p11, p10));
  EXPECT_FALSE(fsim.stuck_open_detected(f, p10, p11));
  // The other pull-up's vector does not touch t1.
  EXPECT_FALSE(fsim.stuck_open_detected(f, p11, p01));
}

TEST(FaultSim, ReportAggregates) {
  const logic::Circuit ckt = logic::full_adder();
  const FaultSimulator fsim(ckt);
  const auto faults = generate_fault_list(ckt);
  const auto report = fsim.run(faults, exhaustive_patterns(ckt));
  EXPECT_EQ(report.records.size(), faults.size());
  EXPECT_GT(report.detected_count(), 0);
  EXPECT_GT(report.coverage(), 0.5);
  EXPECT_LE(report.coverage(), 1.0);
}

TEST(FaultSim, RejectsWrongSiteKinds) {
  const logic::Circuit ckt = logic::full_adder();
  const FaultSimulator fsim(ckt);
  EXPECT_THROW((void)fsim.line_fault_detected(
                   Fault::transistor(0, 0,
                                     gates::TransistorFault::kStuckOpen),
                   bits_to_pattern(0, 3)),
               std::invalid_argument);
  EXPECT_THROW((void)fsim.simulate_transistor_fault(
                   Fault::net_stuck(0, false), {bits_to_pattern(0, 3)}),
               std::invalid_argument);
}

TEST(FaultSim, RejectsOutOfRangeTransistorIndices) {
  // A negative index reads as "no fault" in the cell tables and 99 is
  // past them: both must throw before any dictionary lookup, so neither
  // comes back as an undetected record.  The dictionary table holds
  // neither key.
  const logic::Circuit ckt = logic::c17();
  const FaultSimulator fsim(ckt);
  const std::vector<Pattern> patterns = exhaustive_patterns(ckt);
  const gates::CellKind kind = ckt.gate(0).kind;
  for (const int t : {-1, -5, 99}) {
    const Fault f =
        Fault::transistor(0, t, gates::TransistorFault::kStuckAtNType);
    EXPECT_THROW((void)fsim.run({f}, patterns), std::invalid_argument)
        << "transistor " << t;
    EXPECT_THROW((void)gates::dictionary(kind, f.cell_fault),
                 std::invalid_argument)
        << "transistor " << t;
  }
  // A fault without a kind is no defect: rejected by name, not simulated
  // as the fault-free cell (an undetected record).
  const Fault none = Fault::transistor(0, 0, gates::TransistorFault::kNone);
  EXPECT_THROW((void)fsim.run({none}, patterns), std::invalid_argument);
  try {
    (void)fsim.simulate_transistor_fault(none, patterns);
    ADD_FAILURE() << "a fault without a kind was simulated";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "simulate_transistor_fault: no fault kind");
  }
  EXPECT_THROW((void)gates::dictionary(kind, none.cell_fault),
               std::invalid_argument);
}

}  // namespace
}  // namespace cpsinw::faults
