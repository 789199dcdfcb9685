#include "atpg/podem.hpp"

#include <gtest/gtest.h>

#include "atpg/two_pattern.hpp"
#include "faults/fault_sim.hpp"
#include "gates/fault_dictionary.hpp"
#include "logic/benchmarks.hpp"

namespace cpsinw::atpg {
namespace {

using faults::Fault;
using faults::FaultListOptions;
using faults::FaultSimulator;

/// Soundness property: every PODEM-generated line test is confirmed by an
/// independent fault simulator, for every line fault of each benchmark.
class PodemSoundness : public ::testing::TestWithParam<const char*> {
 protected:
  static logic::Circuit make(const std::string& name) {
    if (name == "c17") return logic::c17();
    if (name == "full_adder") return logic::full_adder();
    if (name == "ripple_adder_3") return logic::ripple_adder(3);
    if (name == "parity_tree_6") return logic::parity_tree(6);
    if (name == "multiplier_2x2") return logic::multiplier_2x2();
    if (name == "alu_slice") return logic::alu_slice();
    throw std::logic_error("unknown benchmark");
  }
};

TEST_P(PodemSoundness, EveryLineTestVerifies) {
  const logic::Circuit ckt = make(GetParam());
  const PodemEngine engine(ckt);
  const FaultSimulator fsim(ckt);
  FaultListOptions flo;
  flo.include_transistor_faults = false;
  const auto faults = generate_fault_list(ckt, flo);
  int detected = 0;
  for (const Fault& f : faults) {
    const AtpgResult r = engine.generate_line(f);
    if (r.status == AtpgStatus::kDetected) {
      ++detected;
      EXPECT_TRUE(fsim.line_fault_detected(f, r.pattern))
          << f.describe(ckt) << " pattern fails verification";
    }
  }
  // These benchmarks are essentially irredundant: expect near-full success.
  EXPECT_GT(detected, static_cast<int>(faults.size() * 9) / 10);
}

INSTANTIATE_TEST_SUITE_P(Benchmarks, PodemSoundness,
                         ::testing::Values("c17", "full_adder",
                                           "ripple_adder_3", "parity_tree_6",
                                           "multiplier_2x2", "alu_slice"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST(Podem, DetectsSpecificC17Fault) {
  const logic::Circuit ckt = logic::c17();
  const PodemEngine engine(ckt);
  const FaultSimulator fsim(ckt);
  const Fault f = Fault::net_stuck(ckt.find_net("11"), true);
  const AtpgResult r = engine.generate_line(f);
  ASSERT_EQ(r.status, AtpgStatus::kDetected);
  EXPECT_TRUE(fsim.line_fault_detected(f, r.pattern));
}

TEST(Podem, ReportsUntestableForRedundantFault) {
  // y = NAND(a, a') is constant 1: SA1 on y is undetectable.
  logic::Circuit c;
  const auto a = c.add_primary_input("a");
  const auto an = c.add_net("an");
  c.add_gate(gates::CellKind::kInv, {a}, an);
  const auto y = c.add_net("y");
  c.add_gate(gates::CellKind::kNand2, {a, an}, y);
  c.mark_primary_output(y);
  c.finalize();
  const PodemEngine engine(c);
  const AtpgResult r =
      engine.generate_line(Fault::net_stuck(y, true));
  EXPECT_EQ(r.status, AtpgStatus::kUntestable);
}

TEST(Podem, FunctionalFaultOnEmbeddedXor) {
  // XOR2 inside a parity tree: pull-down polarity faults must be excited
  // and propagated through the surrounding gates.
  const logic::Circuit ckt = logic::parity_tree(4);
  const PodemEngine engine(ckt);
  const FaultSimulator fsim(ckt);
  int functional_gates = 0;
  for (const logic::GateInst& g : ckt.gates()) {
    if (g.kind != gates::CellKind::kXor2 &&
        g.kind != gates::CellKind::kXor3)
      continue;
    ++functional_gates;
    const Fault f = Fault::transistor(
        g.id, 2, gates::TransistorFault::kStuckAtNType);
    const AtpgResult r = engine.generate_functional(f);
    ASSERT_EQ(r.status, AtpgStatus::kDetected) << g.name;
    const auto rec = fsim.simulate_transistor_fault(f, {r.pattern});
    EXPECT_TRUE(rec.detected_output) << g.name;
  }
  EXPECT_GT(functional_gates, 0);
}

TEST(Podem, IddqTestForPullUpPolarityFault) {
  const logic::Circuit ckt = logic::parity_tree(4);
  const PodemEngine engine(ckt);
  const FaultSimulator fsim(ckt);
  for (const logic::GateInst& g : ckt.gates()) {
    if (!gates::is_dynamic_polarity(g.kind)) continue;
    const Fault f = Fault::transistor(
        g.id, 0, gates::TransistorFault::kStuckAtNType);
    const AtpgResult r = engine.generate_iddq(f);
    ASSERT_EQ(r.status, AtpgStatus::kDetected) << g.name;
    const auto rec = fsim.simulate_transistor_fault(f, {r.pattern});
    EXPECT_TRUE(rec.detected_iddq) << g.name;
  }
}

TEST(Podem, JustifyGateCube) {
  const logic::Circuit ckt = logic::c17();
  const PodemEngine engine(ckt);
  // Justify input cube 0b11 at the last NAND (g23 reads nets 16 and 19).
  const int gate = 5;
  const AtpgResult r = engine.justify_gate_cube(gate, 0b11u);
  ASSERT_EQ(r.status, AtpgStatus::kDetected);
  const logic::SimResult good = logic::Simulator(ckt).simulate(r.pattern);
  const logic::GateInst& g = ckt.gate(gate);
  EXPECT_EQ(good.value(g.in[0]), logic::LogicV::k1);
  EXPECT_EQ(good.value(g.in[1]), logic::LogicV::k1);
}

TEST(Podem, JustifyImpossibleCubeIsUntestable) {
  // NAND(a, a) can never see inputs (0, 1).
  logic::Circuit c;
  const auto a = c.add_primary_input("a");
  const auto y = c.add_net("y");
  c.add_gate(gates::CellKind::kNand2, {a, a}, y);
  c.mark_primary_output(y);
  c.finalize();
  const PodemEngine engine(c);
  const AtpgResult r = engine.justify_gate_cube(0, 0b10u);
  EXPECT_EQ(r.status, AtpgStatus::kUntestable);
}

TEST(Podem, RejectsWrongFaultKinds) {
  const logic::Circuit ckt = logic::c17();
  const PodemEngine engine(ckt);
  EXPECT_THROW((void)engine.generate_line(Fault::transistor(
                   0, 0, gates::TransistorFault::kStuckOpen)),
               std::invalid_argument);
  EXPECT_THROW(
      (void)engine.generate_functional(Fault::net_stuck(0, false)),
      std::invalid_argument);
  EXPECT_THROW((void)engine.generate_iddq(Fault::net_stuck(0, false)),
               std::invalid_argument);
  EXPECT_THROW((void)engine.justify_gate_cube(99, 0),
               std::invalid_argument);
  // Line faults whose net or pin lies outside the circuit: the search
  // indexes its tables by these ids, so they must throw before it starts.
  EXPECT_THROW((void)engine.generate_line(
                   Fault::net_stuck(ckt.net_count() + 100, true)),
               std::invalid_argument);
  EXPECT_THROW((void)engine.generate_line(Fault::net_stuck(-5, true)),
               std::invalid_argument);
  ASSERT_EQ(ckt.gate(0).input_count(), 2);
  EXPECT_THROW((void)engine.generate_line(Fault::input_stuck(0, 2, true)),
               std::invalid_argument);
  EXPECT_THROW((void)engine.generate_line(Fault::input_stuck(0, 7, true)),
               std::invalid_argument);
}

TEST(Podem, RejectsOutOfRangeTransistorFaults) {
  // Every transistor-fault entry point checks the gate id, the fault kind
  // and the transistor index before any lookup: a bad one throws its own
  // invalid_argument.  The dictionary table holds none of the bad
  // transistor keys.
  const logic::Circuit ckt = logic::c17();
  const PodemEngine engine(ckt);
  const auto stuck_open = [](int gate, int transistor) {
    return Fault::transistor(gate, transistor,
                             gates::TransistorFault::kStuckOpen);
  };
  for (const int t : {99, -1})
    EXPECT_THROW(
        (void)gates::dictionary(ckt.gate(0).kind, stuck_open(0, t).cell_fault),
        std::invalid_argument);
  const Fault no_kind = Fault::transistor(0, 0, gates::TransistorFault::kNone);
  for (const Fault& f : {stuck_open(99, 0), stuck_open(-1, 0),
                         stuck_open(0, 99), stuck_open(0, -1), no_kind}) {
    SCOPED_TRACE(testing::Message() << "gate " << f.gate << ", transistor "
                                    << f.cell_fault.transistor);
    EXPECT_THROW((void)engine.generate_functional(f), std::invalid_argument);
    EXPECT_THROW((void)engine.generate_iddq(f), std::invalid_argument);
    EXPECT_THROW((void)engine.generate_functional_retained(f, 0, true),
                 std::invalid_argument);
    EXPECT_THROW((void)generate_two_pattern(engine, f),
                 std::invalid_argument);
  }
}

TEST(V5, CalculusHelpers) {
  EXPECT_TRUE(V5::d().is_d());
  EXPECT_TRUE(V5::dbar().is_dbar());
  EXPECT_TRUE(V5::d().is_fault_effect());
  EXPECT_FALSE(V5::one().is_fault_effect());
  EXPECT_TRUE(V5::zero().is_definite_equal());
  EXPECT_FALSE(V5::x().is_definite_equal());
  EXPECT_STREQ(to_string(V5::d()), "D");
  EXPECT_STREQ(to_string(V5::dbar()), "D'");
  EXPECT_STREQ(to_string(V5::x()), "X");
}

}  // namespace
}  // namespace cpsinw::atpg
