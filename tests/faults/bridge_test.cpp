#include "faults/bridge.hpp"

#include <gtest/gtest.h>

#include "atpg/bridge_atpg.hpp"
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

TEST(Bridge, EnumerationCoversAdjacentPairsWithFourBehaviours) {
  const logic::Circuit ckt = logic::full_adder();
  const auto bridges = enumerate_adjacent_bridges(ckt);
  EXPECT_FALSE(bridges.empty());
  EXPECT_EQ(bridges.size() % 4, 0u);
  for (const BridgeFault& f : bridges) EXPECT_NE(f.a, f.b);
}

TEST(Bridge, WiredSemantics) {
  // Two inverters driving independent outputs: bridge their outputs.
  logic::Circuit c;
  const auto a = c.add_primary_input("a");
  const auto b = c.add_primary_input("b");
  const auto ya = c.add_net("ya");
  const auto yb = c.add_net("yb");
  c.add_gate(gates::CellKind::kInv, {a}, ya);
  c.add_gate(gates::CellKind::kInv, {b}, yb);
  c.mark_primary_output(ya);
  c.mark_primary_output(yb);
  c.finalize();

  const Pattern p01 = {LogicV::k0, LogicV::k1};  // ya=1, yb=0

  const auto and_vals =
      simulate_bridge(c, {ya, yb, BridgeBehavior::kWiredAnd}, p01);
  EXPECT_EQ(and_vals[static_cast<std::size_t>(ya)], LogicV::k0);
  EXPECT_EQ(and_vals[static_cast<std::size_t>(yb)], LogicV::k0);

  const auto or_vals =
      simulate_bridge(c, {ya, yb, BridgeBehavior::kWiredOr}, p01);
  EXPECT_EQ(or_vals[static_cast<std::size_t>(ya)], LogicV::k1);
  EXPECT_EQ(or_vals[static_cast<std::size_t>(yb)], LogicV::k1);

  const auto dom_a =
      simulate_bridge(c, {ya, yb, BridgeBehavior::kDominantA}, p01);
  EXPECT_EQ(dom_a[static_cast<std::size_t>(yb)], LogicV::k1);

  const auto dom_b =
      simulate_bridge(c, {ya, yb, BridgeBehavior::kDominantB}, p01);
  EXPECT_EQ(dom_b[static_cast<std::size_t>(ya)], LogicV::k0);
}

TEST(Bridge, NoEffectWhenNetsAgree) {
  logic::Circuit c;
  const auto a = c.add_primary_input("a");
  const auto ya = c.add_net("ya");
  const auto yb = c.add_net("yb");
  c.add_gate(gates::CellKind::kInv, {a}, ya);
  c.add_gate(gates::CellKind::kInv, {a}, yb);
  c.mark_primary_output(ya);
  c.mark_primary_output(yb);
  c.finalize();
  // Both nets always carry the same value: never excited, never visible.
  for (unsigned v = 0; v < 2; ++v) {
    const Pattern p = bits_to_pattern(v, 1);
    for (const BridgeBehavior beh :
         {BridgeBehavior::kWiredAnd, BridgeBehavior::kWiredOr,
          BridgeBehavior::kDominantA}) {
      EXPECT_FALSE(bridge_excited_for_iddq(c, {ya, yb, beh}, p));
      EXPECT_FALSE(bridge_detected_by_output(c, {ya, yb, beh}, p));
    }
  }
}

TEST(Bridge, IddqTestGenerationJustifiesOppositeValues) {
  const logic::Circuit ckt = logic::c17();
  for (const BridgeFault& f : enumerate_adjacent_bridges(ckt)) {
    const atpg::BridgeTestResult r =
        atpg::generate_bridge_iddq_test(ckt, f);
    if (r.status != atpg::AtpgStatus::kDetected) continue;
    EXPECT_TRUE(bridge_excited_for_iddq(ckt, f, *r.pattern));
  }
}

TEST(Bridge, CoverageOnBenchmarks) {
  for (const auto& make :
       {+[] { return logic::c17(); }, +[] { return logic::full_adder(); },
        +[] { return logic::multiplier_2x2(); }}) {
    const logic::Circuit ckt = make();
    const atpg::BridgeCoverage cov = atpg::generate_all_bridge_tests(ckt);
    EXPECT_GT(cov.total, 0);
    // Adjacent nets in these benchmarks are almost never logically equal:
    // nearly everything is IDDQ-coverable.
    EXPECT_GT(cov.coverage(), 0.9);
    // Each excited pair needs exactly one pattern.
    EXPECT_LE(static_cast<int>(cov.iddq_patterns.size()),
              cov.total / 4 + 1);
  }
}

TEST(Bridge, FeedbackBridgeResolvesWithoutHanging) {
  // Bridge a gate's output to its own input: a feedback loop.  The
  // simulation must terminate and produce a defined or X result.
  logic::Circuit c;
  const auto a = c.add_primary_input("a");
  const auto y = c.add_net("y");
  c.add_gate(gates::CellKind::kInv, {a}, y);
  c.mark_primary_output(y);
  c.finalize();
  const BridgeFault f{a, y, BridgeBehavior::kWiredAnd};
  const auto vals = simulate_bridge(c, f, {LogicV::k1});
  // wired-AND of a=1, y=NOT(a)=0 -> both 0; re-evaluating: y=NOT(0)=1,
  // wired again -> oscillation or stable 0 depending on the driver; either
  // a binary fixpoint or X is acceptable, a hang is not.
  SUCCEED() << "terminated with y="
            << to_string(vals[static_cast<std::size_t>(y)]);
}

TEST(Bridge, RejectsBadPairs) {
  const logic::Circuit ckt = logic::c17();
  for (const BridgeFault& bad :
       {BridgeFault{3, 3, BridgeBehavior::kWiredOr},
        BridgeFault{-1, 3, BridgeBehavior::kWiredOr},
        BridgeFault{3, 100000000, BridgeBehavior::kWiredOr}})
    EXPECT_THROW((void)simulate_bridge(ckt, bad, bits_to_pattern(0, 5)),
                 std::invalid_argument);
}

TEST(Bridge, BehaviorNames) {
  EXPECT_STREQ(to_string(BridgeBehavior::kWiredAnd), "wired-AND");
  EXPECT_STREQ(to_string(BridgeBehavior::kDominantB), "dominant-B");
}

}  // namespace
}  // namespace cpsinw::faults
