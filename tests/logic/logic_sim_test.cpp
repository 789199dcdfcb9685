#include "logic/logic_sim.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "faults/eval_context.hpp"
#include "logic/benchmarks.hpp"

namespace cpsinw::logic {
namespace {

using gates::CellKind;

Pattern bits_to_pattern(unsigned bits, int n) {
  Pattern p(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    p[static_cast<std::size_t>(i)] = from_bool((bits >> i) & 1u);
  return p;
}

TEST(Simulator, FullAdderTruthTableExhaustive) {
  const Circuit ckt = full_adder();
  const Simulator sim(ckt);
  for (unsigned v = 0; v < 8; ++v) {
    const SimResult r = sim.simulate(bits_to_pattern(v, 3));
    const unsigned a = v & 1u, b = (v >> 1) & 1u, cin = (v >> 2) & 1u;
    const unsigned total = a + b + cin;
    EXPECT_EQ(r.value(ckt.find_net("sum")), from_bool(total & 1u))
        << "v=" << v;
    EXPECT_EQ(r.value(ckt.find_net("cout")), from_bool(total >= 2))
        << "v=" << v;
  }
}

TEST(Simulator, RippleAdderAddsExhaustively) {
  const int bits = 3;
  const Circuit ckt = ripple_adder(bits);
  const Simulator sim(ckt);
  for (unsigned a = 0; a < 8u; ++a) {
    for (unsigned b = 0; b < 8u; ++b) {
      for (unsigned cin = 0; cin < 2u; ++cin) {
        Pattern p;
        for (int i = 0; i < bits; ++i) p.push_back(from_bool((a >> i) & 1u));
        for (int i = 0; i < bits; ++i) p.push_back(from_bool((b >> i) & 1u));
        p.push_back(from_bool(cin));
        const SimResult r = sim.simulate(p);
        const unsigned expected = a + b + cin;
        unsigned got = 0;
        for (int i = 0; i < bits; ++i)
          if (r.value(ckt.find_net("s" + std::to_string(i))) == LogicV::k1)
            got |= 1u << i;
        if (r.value(ckt.find_net("c" + std::to_string(bits - 1))) ==
            LogicV::k1)
          got |= 1u << bits;
        EXPECT_EQ(got, expected) << "a=" << a << " b=" << b << " c=" << cin;
      }
    }
  }
}

TEST(Simulator, MultiplierMultipliesExhaustively) {
  const Circuit ckt = multiplier_2x2();
  const Simulator sim(ckt);
  for (unsigned a = 0; a < 4u; ++a) {
    for (unsigned b = 0; b < 4u; ++b) {
      Pattern p = {from_bool(a & 1u), from_bool((a >> 1) & 1u),
                   from_bool(b & 1u), from_bool((b >> 1) & 1u)};
      const SimResult r = sim.simulate(p);
      unsigned got = 0;
      if (r.value(ckt.find_net("p00")) == LogicV::k1) got |= 1u;
      if (r.value(ckt.find_net("m1")) == LogicV::k1) got |= 2u;
      if (r.value(ckt.find_net("m2")) == LogicV::k1) got |= 4u;
      if (r.value(ckt.find_net("ha2_and")) == LogicV::k1) got |= 8u;
      EXPECT_EQ(got, a * b) << "a=" << a << " b=" << b;
    }
  }
}

TEST(Simulator, AluSliceSelectsOperations) {
  const Circuit ckt = alu_slice();
  const Simulator sim(ckt);
  // PI order: a, b, cin, s0, s1.
  const auto run = [&](unsigned a, unsigned b, unsigned cin, unsigned s0,
                       unsigned s1) {
    const SimResult r = sim.simulate({from_bool(a), from_bool(b),
                                      from_bool(cin), from_bool(s0),
                                      from_bool(s1)});
    return r.value(ckt.find_net("out"));
  };
  for (unsigned a = 0; a < 2; ++a) {
    for (unsigned b = 0; b < 2; ++b) {
      EXPECT_EQ(run(a, b, 0, 0, 0), from_bool(a & b));
      EXPECT_EQ(run(a, b, 0, 1, 0), from_bool(a | b));
      EXPECT_EQ(run(a, b, 0, 0, 1), from_bool(a ^ b));
      for (unsigned cin = 0; cin < 2; ++cin)
        EXPECT_EQ(run(a, b, cin, 1, 1), from_bool((a + b + cin) & 1u));
    }
  }
}

TEST(Simulator, XPropagatesConservativelyButPrecisely) {
  Circuit c;
  const NetId a = c.add_primary_input("a");
  const NetId b = c.add_primary_input("b");
  const NetId y = c.add_net("y");
  c.add_gate(CellKind::kNand2, {a, b}, y);
  c.mark_primary_output(y);
  c.finalize();
  const Simulator sim(c);
  // NAND(0, X) = 1 — definite despite the X.
  EXPECT_EQ(sim.simulate({LogicV::k0, LogicV::kX}).value(y), LogicV::k1);
  // NAND(1, X) = X.
  EXPECT_EQ(sim.simulate({LogicV::k1, LogicV::kX}).value(y), LogicV::kX);
}

TEST(Simulator, FaultySimulationUsesDictionary) {
  // XOR2 with t3 stuck-at-n-type: output flips at the excitation vector
  // and the IDDQ flag raises.
  Circuit c;
  const NetId a = c.add_primary_input("a");
  const NetId b = c.add_primary_input("b");
  const NetId y = c.add_net("y");
  const int g = c.add_gate(CellKind::kXor2, {a, b}, y);
  c.mark_primary_output(y);
  c.finalize();
  const Simulator sim(c);
  const GateFault fault{g, {2, gates::TransistorFault::kStuckAtNType}};

  bool flipped = false;
  bool iddq = false;
  for (unsigned v = 0; v < 4; ++v) {
    const SimResult good = sim.simulate(bits_to_pattern(v, 2));
    const SimResult bad = sim.simulate_faulty(bits_to_pattern(v, 2), fault);
    if (bad.iddq_flag) iddq = true;
    if (is_binary(bad.value(y)) && bad.value(y) != good.value(y))
      flipped = true;
  }
  EXPECT_TRUE(flipped);
  EXPECT_TRUE(iddq);

  // Transistor indices outside the cell are rejected, not simulated as
  // the fault-free cell (-1) or passed to the dictionary builder (99).
  for (const int bad : {-1, 99})
    EXPECT_THROW((void)sim.simulate_faulty(
                     bits_to_pattern(0, 2),
                     {g, {bad, gates::TransistorFault::kStuckOn}}),
                 std::invalid_argument);
}

TEST(Simulator, StuckOpenRetainsPreviousValue) {
  // INV with t1 (pull-up) open: pattern 1 -> out=0; then input 0 floats
  // the output, which retains 0 (the two-pattern observable).
  Circuit c;
  const NetId a = c.add_primary_input("a");
  const NetId y = c.add_net("y");
  const int g = c.add_gate(CellKind::kInv, {a}, y);
  c.mark_primary_output(y);
  c.finalize();
  const Simulator sim(c);
  const GateFault fault{g, {0, gates::TransistorFault::kStuckOpen}};

  const SimResult first = sim.simulate_faulty({LogicV::k1}, fault);
  EXPECT_EQ(first.value(y), LogicV::k0);
  const SimResult second =
      sim.simulate_faulty({LogicV::k0}, fault, &first.net_values);
  EXPECT_EQ(second.value(y), LogicV::k0);  // wrong: good machine gives 1
  // Without history the retained value is unknown.
  const SimResult blind = sim.simulate_faulty({LogicV::k0}, fault);
  EXPECT_EQ(blind.value(y), LogicV::kX);
}

TEST(PackedSim, MatchesScalarSimulatorOnC17) {
  const Circuit ckt = c17();
  const Simulator sim(ckt);
  std::vector<Pattern> patterns;
  for (unsigned v = 0; v < 32; ++v) patterns.push_back(bits_to_pattern(v, 5));
  const faults::EvalContext ctx(ckt, patterns);
  ASSERT_TRUE(ctx.packed());
  for (unsigned v = 0; v < 32; ++v) {
    const SimResult r = sim.simulate(patterns[v]);
    for (const NetId po : ckt.primary_outputs())
      EXPECT_EQ(ctx.good_value(v, po), r.value(po)) << "v=" << v;
  }
}

TEST(EvalCellX, PrecisionOnAllCells) {
  EXPECT_EQ(eval_cell_x(CellKind::kNor2, LogicV::k1, LogicV::kX),
            LogicV::k0);
  EXPECT_EQ(eval_cell_x(CellKind::kMaj3, LogicV::k1, LogicV::k1, LogicV::kX),
            LogicV::k1);
  EXPECT_EQ(eval_cell_x(CellKind::kMaj3, LogicV::k1, LogicV::k0, LogicV::kX),
            LogicV::kX);
  EXPECT_EQ(eval_cell_x(CellKind::kXor3, LogicV::k1, LogicV::k1, LogicV::kX),
            LogicV::kX);
  EXPECT_EQ(eval_cell_x(CellKind::kInv, LogicV::kX), LogicV::kX);
}

}  // namespace
}  // namespace cpsinw::logic
