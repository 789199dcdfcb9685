// Differential suite for the bridge plane kernel
// (CompiledCircuit::eval_packed_bridge_planes behind
// faults::simulate_bridges).  reference::bridge (reference_sim.hpp),
// simulate_bridge per pattern, is the oracle: every record must be
// bit-identical to it for all four behaviours, over pair shapes that take
// each branch of the feedback fixpoint (input-input pairs, output-input
// feedback, an oscillating loop, PI, PO and net-0 nets, nets without
// fan-out), pattern counts that straddle word and strip boundaries, IDDQ
// observation on/off, kFull and kFirstOnly, and the portable vs SIMD
// backends.  Bridges are listed as the universe lists them, a pair's four
// behaviours back to back, so the cone cache is exercised on every pair.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/campaign.hpp"
#include "engine/shard.hpp"
#include "engine/telemetry.hpp"
#include "faults/bridge.hpp"
#include "faults/eval_context.hpp"
#include "faults/fault_sim.hpp"
#include "logic/benchmarks.hpp"
#include "logic/compiled_circuit.hpp"
#include "logic/logic_sim.hpp"
#include "logic/simd.hpp"
#include "reference_sim.hpp"
#include "util/rng.hpp"

namespace cpsinw::faults {
namespace {

using gates::CellKind;
using logic::LogicV;
using logic::NetId;
using logic::Pattern;

std::vector<Pattern> random_patterns(const logic::Circuit& ckt,
                                     std::size_t count, std::uint64_t seed) {
  util::SplitMix64 rng(seed);
  std::vector<Pattern> out;
  for (std::size_t k = 0; k < count; ++k) {
    Pattern p(ckt.primary_inputs().size());
    for (LogicV& v : p) v = logic::from_bool(rng.chance(0.5));
    out.push_back(std::move(p));
  }
  return out;
}

constexpr BridgeBehavior kBehaviours[] = {
    BridgeBehavior::kWiredAnd, BridgeBehavior::kWiredOr,
    BridgeBehavior::kDominantA, BridgeBehavior::kDominantB};

/// A pair's four behaviours, back to back.
void add_pair(std::vector<BridgeFault>& out, NetId a, NetId b) {
  for (const BridgeBehavior beh : kBehaviours) out.push_back({a, b, beh});
}

/// y = NOT a, bridged to its own input: dominant-B oscillates.
logic::Circuit inverter_loop() {
  logic::Circuit c;
  const NetId a = c.add_primary_input("a");
  const NetId y = c.add_net("y");
  c.add_gate(CellKind::kInv, {a}, y);
  c.mark_primary_output(y);
  c.finalize();
  return c;
}

/// One net of every shape the kernel must handle.  Net 0 is a NAND2
/// output with no fan-out that is not a PO, and every later 1- and
/// 2-input cell aliases its unused pins to slot 0, which puts those cells
/// in net 0's cached cone.  `dangling` has no fan-out either; `y`, `z` and
/// `t` are POs, and `t` reads `z`.
struct Shapes {
  logic::Circuit ckt;
  NetId n0, a, b, c, d, inv, buf, x, m, y, z, t, dangling;

  Shapes() {
    n0 = ckt.add_net("n0");
    a = ckt.add_primary_input("a");
    b = ckt.add_primary_input("b");
    c = ckt.add_primary_input("c");
    d = ckt.add_primary_input("d");
    ckt.add_gate(CellKind::kNand2, {a, b}, n0);
    inv = ckt.add_net("inv");
    ckt.add_gate(CellKind::kInv, {c}, inv);
    buf = ckt.add_net("buf");
    ckt.add_gate(CellKind::kBuf, {d}, buf);
    x = ckt.add_net("x");
    ckt.add_gate(CellKind::kXor2, {a, d}, x);
    m = ckt.add_net("m");
    ckt.add_gate(CellKind::kMaj3, {a, c, d}, m);
    y = ckt.add_net("y");
    ckt.add_gate(CellKind::kNand2, {x, m}, y);
    z = ckt.add_net("z");
    ckt.add_gate(CellKind::kNor2, {inv, buf}, z);
    t = ckt.add_net("t");
    ckt.add_gate(CellKind::kXor3, {a, b, z}, t);
    dangling = ckt.add_net("dangling");
    ckt.add_gate(CellKind::kInv, {b}, dangling);
    for (const NetId po : {y, z, t}) ckt.mark_primary_output(po);
    ckt.finalize();
  }

  /// Every named shape, each pair with its four behaviours.
  [[nodiscard]] std::vector<BridgeFault> bridges() const {
    std::vector<BridgeFault> out;
    add_pair(out, x, m);          // input-input of one gate
    add_pair(out, y, x);          // output-input feedback
    add_pair(out, t, z);          // PO-PO feedback
    add_pair(out, inv, z);        // feedback through a NOR2
    add_pair(out, a, d);          // PI-PI
    add_pair(out, c, m);          // PI and its reader
    add_pair(out, y, t);          // PO-PO
    add_pair(out, n0, c);         // net 0 with a PI
    add_pair(out, y, n0);         // net 0 with a PO
    add_pair(out, dangling, n0);  // two nets without fan-out
    add_pair(out, dangling, a);   // no fan-out, with a PI feeding its driver
    return out;
  }
};

struct Case {
  std::string name;
  logic::Circuit ckt;
  std::vector<BridgeFault> bridges;
};

/// Adjacent-bridge universe of a circuit (every pair, four behaviours).
Case adjacent(std::string name, logic::Circuit ckt) {
  std::vector<BridgeFault> bridges = enumerate_adjacent_bridges(ckt);
  return {std::move(name), std::move(ckt), std::move(bridges)};
}

std::vector<Case> cases() {
  std::vector<Case> out;
  const Shapes s;
  out.push_back({"shapes", s.ckt, s.bridges()});
  {
    const logic::Circuit loop = inverter_loop();
    std::vector<BridgeFault> b;
    add_pair(b, 0, 1);
    out.push_back({"inverter_loop", loop, b});
  }
  out.push_back(adjacent("c17", logic::c17()));
  out.push_back(adjacent("full_adder", logic::full_adder()));
  out.push_back(adjacent("alu_slice", logic::alu_slice()));
  out.push_back(adjacent("alu_array_1", logic::alu_array(1)));
  out.push_back(adjacent("random_a", logic::random_circuit(3, 4, 10)));
  out.push_back(adjacent("random_b", logic::random_circuit(17, 5, 14)));
  out.push_back(adjacent("random_c", logic::random_circuit(29, 3, 12)));
  return out;
}

void expect_same(const std::vector<DetectionRecord>& got,
                 const std::vector<DetectionRecord>& want,
                 const std::vector<BridgeFault>& bridges,
                 const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const DetectionRecord& g = got[i];
    const DetectionRecord& w = want[i];
    if (g.detected_output == w.detected_output &&
        g.detected_iddq == w.detected_iddq && g.potential == w.potential &&
        g.first_pattern == w.first_pattern)
      continue;
    ADD_FAILURE() << what << " bridge " << i << " (" << bridges[i].a << ", "
                  << bridges[i].b << ", " << to_string(bridges[i].behavior)
                  << "): got out=" << g.detected_output
                  << " iddq=" << g.detected_iddq << " pot=" << g.potential
                  << " first=" << g.first_pattern
                  << ", reference out=" << w.detected_output
                  << " iddq=" << w.detected_iddq << " pot=" << w.potential
                  << " first=" << w.first_pattern;
    return;
  }
}

std::vector<DetectionRecord> reference_records(
    const EvalContext& ctx, const std::vector<BridgeFault>& bridges,
    const FaultSimOptions& opt) {
  std::vector<DetectionRecord> out;
  out.reserve(bridges.size());
  for (const BridgeFault& b : bridges)
    out.push_back(reference::bridge(ctx.circuit(), b, ctx.patterns(), opt));
  return out;
}

TEST(BridgeKernel, RecordsMatchTheReferenceAcrossTheOptionMatrix) {
  const std::size_t counts[] = {0, 1, 63, 64, 65, 130, 300};
  for (const Case& c : cases()) {
    ASSERT_FALSE(c.bridges.empty()) << c.name;
    for (const std::size_t count : counts) {
      const EvalContext ctx(c.ckt, random_patterns(c.ckt, count, 5 + count));
      ASSERT_TRUE(ctx.packed());
      for (const bool iddq : {true, false}) {
        for (const DetectionMode mode :
             {DetectionMode::kFull, DetectionMode::kFirstOnly}) {
          FaultSimOptions opt;
          opt.observe_iddq = iddq;
          opt.detection_mode = mode;
          const std::vector<DetectionRecord> want =
              reference_records(ctx, c.bridges, opt);
          for (const bool portable : {false, true}) {
            logic::simd::force_portable(portable);
            LineBatchStats stats;
            const std::vector<DetectionRecord> got =
                simulate_bridges(ctx, c.bridges, opt, &stats);
            logic::simd::force_portable(false);
            expect_same(got, want, c.bridges,
                        c.name + " patterns=" + std::to_string(count) +
                            " iddq=" + std::to_string(iddq) + " first_only=" +
                            std::to_string(mode == DetectionMode::kFirstOnly) +
                            " portable=" + std::to_string(portable));
            EXPECT_EQ(stats.bridge_serial, 0u) << c.name;
          }
        }
      }
    }
  }
}

TEST(BridgeKernel, KernelWordsMatchTheScalarFixpointOnEveryPattern) {
  // The kernel called directly over every word in one call, so strips of
  // several word groups run too (the record walks stop early): bit k of
  // word w must be simulate_bridge's PO verdict and the good machine's
  // IDDQ excitation for pattern 64w + k.
  const std::size_t count = 1100;  // 18 words: a 4-group strip, then 1
  for (const Case& c : cases()) {
    if (c.name == "alu_slice" || c.name == "alu_array_1") continue;
    const EvalContext ctx(c.ckt, random_patterns(c.ckt, count, 21));
    const logic::Simulator sim(c.ckt);
    const std::size_t n_words = ctx.word_count();
    for (const BridgeFault& br : c.bridges) {
      std::vector<std::uint64_t> want_d(n_words, 0);
      std::vector<std::uint64_t> want_c(n_words, 0);
      for (std::size_t p = 0; p < count; ++p) {
        const logic::SimResult good = sim.simulate(ctx.patterns()[p]);
        const std::vector<LogicV> bad =
            simulate_bridge(c.ckt, br, ctx.patterns()[p]);
        for (const NetId po : c.ckt.primary_outputs()) {
          const LogicV g = good.value(po);
          const LogicV b = bad[static_cast<std::size_t>(po)];
          if (logic::is_binary(b) && g != b) want_d[p / 64] |= 1ull << (p % 64);
        }
        if (good.value(br.a) != good.value(br.b))
          want_c[p / 64] |= 1ull << (p % 64);
      }
      for (const bool portable : {false, true}) {
        logic::simd::force_portable(portable);
        std::vector<std::uint64_t> detect(n_words, 0);
        std::vector<std::uint64_t> contention(n_words, 0);
        std::vector<std::uint64_t> lanes;
        std::vector<std::uint64_t> n1_lanes;
        ctx.compiled().eval_packed_bridge_planes(
            ctx.good_planes(), ctx.plane_stride(), n_words,
            checked_bridge(c.ckt, br), detect.data(), contention.data(), lanes,
            n1_lanes);
        logic::simd::force_portable(false);
        for (std::size_t w = 0; w < n_words; ++w) {
          const std::uint64_t act = ctx.active_words()[w];
          ASSERT_EQ(detect[w] & act, want_d[w])
              << c.name << " (" << br.a << ", " << br.b << ", "
              << to_string(br.behavior) << ") word " << w
              << " portable=" << portable;
          ASSERT_EQ(contention[w] & act, want_c[w])
              << c.name << " word " << w;
        }
      }
    }
  }
}

/// Scalar wired resolution of two binary driver values.
LogicV wire(BridgeBehavior beh, LogicV a, LogicV b) {
  switch (beh) {
    case BridgeBehavior::kWiredAnd:
      return logic::from_bool(a == LogicV::k1 && b == LogicV::k1);
    case BridgeBehavior::kWiredOr:
      return logic::from_bool(a == LogicV::k1 || b == LogicV::k1);
    case BridgeBehavior::kDominantA: return a;
    case BridgeBehavior::kDominantB: return b;
  }
  return LogicV::kX;
}

/// G(w) for one pattern: the circuit walked with a = b = w (their drivers
/// skipped), then the wired value of the two driver values, where a net
/// without a driver reads w.
LogicV next_wired(const logic::Circuit& ckt, const BridgeFault& br,
                  const Pattern& p, LogicV w) {
  std::vector<LogicV> v = logic::Simulator(ckt).simulate(p).net_values;
  v[static_cast<std::size_t>(br.a)] = w;
  v[static_cast<std::size_t>(br.b)] = w;
  const auto eval = [&](const logic::GateInst& g) {
    const auto in = [&](int i) {
      if (i >= g.input_count()) return LogicV::kX;
      return v[static_cast<std::size_t>(g.in[static_cast<std::size_t>(i)])];
    };
    return logic::eval_cell_x(g.kind, in(0), in(1), in(2));
  };
  for (const int gid : ckt.topo_order()) {
    const logic::GateInst& g = ckt.gate(gid);
    if (g.out != br.a && g.out != br.b)
      v[static_cast<std::size_t>(g.out)] = eval(g);
  }
  const auto driven = [&](NetId n) {
    const int d = ckt.driver_of(n);
    return d < 0 ? w : eval(ckt.gate(d));
  };
  return wire(br.behavior, driven(br.a), driven(br.b));
}

TEST(BridgeKernel, ScalarFixpointHasTheShapeTheKernelReliesOn) {
  // Per pattern the fixpoint's wired value follows w -> G(w) from
  // w0 = wire(good a, good b).  The kernel reads N_w0 wherever G is not
  // the negation and nothing where it is; check both facts against
  // simulate_bridge itself: a constant G equals w0, the negation is
  // exactly where simulate_bridge gives up (X on the bridged nets), and
  // there no PO is binary and different from good.  Also check that the
  // cases reach every kind of G, so the option matrix covers each branch:
  // constant, identity with w0 = 0 and 1, and the negation, also with an
  // undriven net.
  std::size_t constant = 0, identity0 = 0, identity1 = 0, negation = 0;
  std::size_t undriven = 0;
  for (const Case& c : cases()) {
    const logic::Simulator sim(c.ckt);
    for (const Pattern& p : random_patterns(c.ckt, 64, 1)) {
      const logic::SimResult good = sim.simulate(p);
      for (const BridgeFault& br : c.bridges) {
        const LogicV g0 = next_wired(c.ckt, br, p, LogicV::k0);
        const LogicV g1 = next_wired(c.ckt, br, p, LogicV::k1);
        const LogicV w0 =
            wire(br.behavior, good.value(br.a), good.value(br.b));
        const bool osc = g0 == LogicV::k1 && g1 == LogicV::k0;
        const std::string what = c.name + " (" + std::to_string(br.a) +
                                 ", " + std::to_string(br.b) + ", " +
                                 to_string(br.behavior) + ")";
        if (g0 == g1) {
          ++constant;
          EXPECT_EQ(g0, w0) << what;
        } else if (!osc) {
          ++(w0 == LogicV::k1 ? identity1 : identity0);
        } else {
          ++negation;
          if (c.ckt.driver_of(br.a) < 0 || c.ckt.driver_of(br.b) < 0)
            ++undriven;
        }
        const std::vector<LogicV> bad = simulate_bridge(c.ckt, br, p);
        EXPECT_EQ(bad[static_cast<std::size_t>(br.a)] == LogicV::kX, osc)
            << what;
        if (!osc) continue;
        for (const NetId po : c.ckt.primary_outputs()) {
          const LogicV b = bad[static_cast<std::size_t>(po)];
          EXPECT_TRUE(b == LogicV::kX || b == good.value(po)) << what;
        }
      }
    }
  }
  EXPECT_GT(constant, 0u);
  EXPECT_GT(identity0, 0u);
  EXPECT_GT(identity1, 0u);
  EXPECT_GT(negation, 0u);
  EXPECT_GT(undriven, 0u);

  const Shapes s;
  EXPECT_EQ(s.n0, 0);
  EXPECT_TRUE(s.ckt.fanout(s.n0).empty());
  EXPECT_TRUE(s.ckt.fanout(s.dangling).empty());
}

TEST(BridgeKernel, PaddingPatternsNeverCount) {
  // a = p and b = XNOR(p, q) agree on the all-ones pattern but not on the
  // all-zeros pattern that fills a word past the last real pattern, where
  // the wired-AND also flips the PO b.  Only real patterns may count.
  logic::Circuit ckt;
  const NetId p = ckt.add_primary_input("p");
  const NetId q = ckt.add_primary_input("q");
  const NetId x = ckt.add_net("x");
  ckt.add_gate(CellKind::kXor2, {p, q}, x);
  const NetId b = ckt.add_net("b");
  ckt.add_gate(CellKind::kInv, {x}, b);
  ckt.mark_primary_output(b);
  ckt.finalize();
  std::vector<BridgeFault> bridges;
  add_pair(bridges, p, b);
  const std::vector<Pattern> zeros(1, Pattern(2, LogicV::k0));
  const EvalContext zero_ctx(ckt, zeros);
  const std::vector<DetectionRecord> hit =
      simulate_bridges(zero_ctx, {{p, b, BridgeBehavior::kWiredAnd}}, {});
  ASSERT_TRUE(hit[0].detected_output);
  ASSERT_TRUE(hit[0].detected_iddq);
  for (const std::size_t count : {1, 63, 65, 130}) {
    const EvalContext ctx(ckt,
                          std::vector<Pattern>(count, Pattern(2, LogicV::k1)));
    for (const bool portable : {false, true}) {
      logic::simd::force_portable(portable);
      const std::vector<DetectionRecord> got =
          simulate_bridges(ctx, bridges, {});
      logic::simd::force_portable(false);
      expect_same(got, reference_records(ctx, bridges, {}), bridges,
                  "count=" + std::to_string(count));
      for (const DetectionRecord& r : got) EXPECT_EQ(r.first_pattern, -1);
    }
  }
}

TEST(BridgeKernel, FullModeWalkSeesDetectionsPastTheFirstStrip) {
  // A full-mode walk may stop only once the PO flip is seen and, when
  // observed, the IDDQ excitation too.  Pattern 0 excites IDDQ on the
  // bridged PIs p and q but the PO y = NAND(XOR(p, q), r) hides the
  // wired-AND behind r = 0; only pattern 280 (r = 1) flips y, past the
  // first strip of 256 patterns.
  logic::Circuit ckt;
  const NetId p = ckt.add_primary_input("p");
  const NetId q = ckt.add_primary_input("q");
  const NetId r = ckt.add_primary_input("r");
  const NetId x = ckt.add_net("x");
  ckt.add_gate(CellKind::kXor2, {p, q}, x);
  const NetId y = ckt.add_net("y");
  ckt.add_gate(CellKind::kNand2, {x, r}, y);
  ckt.mark_primary_output(y);
  ckt.finalize();
  std::vector<Pattern> patterns(300, Pattern(3, LogicV::k0));
  patterns[0] = {LogicV::k1, LogicV::k0, LogicV::k0};
  patterns[280] = {LogicV::k1, LogicV::k0, LogicV::k1};
  const EvalContext ctx(ckt, patterns);
  const std::vector<BridgeFault> bridges = {
      {p, q, BridgeBehavior::kWiredAnd}};
  for (const bool iddq : {true, false}) {
    FaultSimOptions opt;
    opt.observe_iddq = iddq;
    const std::vector<DetectionRecord> want =
        reference_records(ctx, bridges, opt);
    ASSERT_TRUE(want[0].detected_output);
    ASSERT_EQ(want[0].first_pattern, iddq ? 0 : 280);
    expect_same(simulate_bridges(ctx, bridges, opt), want, bridges,
                "iddq=" + std::to_string(iddq));
  }
}

TEST(BridgeKernel, BadPairsThrowBeforeAnyPlaneRead) {
  const logic::Circuit ckt = logic::c17();
  for (const std::size_t count : {0, 1}) {
    const EvalContext ctx(ckt, random_patterns(ckt, count, 3));
    for (const BridgeFault& bad :
         {BridgeFault{3, 3, BridgeBehavior::kWiredOr},
          BridgeFault{-1, 3, BridgeBehavior::kWiredAnd},
          BridgeFault{3, -7, BridgeBehavior::kDominantA},
          BridgeFault{3, ckt.net_count(), BridgeBehavior::kDominantB}}) {
      // A good bridge ahead of the bad one must not hide it.
      const std::vector<BridgeFault> list = {
          {1, 2, BridgeBehavior::kWiredAnd}, bad};
      EXPECT_THROW((void)simulate_bridges(ctx, list, {}),
                   std::invalid_argument)
          << "count=" << count << " (" << bad.a << ", " << bad.b << ")";
      EXPECT_THROW((void)checked_bridge(ckt, bad), std::invalid_argument);
    }
  }
}

TEST(BridgeKernel, XBearingPatternsTakeTheSerialLoop) {
  const logic::Circuit ckt = logic::alu_slice();
  std::vector<Pattern> patterns = random_patterns(ckt, 70, 8);
  patterns[2][1] = LogicV::kX;
  const EvalContext ctx(ckt, patterns);
  ASSERT_FALSE(ctx.packed());
  const std::vector<BridgeFault> bridges = enumerate_adjacent_bridges(ckt);
  for (const DetectionMode mode :
       {DetectionMode::kFull, DetectionMode::kFirstOnly}) {
    FaultSimOptions opt;
    opt.detection_mode = mode;
    LineBatchStats stats;
    expect_same(simulate_bridges(ctx, bridges, opt, &stats),
                reference_records(ctx, bridges, opt), bridges,
                "X-bearing first_only=" +
                    std::to_string(mode == DetectionMode::kFirstOnly));
    EXPECT_EQ(stats.bridge_serial, bridges.size());
  }
}

TEST(BridgeKernel, RunShardExportsTheSerialBridgeCounter) {
  const logic::Circuit ckt = logic::c17();
  engine::FaultModelSelection models;
  models.line_stuck_at = false;
  models.polarity = false;
  models.stuck_open = false;
  models.stuck_on = false;
  models.bridge = true;
  const std::vector<engine::CampaignFault> universe =
      engine::build_universe(ckt, models, /*observe_iddq=*/true);
  ASSERT_FALSE(universe.empty());
  engine::Shard shard;
  shard.end = universe.size();

  engine::telemetry::Registry& reg = engine::telemetry::Registry::global();
  const auto serial_bridges = [&](const std::vector<Pattern>& patterns) {
    const std::uint64_t before =
        reg.counter("engine.faults_bridge_serial").value();
    const EvalContext ctx(ckt, patterns);
    (void)engine::run_shard(ctx, universe, shard, {});
    return reg.counter("engine.faults_bridge_serial").value() - before;
  };
  EXPECT_EQ(serial_bridges(random_patterns(ckt, 40, 9)), 0u);
  std::vector<Pattern> with_x = random_patterns(ckt, 40, 9);
  with_x[5][2] = LogicV::kX;
  EXPECT_EQ(serial_bridges(with_x), universe.size());
}

}  // namespace
}  // namespace cpsinw::faults
