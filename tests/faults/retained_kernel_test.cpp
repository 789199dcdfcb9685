// Differential suite for the retained-state transistor faults on packed
// contexts: FaultSimulator folds each dictionary's output word by word
// (retained charge threaded across words) against the faulted output's
// binary and X observability rows, whose stem walks run the dual-rail
// cells of packed_kernels.hpp.  The seed's serial walk (reference_sim.hpp)
// is the oracle: every record must be bit-identical to it across pattern
// counts that straddle word boundaries, sequential on/off, IDDQ
// observation on/off, kFull and kFirstOnly, and the portable vs SIMD
// backends.  Binary and retained faults of a gate interleave in
// fault-list order, so both row kinds of one net are asked for in turn.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/campaign.hpp"
#include "engine/shard.hpp"
#include "engine/telemetry.hpp"
#include "faults/eval_context.hpp"
#include "faults/fault_sim.hpp"
#include "gates/fault_dictionary.hpp"
#include "logic/benchmarks.hpp"
#include "logic/compiled_circuit.hpp"
#include "logic/logic_sim.hpp"
#include "logic/packed_kernels.hpp"
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

/// Every transistor fault of every gate, uncollapsed, in fault-list order
/// (per transistor: open, on, N, P), so binary and retained dictionaries
/// of one gate interleave.
std::vector<Fault> transistor_faults(const logic::Circuit& ckt) {
  std::vector<Fault> out;
  for (const logic::GateInst& g : ckt.gates())
    for (const gates::CellFault& cf :
         gates::enumerate_transistor_faults(g.kind))
      out.push_back(Fault::transistor(g.id, cf.transistor, cf.kind));
  return out;
}

/// Net 0 is the output of gate 0 (a NAND2 whose stuck-opens float) and a
/// stem read by a NAND2 and a NOR2, so an X on it takes an X walk, and
/// that X reaches a PO only where b = 1 or d = 0.  The 1- and 2-input
/// cells after gate 0 in topological order alias their unused pins to
/// slot 0, which puts every one of them in net 0's cone with those pins
/// reading net 0's X lane: a walk that evaluated past a cell's arity would
/// leak X to the POs, where the serial walk sees none.
logic::Circuit slot_zero_trap() {
  logic::Circuit c;
  const NetId n0 = c.add_net("n0");
  const NetId a = c.add_primary_input("a");
  const NetId b = c.add_primary_input("b");
  const NetId d = c.add_primary_input("d");
  c.add_gate(CellKind::kNand2, {a, b}, n0);
  const NetId inv = c.add_net("inv");
  c.add_gate(CellKind::kInv, {d}, inv);
  const NetId buf = c.add_net("buf");
  c.add_gate(CellKind::kBuf, {d}, buf);
  const NetId nor = c.add_net("nor");
  c.add_gate(CellKind::kNor2, {a, d}, nor);
  const NetId x = c.add_net("x");
  c.add_gate(CellKind::kXor2, {a, d}, x);
  const NetId y0 = c.add_net("y0");
  c.add_gate(CellKind::kNand2, {n0, b}, y0);
  const NetId y1 = c.add_net("y1");
  c.add_gate(CellKind::kNor2, {d, n0}, y1);
  for (const NetId po : {inv, buf, nor, x, y0, y1}) c.mark_primary_output(po);
  c.finalize();
  return c;
}

struct Named {
  std::string name;
  logic::Circuit ckt;
};

std::vector<Named> roster() {
  std::vector<Named> out;
  out.push_back({"random_a", logic::random_circuit(3, 4, 10)});
  out.push_back({"random_b", logic::random_circuit(17, 5, 14)});
  out.push_back({"random_c", logic::random_circuit(29, 3, 12)});
  out.push_back({"alu_array_1", logic::alu_array(1)});
  out.push_back({"ripple_adder_2", logic::ripple_adder(2)});
  out.push_back({"c17", logic::c17()});
  out.push_back({"slot_zero_trap", slot_zero_trap()});
  return out;
}

void expect_same(const std::vector<DetectionRecord>& got,
                 const std::vector<DetectionRecord>& want,
                 const std::vector<Fault>& faults, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const DetectionRecord& g = got[i];
    const DetectionRecord& w = want[i];
    if (g.detected_output == w.detected_output &&
        g.detected_iddq == w.detected_iddq && g.potential == w.potential &&
        g.first_pattern == w.first_pattern)
      continue;
    ADD_FAILURE() << what << " fault " << i << " (gate " << faults[i].gate
                  << " t" << faults[i].cell_fault.transistor << " kind "
                  << static_cast<int>(faults[i].cell_fault.kind)
                  << "): got out=" << g.detected_output
                  << " iddq=" << g.detected_iddq << " pot=" << g.potential
                  << " first=" << g.first_pattern
                  << ", reference out=" << w.detected_output
                  << " iddq=" << w.detected_iddq << " pot=" << w.potential
                  << " first=" << w.first_pattern;
    return;
  }
}

// (a) ------------------------------------------------------------------------

TEST(RetainedKernel, DualRailCellsAreXExactAgainstEvalCellX) {
  using V = logic::kernels::U64x4;
  const LogicV decode[3] = {LogicV::k0, LogicV::k1, LogicV::kX};
  for (const CellKind kind : gates::all_cell_kinds()) {
    const int n = gates::input_count(kind);
    const int combos = static_cast<int>(std::pow(3, n));
    // Bit k encodes one {0,1,X} assignment of the cell's pins (base-3
    // digits).  Pins past the arity hold X in every bit: an aliased slot 0
    // carrying X must not leak into the result.
    std::uint64_t val[3] = {0, 0, 0};
    std::uint64_t unk[3] = {~0ull, ~0ull, ~0ull};
    for (int i = 0; i < n; ++i) unk[i] = 0;
    for (int k = 0; k < combos; ++k) {
      int rest = k;
      for (int i = 0; i < n; ++i, rest /= 3) {
        if (rest % 3 == 1) val[i] |= 1ull << k;
        if (rest % 3 == 2) unk[i] |= 1ull << k;
      }
    }
    V v = V::splat(0);
    V x = V::splat(0);
    logic::kernels::eval_cell_dual(kind, V::splat(val[0]), V::splat(unk[0]),
                                   V::splat(val[1]), V::splat(unk[1]),
                                   V::splat(val[2]), V::splat(unk[2]), v, x);
    for (std::size_t lane = 0; lane < 4; ++lane) {
      EXPECT_EQ(v.w[lane] & x.w[lane], 0u)
          << "non-canonical output, kind " << static_cast<int>(kind);
      for (int k = 0; k < combos; ++k) {
        LogicV pin[3] = {LogicV::kX, LogicV::kX, LogicV::kX};
        int rest = k;
        for (int i = 0; i < n; ++i, rest /= 3) pin[i] = decode[rest % 3];
        const LogicV want = logic::eval_cell_x(kind, pin[0], pin[1], pin[2]);
        const LogicV got = ((x.w[lane] >> k) & 1u) != 0 ? LogicV::kX
                           : ((v.w[lane] >> k) & 1u) != 0 ? LogicV::k1
                                                              : LogicV::k0;
        EXPECT_EQ(got, want) << "kind " << static_cast<int>(kind)
                             << " assignment " << k;
      }
    }
  }
}

TEST(RetainedKernel, SlotZeroTrapPutsAliasedPinsInTheFaultedCone) {
  // Preconditions that make slot_zero_trap() a real trap: net 0 is driven
  // by gate 0 and is a stem, every later cell aliases an unused pin to
  // slot 0, four of them read net 0 on no real pin, and gate 0 has
  // retained faults (floating rows put X on net 0).
  const logic::Circuit ckt = slot_zero_trap();
  ASSERT_EQ(ckt.driver_of(0), 0);
  ASSERT_EQ(ckt.fanout(0).size(), 2u);
  for (const NetId po : ckt.primary_outputs()) ASSERT_NE(po, 0);
  const logic::CompiledCircuit cc(ckt);
  ASSERT_EQ(cc.position_of(0), 0u);
  int aliased_only = 0;
  for (std::size_t k = 1; k < cc.gates().size(); ++k) {
    const logic::CompiledCircuit::GateRec& g = cc.gates()[k];
    EXPECT_LT(g.n_in, 3);
    EXPECT_EQ(g.in[2], 0);
    bool reads_net0 = false;
    for (unsigned i = 0; i < g.n_in; ++i)
      reads_net0 = reads_net0 || g.in[i] == 0;
    aliased_only += reads_net0 ? 0 : 1;
  }
  EXPECT_EQ(aliased_only, 4);
  const EvalContext ctx(ckt, random_patterns(ckt, 70, 5));
  std::vector<Fault> retained;
  for (const Fault& f : transistor_faults(ckt))
    if (f.gate == 0 &&
        !ctx.dictionary(CellKind::kNand2, f.cell_fault).compiled_binary)
      retained.push_back(f);
  ASSERT_FALSE(retained.empty());

  // The retained faults put X on net 0, so its X row is walked, once, and
  // holds exactly the patterns with b = 1 or d = 0.
  const FaultSimOptions opt;
  expect_same(FaultSimulator(ckt).run_range(ctx, retained, 0,
                                            retained.size(), opt),
              reference::records(ctx, retained, opt), retained, "gate 0");
  EXPECT_EQ(ctx.x_walks(), 1u);
  std::vector<std::uint64_t> lanes;
  const std::uint64_t* xrow = ctx.xobs_row(0, lanes);
  for (std::size_t k = 0; k < ctx.pattern_count(); ++k) {
    const Pattern& p = ctx.patterns()[k];
    const bool want = p[1] == LogicV::k1 || p[2] == LogicV::k0;
    EXPECT_EQ(((xrow[k / 64] >> (k % 64)) & 1u) != 0, want)
        << "pattern " << k;
  }
}

// (b) ------------------------------------------------------------------------

TEST(RetainedKernel, RecordsMatchTheSerialReferenceAcrossTheOptionMatrix) {
  const std::size_t counts[] = {0, 1, 2, 63, 64, 65, 130, 300};
  for (const Named& c : roster()) {
    const std::vector<Fault> faults = transistor_faults(c.ckt);
    const FaultSimulator fsim(c.ckt);
    std::size_t retained = 0;
    for (const std::size_t count : counts) {
      const EvalContext ctx(c.ckt, random_patterns(c.ckt, count, 11 + count));
      for (const bool sequential : {true, false}) {
        for (const bool iddq : {true, false}) {
          for (const DetectionMode mode :
               {DetectionMode::kFull, DetectionMode::kFirstOnly}) {
            FaultSimOptions opt;
            opt.sequential_patterns = sequential;
            opt.observe_iddq = iddq;
            opt.detection_mode = mode;
            const std::vector<DetectionRecord> want =
                reference::records(ctx, faults, opt);
            for (const bool portable : {false, true}) {
              logic::simd::force_portable(portable);
              LineBatchStats stats;
              const std::vector<DetectionRecord> got =
                  fsim.run_range(ctx, faults, 0, faults.size(), opt, &stats);
              logic::simd::force_portable(false);
              expect_same(got, want, faults,
                          c.name + " patterns=" + std::to_string(count) +
                              " seq=" + std::to_string(sequential) +
                              " iddq=" + std::to_string(iddq) +
                              " first_only=" +
                              std::to_string(mode ==
                                             DetectionMode::kFirstOnly) +
                              " portable=" + std::to_string(portable));
              EXPECT_EQ(stats.transistor_serial, 0u) << c.name;
              EXPECT_EQ(stats.transistor_binary + stats.transistor_retained,
                        faults.size());
              retained = stats.transistor_retained;
            }
          }
        }
      }
    }
    EXPECT_GT(retained, 0u) << c.name << " exercises no retained fault";
  }
}

TEST(RetainedKernel, DroppingWaitsForAPotentialDetectionPastTheFirstStrip) {
  // A full-mode walk may stop only once potential is settled too.  A
  // marginal-row fault without floating rows has every other observable
  // settled from the start (IDDQ unobserved here), yet its only X reaches
  // the PO at pattern 280 — in the fifth word, past the first SIMD group.
  const gates::FaultAnalysis* pick = nullptr;
  for (const CellKind kind : gates::all_cell_kinds())
    for (const gates::CellFault& cf :
         gates::enumerate_transistor_faults(kind)) {
      const gates::FaultAnalysis& fa = gates::dictionary(kind, cf);
      if (pick == nullptr && fa.marginal_detectable && !fa.needs_sequence)
        pick = &fa;
    }
  ASSERT_NE(pick, nullptr);
  unsigned marginal = 0;
  unsigned other = 0;
  for (const gates::FaultRow& row : pick->rows) {
    if (gates::classify_row(row) == gates::RowEffect::kMarginal)
      marginal = row.input;
    else
      other = row.input;
  }

  logic::Circuit ckt;
  std::vector<NetId> pins;
  const char* const pin_names[] = {"i0", "i1", "i2"};
  for (int i = 0; i < gates::input_count(pick->kind); ++i)
    pins.push_back(ckt.add_primary_input(pin_names[i]));
  const NetId y = ckt.add_net("y");
  ckt.add_gate(pick->kind, pins, y);
  ckt.mark_primary_output(y);
  ckt.finalize();
  const auto pattern = [&](unsigned v) {
    Pattern p;
    for (std::size_t i = 0; i < pins.size(); ++i)
      p.push_back(logic::from_bool(((v >> i) & 1u) != 0));
    return p;
  };
  std::vector<Pattern> patterns(300, pattern(other));
  patterns[280] = pattern(marginal);
  const EvalContext ctx(ckt, patterns);
  const std::vector<Fault> f = {
      Fault::transistor(0, pick->fault.transistor, pick->fault.kind)};

  const FaultSimulator fsim(ckt);
  FaultSimOptions opt;
  opt.observe_iddq = false;
  const std::vector<DetectionRecord> want = reference::records(ctx, f, opt);
  ASSERT_TRUE(want[0].potential);
  expect_same(fsim.run_range(ctx, f, 0, 1, opt), want, f, "late X");
}

TEST(RetainedKernel, RandomRosterCoversXor3AndMaj3Cells) {
  bool xor3 = false;
  bool maj3 = false;
  for (const Named& c : roster())
    for (const logic::GateInst& g : c.ckt.gates()) {
      xor3 = xor3 || g.kind == CellKind::kXor3;
      maj3 = maj3 || g.kind == CellKind::kMaj3;
    }
  EXPECT_TRUE(xor3);
  EXPECT_TRUE(maj3);
}

// (c) ------------------------------------------------------------------------

TEST(RetainedKernel, PathCountersSeeNoSerialFallbackOnPackedContexts) {
  const logic::Circuit ckt = logic::alu_array(1);
  const std::vector<Fault> faults = transistor_faults(ckt);
  const FaultSimulator fsim(ckt);

  const EvalContext packed(ckt, random_patterns(ckt, 65, 3));
  ASSERT_TRUE(packed.packed());
  LineBatchStats on_packed;
  (void)fsim.run_range(packed, faults, 0, faults.size(), {}, &on_packed);
  EXPECT_EQ(on_packed.transistor_serial, 0u);
  EXPECT_GT(on_packed.transistor_binary, 0u);
  EXPECT_GT(on_packed.transistor_retained, 0u);
  EXPECT_EQ(on_packed.transistor_binary + on_packed.transistor_retained,
            faults.size());

  std::vector<Pattern> with_x = random_patterns(ckt, 65, 3);
  with_x[7][0] = LogicV::kX;
  const EvalContext x_ctx(ckt, with_x);
  ASSERT_FALSE(x_ctx.packed());
  LineBatchStats on_x;
  (void)fsim.run_range(x_ctx, faults, 0, faults.size(), {}, &on_x);
  EXPECT_EQ(on_x.transistor_serial, faults.size());
  EXPECT_EQ(on_x.transistor_binary + on_x.transistor_retained, 0u);
}

TEST(RetainedKernel, RunShardExportsThePathCounters) {
  const logic::Circuit ckt = logic::c17();
  // Transistor classes only: an X-bearing pattern set rejects line faults.
  engine::FaultModelSelection models;
  models.line_stuck_at = false;
  const std::vector<engine::CampaignFault> universe =
      engine::build_universe(ckt, models, /*observe_iddq=*/true);
  engine::Shard shard;
  shard.end = universe.size();
  const std::size_t transistor = universe.size();
  ASSERT_GT(transistor, 0u);

  engine::telemetry::Registry& reg = engine::telemetry::Registry::global();
  const auto count = [&](const char* name) {
    return reg.counter(name).value();
  };
  const auto run = [&](const std::vector<Pattern>& patterns) {
    const std::uint64_t s0 = count("engine.faults_transistor_serial");
    const std::uint64_t b0 = count("engine.faults_transistor_binary");
    const std::uint64_t r0 = count("engine.faults_transistor_retained");
    const EvalContext ctx(ckt, patterns);
    (void)engine::run_shard(ctx, universe, shard, {});
    return std::array<std::uint64_t, 3>{
        count("engine.faults_transistor_binary") - b0,
        count("engine.faults_transistor_retained") - r0,
        count("engine.faults_transistor_serial") - s0};
  };
  const std::array<std::uint64_t, 3> packed = run(random_patterns(ckt, 40, 9));
  EXPECT_EQ(packed[2], 0u);
  EXPECT_EQ(packed[0] + packed[1], transistor);
  EXPECT_GT(packed[1], 0u);

  // X-bearing patterns: every transistor fault takes the serial walk.
  std::vector<Pattern> with_x = random_patterns(ckt, 40, 9);
  with_x[3][1] = LogicV::kX;
  const std::array<std::uint64_t, 3> x_bearing = run(with_x);
  EXPECT_EQ(x_bearing[2], transistor);
  EXPECT_EQ(x_bearing[0] + x_bearing[1], 0u);
}

// (d) ------------------------------------------------------------------------

TEST(RetainedKernel, FiveClassCampaignThreadIdenticalAndShardsMatchOracles) {
  engine::CampaignSpec spec;
  spec.jobs.push_back({"alu_array_1", logic::alu_array(1)});
  spec.jobs.push_back({"c17", logic::c17()});
  spec.models.bridge = true;
  spec.patterns.kind = engine::PatternSourceSpec::Kind::kRandom;
  spec.patterns.random_count = 130;
  spec.shard_size = 24;
  spec.threads = 1;
  const std::string reference = engine::run_campaign(spec).to_json();
  for (const int threads : {2, 8}) {
    spec.threads = threads;
    EXPECT_EQ(engine::run_campaign(spec).to_json(), reference)
        << threads << " threads";
  }

  // The oracles at shard level: what every campaign shard executes, record
  // by record, over the same five-class universes.  A shard boundary may
  // split a bridge pair's four behaviours.
  for (const engine::CircuitJobSpec& job : spec.jobs) {
    const std::vector<engine::CampaignFault> universe =
        engine::build_universe(job.circuit, spec.models,
                               spec.sim.observe_iddq);
    const EvalContext ctx(job.circuit, random_patterns(job.circuit, 130, 41));
    const std::vector<engine::Shard> shards = engine::make_shards(
        0, universe.size(), spec.shard_size, util::SplitMix64(spec.seed));
    for (const engine::Shard& shard : shards) {
      const engine::ShardResult sr =
          engine::run_shard(ctx, universe, shard, {});
      for (std::size_t i = shard.begin; i < shard.end; ++i) {
        const engine::CampaignFault& cf = universe[i];
        const DetectionRecord want =
            cf.cls == engine::FaultClass::kBridge
                ? reference::bridge(job.circuit, cf.bridge, ctx.patterns(),
                                    spec.sim)
                : reference::record(ctx, cf.fault, spec.sim);
        expect_same({sr.results[i - shard.begin].record}, {want},
                    {universe[i].fault}, job.name + " fault " +
                                             std::to_string(i));
      }
    }
  }
}

}  // namespace
}  // namespace cpsinw::faults
