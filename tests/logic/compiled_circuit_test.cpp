// Golden-equivalence suite for the compiled circuit core: every kernel of
// logic::CompiledCircuit — scalar good/faulty, the good planes, the line,
// transistor and bridge plane kernels behind FaultSimulator — must be
// bit-identical to the seed's interpreted evaluators, re-implemented here
// and in reference_logic.hpp verbatim as the frozen reference (the library
// itself no longer carries the interpreted walk, so the reference lives
// with the tests).
#include "logic/compiled_circuit.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "atpg/transition.hpp"
#include "engine/shard.hpp"
#include "faults/bridge.hpp"
#include "faults/eval_context.hpp"
#include "faults/fault_list.hpp"
#include "faults/fault_sim.hpp"
#include "gates/fault_dictionary.hpp"
#include "logic/benchmarks.hpp"
#include "logic/logic_sim.hpp"
#include "util/rng.hpp"
#include "../faults/reference_sim.hpp"
#include "reference_logic.hpp"

namespace cpsinw::logic {
namespace {

using faults::DetectionRecord;
using faults::Fault;
using faults::FaultSimOptions;
using faults::FaultSite;

// ---------------------------------------------------------------------------
// Interpreted reference: the seed algorithms, frozen.  These walk GateInst
// records through Circuit::topo_order() and re-consult dictionaries per
// gate, exactly like the pre-compiled-core library did.
namespace interp {

LogicV eval_gate(const Circuit& ckt, const GateInst& g,
                 const std::vector<LogicV>& values) {
  const auto bits = reference::local_input(g, values);
  if (!bits) {
    const auto in_at = [&](int i) {
      return g.in[static_cast<std::size_t>(i)] >= 0
                 ? values[static_cast<std::size_t>(
                       g.in[static_cast<std::size_t>(i)])]
                 : LogicV::kX;
    };
    return eval_cell_x(g.kind, in_at(0), in_at(1), in_at(2));
  }
  (void)ckt;
  return from_bool(gates::good_output(g.kind, *bits) != 0);
}

std::vector<LogicV> seed_values(const Circuit& ckt, const Pattern& pattern) {
  std::vector<LogicV> values(static_cast<std::size_t>(ckt.net_count()),
                             LogicV::kX);
  for (NetId n = 0; n < ckt.net_count(); ++n) {
    const LogicV c = ckt.constant_of(n);
    if (is_binary(c)) values[static_cast<std::size_t>(n)] = c;
  }
  for (std::size_t i = 0; i < pattern.size(); ++i)
    values[static_cast<std::size_t>(ckt.primary_inputs()[i])] = pattern[i];
  return values;
}

SimResult simulate(const Circuit& ckt, const Pattern& pattern) {
  SimResult r;
  r.net_values = seed_values(ckt, pattern);
  for (const int gid : ckt.topo_order()) {
    const GateInst& g = ckt.gate(gid);
    r.net_values[static_cast<std::size_t>(g.out)] =
        eval_gate(ckt, g, r.net_values);
  }
  return r;
}

SimResult simulate_faulty(const Circuit& ckt, const Pattern& pattern,
                          int fault_gate, const gates::FaultAnalysis& fa,
                          const std::vector<LogicV>* previous_state) {
  SimResult r;
  r.net_values = seed_values(ckt, pattern);
  for (const int gid : ckt.topo_order()) {
    const GateInst& g = ckt.gate(gid);
    if (gid != fault_gate) {
      r.net_values[static_cast<std::size_t>(g.out)] =
          eval_gate(ckt, g, r.net_values);
      continue;
    }
    const auto bits = reference::local_input(g, r.net_values);
    if (!bits) {
      r.net_values[static_cast<std::size_t>(g.out)] = LogicV::kX;
      continue;
    }
    const gates::FaultRow& row = fa.rows[*bits];
    if (row.faulty.contention) r.iddq_flag = true;
    const int fv = row.faulty.floating
                       ? -2
                       : gates::logic_value(row.faulty.out);
    LogicV out = LogicV::kX;
    if (fv == 0) {
      out = LogicV::k0;
    } else if (fv == 1) {
      out = LogicV::k1;
    } else if (fv == -2) {
      out = previous_state != nullptr
                ? (*previous_state)[static_cast<std::size_t>(g.out)]
                : LogicV::kX;
      if (out == LogicV::kZ) out = LogicV::kX;
    }
    r.net_values[static_cast<std::size_t>(g.out)] = out;
  }
  return r;
}

DetectionRecord transistor_serial(const Circuit& ckt, const Fault& fault,
                                  const std::vector<Pattern>& patterns,
                                  const FaultSimOptions& options) {
  const gates::FaultAnalysis fa =
      gates::analyze_fault(ckt.gate(fault.gate).kind, fault.cell_fault);
  DetectionRecord rec;
  std::vector<LogicV> state;
  for (std::size_t pi = 0; pi < patterns.size(); ++pi) {
    const SimResult good = simulate(ckt, patterns[pi]);
    const SimResult bad = simulate_faulty(
        ckt, patterns[pi], fault.gate, fa,
        options.sequential_patterns && !state.empty() ? &state : nullptr);
    if (options.sequential_patterns) state = bad.net_values;

    bool hit = false;
    if (bad.iddq_flag && options.observe_iddq) {
      rec.detected_iddq = true;
      hit = true;
    }
    for (const NetId po : ckt.primary_outputs()) {
      const LogicV g = good.net_values[static_cast<std::size_t>(po)];
      const LogicV b = bad.net_values[static_cast<std::size_t>(po)];
      if (is_binary(g) && is_binary(b) && g != b) {
        rec.detected_output = true;
        hit = true;
      } else if (is_binary(g) && !is_binary(b)) {
        rec.potential = true;
      }
    }
    if (hit && rec.first_pattern < 0) rec.first_pattern = static_cast<int>(pi);
  }
  return rec;
}

/// The pre-refactor run_range over line faults: packed batches, fault
/// dropping, first detecting bit.
DetectionRecord line_fault(const Circuit& ckt, const Fault& fault,
                           const std::vector<Pattern>& patterns) {
  DetectionRecord rec;
  for (std::size_t base = 0; base < patterns.size(); base += 64) {
    if (rec.detected_output) break;
    const std::size_t count = std::min<std::size_t>(64, patterns.size() - base);
    const std::vector<Pattern> slice(
        patterns.begin() + static_cast<long>(base),
        patterns.begin() + static_cast<long>(base + count));
    const auto pi_words = reference::pack_patterns(ckt, slice);
    const auto good = reference::simulate_packed(ckt, pi_words);
    const auto bad = reference::packed_line(
        ckt, pi_words, faults::checked_line_fault(ckt, fault));
    const std::uint64_t active =
        count == 64 ? ~0ull : ((1ull << count) - 1ull);
    std::uint64_t diff = 0;
    for (const NetId po : ckt.primary_outputs())
      diff |= (good[static_cast<std::size_t>(po)] ^
               bad[static_cast<std::size_t>(po)]);
    diff &= active;
    if (diff != 0) {
      rec.detected_output = true;
      rec.first_pattern = static_cast<int>(base) + __builtin_ctzll(diff);
    }
  }
  return rec;
}

}  // namespace interp

// ---------------------------------------------------------------------------

std::vector<Pattern> random_patterns(const Circuit& ckt, int count,
                                     std::uint64_t seed) {
  util::SplitMix64 rng(seed);
  std::vector<Pattern> out;
  for (int k = 0; k < count; ++k) {
    Pattern p(ckt.primary_inputs().size());
    for (LogicV& v : p) v = from_bool(rng.chance(0.5));
    out.push_back(std::move(p));
  }
  return out;
}

struct Named {
  std::string name;
  Circuit ckt;
};

/// Every logic::benchmarks generator.
std::vector<Named> benchmark_roster() {
  std::vector<Named> out;
  out.push_back({"full_adder", full_adder()});
  out.push_back({"ripple_adder_4", ripple_adder(4)});
  out.push_back({"parity_tree_9", parity_tree(9)});
  out.push_back({"multiplier_2x2", multiplier_2x2()});
  out.push_back({"tmr_voter_3", tmr_voter(3)});
  out.push_back({"c17", c17()});
  out.push_back({"alu_slice", alu_slice()});
  out.push_back({"xor3_parity_chain_5", xor3_parity_chain(5)});
  return out;
}

void expect_record_eq(const DetectionRecord& got, const DetectionRecord& want,
                      const std::string& label) {
  EXPECT_EQ(got.detected_output, want.detected_output) << label;
  EXPECT_EQ(got.detected_iddq, want.detected_iddq) << label;
  EXPECT_EQ(got.potential, want.potential) << label;
  EXPECT_EQ(got.first_pattern, want.first_pattern) << label;
}

TEST(CompiledCircuit, StructureMirrorsTopoOrderAndTables) {
  for (const Named& w : benchmark_roster()) {
    const CompiledCircuit cc(w.ckt);
    ASSERT_EQ(cc.gates().size(), w.ckt.topo_order().size()) << w.name;
    for (std::size_t k = 0; k < cc.gates().size(); ++k) {
      const CompiledCircuit::GateRec& r = cc.gates()[k];
      const int gid = w.ckt.topo_order()[k];
      EXPECT_EQ(r.id, gid) << w.name;
      EXPECT_EQ(cc.position_of(gid), k) << w.name;
      const GateInst& g = w.ckt.gate(gid);
      EXPECT_EQ(r.kind, g.kind);
      EXPECT_EQ(r.out, g.out);
      for (int i = 0; i < g.input_count(); ++i)
        EXPECT_EQ(r.in[static_cast<std::size_t>(i)],
                  g.in[static_cast<std::size_t>(i)]);
    }
  }
  // Tables agree with good_output on binary codes and eval_cell_x on all.
  const LogicV decode[3] = {LogicV::k0, LogicV::k1, LogicV::kX};
  for (const gates::CellKind kind : gates::all_cell_kinds()) {
    const LogicV* table = CompiledCircuit::good_table(kind);
    for (unsigned a = 0; a < 3; ++a)
      for (unsigned b = 0; b < 3; ++b)
        for (unsigned c = 0; c < 3; ++c) {
          const LogicV got = table[a | (b << 2) | (c << 4)];
          EXPECT_EQ(got, eval_cell_x(kind, decode[a], decode[b], decode[c]));
        }
    const int n = gates::input_count(kind);
    for (unsigned v = 0; v < (1u << n); ++v) {
      const unsigned idx = (v & 1u) | (((v >> 1) & 1u) << 2) |
                           (((v >> 2) & 1u) << 4);
      EXPECT_EQ(table[idx], from_bool(gates::good_output(kind, v) != 0));
    }
  }
}

TEST(CompiledCircuit, ScalarGoodMatchesInterpretedReference) {
  for (const Named& w : benchmark_roster()) {
    const Simulator sim(w.ckt);
    std::vector<Pattern> patterns = random_patterns(w.ckt, 24, 7);
    // X-bearing patterns exercise the 4-valued table paths.
    util::SplitMix64 rng(13);
    for (int k = 0; k < 12; ++k) {
      Pattern p(w.ckt.primary_inputs().size());
      for (LogicV& v : p)
        v = rng.chance(0.3) ? LogicV::kX : from_bool(rng.chance(0.5));
      patterns.push_back(std::move(p));
    }
    for (std::size_t pi = 0; pi < patterns.size(); ++pi) {
      const SimResult got = sim.simulate(patterns[pi]);
      const SimResult want = interp::simulate(w.ckt, patterns[pi]);
      ASSERT_EQ(got.net_values, want.net_values)
          << w.name << " pattern " << pi;
    }
  }
}

TEST(CompiledCircuit, ScalarFaultyMatchesInterpretedReference) {
  for (const Named& w : benchmark_roster()) {
    const Simulator sim(w.ckt);
    std::vector<Pattern> patterns = random_patterns(w.ckt, 10, 19);
    patterns[3][0] = LogicV::kX;  // X at the fault site's cone
    for (const GateInst& g : w.ckt.gates()) {
      for (const gates::CellFault& cf :
           gates::enumerate_transistor_faults(g.kind)) {
        const gates::FaultAnalysis fa = gates::analyze_fault(g.kind, cf);
        std::vector<LogicV> state_got;
        std::vector<LogicV> state_want;
        for (std::size_t pi = 0; pi < patterns.size(); ++pi) {
          const SimResult got = sim.simulate_faulty_with(
              patterns[pi], GateFault{g.id, cf}, fa,
              state_got.empty() ? nullptr : &state_got);
          const SimResult want = interp::simulate_faulty(
              w.ckt, patterns[pi], g.id, fa,
              state_want.empty() ? nullptr : &state_want);
          ASSERT_EQ(got.net_values, want.net_values)
              << w.name << " gate " << g.id << " t" << cf.transistor
              << " pattern " << pi;
          ASSERT_EQ(got.iddq_flag, want.iddq_flag)
              << w.name << " gate " << g.id << " t" << cf.transistor;
          state_got = got.net_values;
          state_want = want.net_values;
        }
      }
    }
  }
}

TEST(CompiledCircuit, PackedGoodMatchesInterpretedSimulatePacked) {
  for (const Named& w : benchmark_roster()) {
    const std::vector<Pattern> patterns = random_patterns(w.ckt, 64, 31);
    const auto want = reference::simulate_packed(
        w.ckt, reference::pack_patterns(w.ckt, patterns));
    // Context good planes are built by the compiled plane kernel; word 0
    // of every net's row must match the interpreted single-word words.
    const faults::EvalContext ctx(w.ckt, patterns);
    ASSERT_TRUE(ctx.packed());
    ASSERT_EQ(ctx.word_count(), 1u);
    for (logic::NetId n = 0; n < w.ckt.net_count(); ++n)
      EXPECT_EQ(ctx.good_plane(n)[0], want[static_cast<std::size_t>(n)])
          << w.name << " net " << n;
  }
}

TEST(CompiledCircuit, AllFiveFaultClassesMatchInterpretedReferences) {
  for (const Named& w : benchmark_roster()) {
    // Keep the biggest circuits to a subsample for runtime.
    const std::vector<Pattern> patterns = random_patterns(w.ckt, 70, 43);

    std::vector<engine::CampaignFault> universe;
    faults::FaultListOptions flo;
    flo.collapse = false;  // keep every dictionary shape in play
    for (const Fault& f : faults::generate_fault_list(w.ckt, flo))
      universe.push_back(engine::CampaignFault::from_fault(f));
    const auto bridges = faults::enumerate_adjacent_bridges(w.ckt);
    for (std::size_t i = 0; i < bridges.size(); i += 5)
      universe.push_back(engine::CampaignFault::from_bridge(bridges[i]));

    bool seen[engine::kFaultClassCount] = {};
    for (const engine::CampaignFault& cf : universe)
      seen[static_cast<int>(cf.cls)] = true;
    for (int c = 0; c < engine::kFaultClassCount; ++c)
      ASSERT_TRUE(seen[c]) << w.name << " class " << c;

    engine::Shard shard;
    shard.begin = 0;
    shard.end = universe.size();
    const engine::ShardExecOptions options;
    const engine::ShardResult got =
        engine::run_shard(w.ckt, universe, patterns, shard, options);
    ASSERT_EQ(got.results.size(), universe.size());

    for (std::size_t i = 0; i < universe.size(); ++i) {
      const engine::CampaignFault& cf = universe[i];
      DetectionRecord want;
      if (cf.cls == engine::FaultClass::kBridge)
        want = faults::reference::bridge(w.ckt, cf.bridge, patterns,
                                          options.sim);
      else if (cf.fault.site == FaultSite::kGateTransistor)
        want = interp::transistor_serial(w.ckt, cf.fault, patterns,
                                         options.sim);
      else
        want = interp::line_fault(w.ckt, cf.fault, patterns);
      expect_record_eq(got.results[i].record, want,
                       w.name + " fault " + std::to_string(i));
    }
  }
}

TEST(CompiledCircuit, XBearingPatternsMatchInterpretedScalarPath) {
  const Circuit ckt = alu_slice();
  std::vector<Pattern> patterns = random_patterns(ckt, 6, 3);
  patterns[1][0] = LogicV::kX;
  patterns[4][2] = LogicV::kX;
  const faults::EvalContext ctx(ckt, patterns);
  EXPECT_FALSE(ctx.packed());
  const faults::FaultSimulator fsim(ckt);
  std::vector<Fault> trans;
  for (const Fault& f : faults::generate_fault_list(ckt, {}))
    if (f.site == FaultSite::kGateTransistor) trans.push_back(f);
  ASSERT_FALSE(trans.empty());
  const faults::FaultSimReport got = fsim.run(ctx, trans, {});
  for (std::size_t i = 0; i < trans.size(); ++i)
    expect_record_eq(got.records[i],
                     interp::transistor_serial(ckt, trans[i], patterns, {}),
                     "fault " + std::to_string(i));

  // Bridges read the same context's scalar good machine, its only copy
  // on an X-bearing set: at the POs, and at the bridged nets for IDDQ.
  std::vector<engine::CampaignFault> universe;
  const auto bridges = faults::enumerate_adjacent_bridges(ckt);
  for (std::size_t i = 0; i < bridges.size(); i += 5)
    universe.push_back(engine::CampaignFault::from_bridge(bridges[i]));
  ASSERT_FALSE(universe.empty());
  engine::Shard shard;
  shard.end = universe.size();
  for (const bool observe_iddq : {true, false}) {
    engine::ShardExecOptions options;
    options.sim.observe_iddq = observe_iddq;
    const engine::ShardResult bridged =
        engine::run_shard(ctx, universe, shard, options);
    ASSERT_EQ(bridged.results.size(), universe.size());
    for (std::size_t i = 0; i < universe.size(); ++i)
      expect_record_eq(bridged.results[i].record,
                       faults::reference::bridge(ckt, universe[i].bridge,
                                                 patterns, options.sim),
                       "bridge " + std::to_string(i) +
                           " iddq=" + std::to_string(observe_iddq));
  }
}

TEST(CompiledCircuit, TwoPatternStuckOpenRetentionMatchesReference) {
  // c17 is NAND-only: its stuck-opens have floating rows, so retention
  // across an (init, test) sequence is what detection hinges on.
  const Circuit ckt = c17();
  const faults::FaultSimulator fsim(ckt);
  const std::vector<Pattern> seqs = random_patterns(ckt, 40, 57);
  int exercised = 0;
  for (const GateInst& g : ckt.gates()) {
    const int nt = static_cast<int>(gates::cell(g.kind).transistors.size());
    for (int t = 0; t < nt; ++t) {
      const Fault f =
          Fault::transistor(g.id, t, gates::TransistorFault::kStuckOpen);
      for (std::size_t k = 0; k + 1 < seqs.size(); k += 2) {
        const std::vector<Pattern> pair = {seqs[k], seqs[k + 1]};
        const DetectionRecord want =
            interp::transistor_serial(ckt, f, pair, {});
        const faults::EvalContext ctx(ckt, pair);
        const faults::FaultSimReport got = fsim.run(ctx, {f}, {});
        expect_record_eq(got.records[0], want,
                         g.name + ".t" + std::to_string(t) + " seq " +
                             std::to_string(k));
        EXPECT_EQ(fsim.stuck_open_detected(f, pair[0], pair[1]),
                  want.detected_output);
        ++exercised;
      }
    }
  }
  EXPECT_GT(exercised, 0);
}

TEST(CompiledCircuit, MalformedLineFaultsAreRejectedNotUndefined) {
  // The compiled kernels index fault fields unchecked, so the public
  // entry points must validate them: out-of-range pins/gates/nets (e.g.
  // from a hostile shard_io document) throw instead of corrupting memory.
  const Circuit ckt = c17();
  const faults::FaultSimulator fsim(ckt);
  const std::vector<Pattern> patterns = random_patterns(ckt, 4, 9);
  const faults::EvalContext ctx(ckt, patterns);
  EXPECT_THROW((void)fsim.run(ctx, {Fault::input_stuck(0, 5, false)}, {}),
               std::invalid_argument);
  EXPECT_THROW((void)fsim.run(ctx, {Fault::input_stuck(99, 0, false)}, {}),
               std::invalid_argument);
  EXPECT_THROW((void)fsim.run(ctx, {Fault::net_stuck(ckt.net_count(), true)},
                              {}),
               std::invalid_argument);
  EXPECT_THROW((void)atpg::transition_detected(
                   ckt, atpg::TransitionFault{ckt.net_count(), true},
                   patterns[0], patterns[1]),
               std::invalid_argument);
}

TEST(CompiledCircuit, RandomizedCircuitPropertyTest) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    const Circuit ckt =
        random_circuit(seed, 4 + static_cast<int>(seed % 3), 18);
    const std::string label = "seed " + std::to_string(seed);
    const Simulator sim(ckt);
    const std::vector<Pattern> patterns = random_patterns(ckt, 70, seed * 97);

    // Scalar equivalence.
    for (const Pattern& p : patterns)
      ASSERT_EQ(sim.simulate(p).net_values,
                interp::simulate(ckt, p).net_values)
          << label;

    // Full fault-simulation equivalence (line + transistor).
    faults::FaultListOptions flo;
    flo.collapse = false;
    const std::vector<Fault> universe = faults::generate_fault_list(ckt, flo);
    const faults::FaultSimulator fsim(ckt);
    const faults::EvalContext ctx(ckt, patterns);
    const faults::FaultSimReport got = fsim.run(ctx, universe, {});
    ASSERT_EQ(got.records.size(), universe.size()) << label;
    for (std::size_t i = 0; i < universe.size(); ++i) {
      const Fault& f = universe[i];
      const DetectionRecord want =
          f.site == FaultSite::kGateTransistor
              ? interp::transistor_serial(ckt, f, patterns, {})
              : interp::line_fault(ckt, f, patterns);
      expect_record_eq(got.records[i], want,
                       label + " fault " + std::to_string(i));
    }
  }
}

}  // namespace
}  // namespace cpsinw::logic
