// Cross-class collapse table: every (gate kind, transistor fault) mapping
// onto a line stuck-at representative is pinned against brute-force
// dictionary comparison, and collapsed universes are pinned behaviourally —
// each collapsed-away fault's simulated record equals its representative's
// record — plus byte-identical campaign JSON at 1/2/8 threads.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "engine/campaign.hpp"
#include "faults/eval_context.hpp"
#include "faults/fault_list.hpp"
#include "faults/fault_sim.hpp"
#include "gates/fault_dictionary.hpp"
#include "logic/benchmarks.hpp"
#include "util/rng.hpp"

namespace cpsinw::faults {
namespace {

using gates::CellKind;
using gates::FaultAnalysis;
using logic::Circuit;
using logic::LogicV;
using logic::NetId;
using logic::Pattern;

std::vector<Pattern> random_patterns(const Circuit& ckt, int count,
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

/// Brute-force reference for collapse_target: tries the output constants
/// and every (pin, value) forcing independently of the production code's
/// search order shortcuts.
CollapseTarget brute_force_target(CellKind kind, const FaultAnalysis& fa) {
  CollapseTarget t;
  if (!fa.compiled_binary) return t;
  const unsigned combos = static_cast<unsigned>(fa.rows.size());
  bool const0 = true;
  bool const1 = true;
  for (unsigned v = 0; v < combos; ++v) {
    const unsigned fv = (fa.compiled_truth >> v) & 1u;
    const0 &= fv == 0;
    const1 &= fv == 1;
  }
  if (const0 || const1) {
    t.kind = CollapseTarget::Kind::kOutputStuck;
    t.stuck_one = const1;
    t.contends = fa.compiled_contention != 0;
    return t;
  }
  const int n_in = gates::input_count(kind);
  for (int i = 0; i < n_in; ++i) {
    for (const bool b : {false, true}) {
      bool match = true;
      for (unsigned v = 0; v < combos && match; ++v) {
        const unsigned forced = b ? (v | (1u << i))
                                  : (v & ~(1u << static_cast<unsigned>(i)));
        match = ((fa.compiled_truth >> v) & 1u) ==
                gates::good_output(kind, forced);
      }
      if (match) {
        t.kind = CollapseTarget::Kind::kInputStuck;
        t.pin = i;
        t.stuck_one = b;
        t.contends = fa.compiled_contention != 0;
        return t;
      }
    }
  }
  return t;
}

TEST(CollapseTable, EveryMappingMatchesBruteForceDictionaryComparison) {
  int mapped = 0;
  for (const CellKind kind : gates::all_cell_kinds()) {
    for (const gates::CellFault& cf :
         gates::enumerate_transistor_faults(kind)) {
      const FaultAnalysis& fa = gates::dictionary(kind, cf);
      const CollapseTarget got = collapse_target(kind, fa);
      const CollapseTarget want = brute_force_target(kind, fa);
      const std::string label = std::string(gates::to_string(kind)) + " t" +
                                std::to_string(cf.transistor) + " " +
                                gates::to_string(cf.kind);
      EXPECT_EQ(static_cast<int>(got.kind), static_cast<int>(want.kind))
          << label;
      EXPECT_EQ(got.pin, want.pin) << label;
      EXPECT_EQ(got.stuck_one, want.stuck_one) << label;
      EXPECT_EQ(got.contends, want.contends) << label;

      // Ineligible dictionaries never map.
      if (!fa.compiled_binary) {
        EXPECT_EQ(got.kind, CollapseTarget::Kind::kNone) << label;
      }
      // A mapping with an IDDQ signature must say so.
      if (got.kind != CollapseTarget::Kind::kNone) {
        EXPECT_EQ(got.contends, fa.compiled_contention != 0) << label;
      }
      // A mapping really is the claimed line fault, row by row.
      if (got.kind == CollapseTarget::Kind::kOutputStuck) {
        for (unsigned v = 0; v < fa.rows.size(); ++v)
          EXPECT_EQ(fa.faulty_logic(v), got.stuck_one ? 1 : 0) << label;
        ++mapped;
      } else if (got.kind == CollapseTarget::Kind::kInputStuck) {
        for (unsigned v = 0; v < fa.rows.size(); ++v) {
          const unsigned forced =
              got.stuck_one
                  ? (v | (1u << static_cast<unsigned>(got.pin)))
                  : (v & ~(1u << static_cast<unsigned>(got.pin)));
          EXPECT_EQ(fa.faulty_logic(v),
                    static_cast<int>(gates::good_output(kind, forced)))
              << label << " row " << v;
        }
        ++mapped;
      }
    }
  }
  // The table is not vacuous: the CP library has faults of both shapes.
  EXPECT_GT(mapped, 0);
}

struct Named {
  std::string name;
  Circuit ckt;
};

std::vector<Named> roster() {
  std::vector<Named> out;
  // Every circuit here contains at least one gate kind with a mappable
  // transistor fault (NAND2/NOR2/XOR2/INV stuck-ons) — pure XOR3/MAJ3
  // designs like full_adder have none and would make the pins vacuous.
  out.push_back({"c17", logic::c17()});
  out.push_back({"multiplier_2x2", logic::multiplier_2x2()});
  out.push_back({"alu_slice", logic::alu_slice()});
  out.push_back({"tmr_voter_3", logic::tmr_voter(3)});
  out.push_back({"random_a", logic::random_circuit(17, 6, 30)});
  out.push_back({"random_b", logic::random_circuit(71, 8, 48)});
  return out;
}

bool same_fault(const Fault& a, const Fault& b) {
  if (a.site != b.site) return false;
  if (a.site == FaultSite::kGateTransistor)
    return a.gate == b.gate &&
           a.cell_fault.transistor == b.cell_fault.transistor &&
           a.cell_fault.kind == b.cell_fault.kind;
  return a.net == b.net && a.gate == b.gate && a.pin == b.pin &&
         a.stuck_at_one == b.stuck_at_one;
}

TEST(CollapseTable, CollapsedFaultRecordsEqualTheirRepresentatives) {
  for (const Named& w : roster()) {
    FaultListOptions with;
    FaultListOptions without;
    without.cross_class_collapse = false;
    const std::vector<Fault> collapsed = generate_fault_list(w.ckt, with);
    const std::vector<Fault> full = generate_fault_list(w.ckt, without);
    ASSERT_LE(collapsed.size(), full.size()) << w.name;

    const EvalContext ctx(w.ckt, random_patterns(w.ckt, 120, 97));
    const FaultSimulator fsim(w.ckt);
    int checked = 0;
    for (const Fault& f : full) {
      if (f.site != FaultSite::kGateTransistor) continue;
      bool kept = false;
      for (const Fault& c : collapsed)
        if (same_fault(f, c)) {
          kept = true;
          break;
        }
      if (kept) continue;
      const gates::FaultAnalysis& fa = ctx.dictionary(
          w.ckt.gate(f.gate).kind, f.cell_fault);
      const CollapseTarget t =
          collapse_target(w.ckt.gate(f.gate).kind, fa);
      if (t.kind == CollapseTarget::Kind::kNone ||
          !collapse_representable(w.ckt, w.ckt.gate(f.gate), t))
        continue;  // removed by the pre-existing within-gate dedup instead
      const logic::GateInst& g = w.ckt.gate(f.gate);
      Fault rep =
          t.kind == CollapseTarget::Kind::kOutputStuck
              ? Fault::net_stuck(g.out, t.stuck_one)
              : (w.ckt.fanout(g.in[static_cast<std::size_t>(t.pin)]).size() >
                         1
                     ? Fault::input_stuck(g.id, t.pin, t.stuck_one)
                     : Fault::net_stuck(
                           g.in[static_cast<std::size_t>(t.pin)],
                           t.stuck_one));
      // A contending mapping is only collapsed when IDDQ is unobserved,
      // and its equivalence claim only covers logic observation.
      for (const bool iddq : {false, true}) {
        if (iddq && t.contends) continue;
        FaultSimOptions options;
        options.observe_iddq = iddq;
        const DetectionRecord got =
            fsim.run_range(ctx, {f}, 0, 1, options)[0];
        const DetectionRecord want =
            fsim.run_range(ctx, {rep}, 0, 1, options)[0];
        const std::string label =
            w.name + " " + f.describe(w.ckt) + " -> " + rep.describe(w.ckt);
        EXPECT_EQ(got.detected_output, want.detected_output) << label;
        EXPECT_EQ(got.detected_iddq, want.detected_iddq) << label;
        EXPECT_EQ(got.potential, want.potential) << label;
        EXPECT_EQ(got.first_pattern, want.first_pattern) << label;
      }
      ++checked;
    }
    // Collapse actually removes cross-class faults on these circuits.
    EXPECT_GT(checked, 0) << w.name;
  }
}

// When the campaign observes IDDQ, contending mappings are disqualified:
// every fault removed relative to the IDDQ-aware list must be
// contention-free, and every contending mapped fault must be kept.
TEST(CollapseTable, IddqObservationKeepsContendingFaults) {
  for (const Named& w : roster()) {
    FaultListOptions logic_only;
    FaultListOptions with_iddq;
    with_iddq.observe_iddq = true;
    const std::vector<Fault> lo = generate_fault_list(w.ckt, logic_only);
    const std::vector<Fault> hi = generate_fault_list(w.ckt, with_iddq);
    ASSERT_LE(lo.size(), hi.size()) << w.name;

    int contending_kept = 0;
    for (const Fault& f : hi) {
      if (f.site != FaultSite::kGateTransistor) continue;
      const gates::CellKind kind = w.ckt.gate(f.gate).kind;
      const FaultAnalysis& fa = gates::dictionary(kind, f.cell_fault);
      const CollapseTarget t = collapse_target(kind, fa);
      bool in_logic_only = false;
      for (const Fault& c : lo)
        if (same_fault(f, c)) {
          in_logic_only = true;
          break;
        }
      if (t.kind != CollapseTarget::Kind::kNone && t.contends &&
          collapse_representable(w.ckt, w.ckt.gate(f.gate), t)) {
        EXPECT_FALSE(in_logic_only) << w.name << " " << f.describe(w.ckt);
        ++contending_kept;
      } else {
        EXPECT_TRUE(in_logic_only) << w.name << " " << f.describe(w.ckt);
      }
    }
    EXPECT_GT(contending_kept, 0) << w.name;
  }
}

TEST(CollapseTable, CampaignJsonByteIdenticalAcrossThreadCounts) {
  engine::CampaignSpec spec;
  spec.jobs.push_back({"c17", logic::c17()});
  spec.jobs.push_back({"full_adder", logic::full_adder()});
  spec.patterns.kind = engine::PatternSourceSpec::Kind::kRandom;
  spec.patterns.random_count = 96;
  spec.seed = 20250808;
  spec.shard_size = 7;
  spec.executor.backend = engine::ExecutorBackend::kThreadPool;

  std::string first;
  for (const int threads : {1, 2, 8}) {
    spec.threads = threads;
    const engine::CampaignReport report = engine::run_campaign(spec);
    ASSERT_TRUE(report.ok()) << report.error;
    const std::string json = report.to_json();
    if (first.empty())
      first = json;
    else
      EXPECT_EQ(json, first) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace cpsinw::faults
