// Randomized property suite for the vectorized compiled core: the
// observability rows (every net, ragged pattern tails) and every SIMD
// backend must be bit-identical to the reference oracles
// (reference_sim.hpp), whose line and good-machine walks are the seed's
// interpreted evaluators (reference_logic.hpp), so everything here is
// pinned to the seed.  Covers line stuck-at stems and branches,
// transistor stuck-open/stuck-on and polarity (via IDDQ dictionaries),
// all five classes through the shard path (bridges against their
// per-pattern oracle), plus X-bearing pattern sets.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "engine/shard.hpp"
#include "faults/bridge.hpp"
#include "faults/eval_context.hpp"
#include "faults/fault_list.hpp"
#include "faults/fault_sim.hpp"
#include "gates/dictionary_cache.hpp"
#include "logic/benchmarks.hpp"
#include "logic/compiled_circuit.hpp"
#include "logic/logic_sim.hpp"
#include "logic/packed_kernels.hpp"
#include "logic/simd.hpp"
#include "util/rng.hpp"
#include "../faults/reference_sim.hpp"
#include "reference_logic.hpp"

namespace cpsinw::logic {
namespace {

using faults::DetectionRecord;
using faults::EvalContext;
using faults::Fault;
using faults::FaultSimulator;
using faults::FaultSite;
using faults::LineBatchStats;

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

/// Generators plus random circuits: structure diversity for the batch
/// kernel's event machinery (stems on PIs, deep branches, fanout).
std::vector<Named> roster() {
  std::vector<Named> out;
  out.push_back({"c17", c17()});
  out.push_back({"alu_slice", alu_slice()});
  out.push_back({"parity_tree_9", parity_tree(9)});
  out.push_back({"tmr_voter_3", tmr_voter(3)});
  out.push_back({"ripple_adder_4", ripple_adder(4)});
  out.push_back({"random_a", random_circuit(11, 6, 30)});
  out.push_back({"random_b", random_circuit(23, 8, 60)});
  out.push_back({"random_c", random_circuit(47, 5, 16)});
  return out;
}

/// Every line stuck-at fault of a circuit: stems on all nets, branches on
/// all pins.
std::vector<Fault> all_line_faults(const Circuit& ckt) {
  std::vector<Fault> out;
  for (NetId n = 0; n < ckt.net_count(); ++n)
    for (const bool sa1 : {false, true})
      out.push_back(Fault::net_stuck(n, sa1));
  for (const GateInst& g : ckt.gates())
    for (int pin = 0; pin < g.input_count(); ++pin)
      for (const bool sa1 : {false, true})
        out.push_back(Fault::input_stuck(g.id, pin, sa1));
  return out;
}

void expect_record_eq(const DetectionRecord& got, const DetectionRecord& want,
                      const std::string& label) {
  EXPECT_EQ(got.detected_output, want.detected_output) << label;
  EXPECT_EQ(got.detected_iddq, want.detected_iddq) << label;
  EXPECT_EQ(got.potential, want.potential) << label;
  EXPECT_EQ(got.first_pattern, want.first_pattern) << label;
}

/// RAII pin of the portable backend (tests must not leak the override).
struct ForcePortable {
  explicit ForcePortable(bool on) { simd::force_portable(on); }
  ~ForcePortable() { simd::force_portable(false); }
};

// ---------------------------------------------------------------------------

TEST(CompiledBatch, PlaneGoodMachineMatchesWordKernel) {
  // Pattern counts straddle every word boundary and the SIMD group width.
  const int counts[] = {1, 63, 64, 65, 100, 128, 200, 256};
  std::size_t ci = 0;
  for (const Named& w : roster()) {
    const int count = counts[ci++ % (sizeof(counts) / sizeof(counts[0]))];
    const auto patterns = random_patterns(w.ckt, count, 101 + ci);
    const EvalContext ctx(w.ckt, patterns);
    ASSERT_TRUE(ctx.packed());
    ASSERT_EQ(ctx.word_count(), (patterns.size() + 63) / 64);
    ASSERT_EQ(ctx.plane_stride() % CompiledCircuit::kSimdWords, 0u);
    ASSERT_EQ(ctx.active_words().size(), ctx.word_count());
    for (std::size_t b = 0; b < ctx.word_count(); ++b) {
      const faults::reference::PackedWord word =
          faults::reference::pack_word(ctx, b);
      ASSERT_EQ(ctx.active_words()[b], word.active)
          << w.name << " word " << b;
      const std::vector<std::uint64_t> values =
          reference::simulate_packed(w.ckt, word.pi_words);
      for (NetId n = 0; n < w.ckt.net_count(); ++n)
        ASSERT_EQ(ctx.good_plane(n)[b],
                  values[static_cast<std::size_t>(n)])
            << w.name << " word " << b << " net " << n;
    }
    // good_value(k, n) is bit k % 64 of word k / 64 of net n's plane.
    for (std::size_t k = 0; k < patterns.size(); ++k)
      for (NetId n = 0; n < w.ckt.net_count(); ++n)
        ASSERT_EQ(ctx.good_value(k, n),
                  logic::from_bool(
                      ((ctx.good_plane(n)[k / 64] >> (k % 64)) & 1u) != 0))
            << w.name << " pattern " << k << " net " << n;
  }
}

TEST(CompiledBatch, ObservabilityRowsMatchTheStemFaultOracle) {
  const int counts[] = {1, 63, 65, 100, 128, 200};
  std::size_t ci = 0;
  for (const Named& w : roster()) {
    const int count = counts[ci++ % (sizeof(counts) / sizeof(counts[0]))];
    const auto patterns = random_patterns(w.ckt, count, 7 + ci);
    const EvalContext ctx(w.ckt, patterns);
    ASSERT_TRUE(ctx.packed());
    const std::size_t n_words = ctx.word_count();
    const std::vector<std::uint64_t>& active = ctx.active_words();

    // Flipping a net under a pattern is the net stuck at the complement of
    // its good value there, so its row, masked by the patterns, is the
    // union of its two stem faults' reference detection words.
    std::vector<std::uint64_t> lanes;
    for (NetId n = 0; n < w.ckt.net_count(); ++n) {
      const auto sa0 =
          faults::reference::line_det_words(ctx, Fault::net_stuck(n, false));
      const auto sa1 =
          faults::reference::line_det_words(ctx, Fault::net_stuck(n, true));
      const std::uint64_t* row = ctx.obs_row(n, lanes);
      for (std::size_t wd = 0; wd < n_words; ++wd)
        ASSERT_EQ(row[wd] & active[wd], sa0[wd] | sa1[wd])
            << w.name << " net " << n << " word " << wd;
    }

    // Rows do not depend on the order they are asked in: a fresh context
    // filled from the last net back (each chain walk then stops one link
    // further down) holds the same words.
    const EvalContext back(w.ckt, patterns);
    for (NetId n = w.ckt.net_count() - 1; n >= 0; --n) {
      const std::uint64_t* want = ctx.obs_row(n, lanes);
      const std::uint64_t* got = back.obs_row(n, lanes);
      for (std::size_t wd = 0; wd < n_words; ++wd)
        ASSERT_EQ(got[wd], want[wd])
            << w.name << " net " << n << " word " << wd;
    }

    // Every stem and branch fault's record comes through its row.
    const std::vector<Fault> universe = all_line_faults(w.ckt);
    const auto got = FaultSimulator(w.ckt).run_range(ctx, universe, 0,
                                                     universe.size());
    for (std::size_t i = 0; i < universe.size(); ++i)
      expect_record_eq(got[i], faults::reference::line(ctx, universe[i]),
                       w.name + " fault " + std::to_string(i));
  }
}

TEST(CompiledBatch, RunRangeMatchesReferenceRecords) {
  for (const Named& w : roster()) {
    const auto patterns = random_patterns(w.ckt, 90, 31);
    const EvalContext ctx(w.ckt, patterns);
    const FaultSimulator fsim(w.ckt);
    faults::FaultListOptions flo;
    flo.collapse = false;
    const std::vector<Fault> universe = faults::generate_fault_list(w.ckt, flo);

    LineBatchStats stats;
    const auto got =
        fsim.run_range(ctx, universe, 0, universe.size(), {}, &stats);
    const auto ref = faults::reference::records(ctx, universe, {});
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      expect_record_eq(got[i], ref[i], w.name + " fault " + std::to_string(i));

    // The line-fault count is consistent with the universe.
    std::size_t line_faults = 0;
    for (const Fault& f : universe)
      if (f.site != FaultSite::kGateTransistor) ++line_faults;
    EXPECT_EQ(stats.faults, line_faults) << w.name;

    // Concatenating sub-range records equals the whole-list run (the
    // campaign sharding contract).
    const std::size_t cut = universe.size() / 3 + 1;
    std::vector<DetectionRecord> cat;
    for (std::size_t b = 0; b < universe.size(); b += cut) {
      const std::size_t e = std::min(universe.size(), b + cut);
      const auto part = fsim.run_range(ctx, universe, b, e);
      cat.insert(cat.end(), part.begin(), part.end());
    }
    ASSERT_EQ(cat.size(), got.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      expect_record_eq(cat[i], got[i], w.name + " concat " + std::to_string(i));
  }
}

TEST(CompiledBatch, ShardRecordsMatchReferenceAllClasses) {
  for (const Named& w : roster()) {
    const auto patterns = random_patterns(w.ckt, 80, 53);
    const EvalContext ctx(w.ckt, patterns);

    std::vector<engine::CampaignFault> universe;
    faults::FaultListOptions flo;
    flo.collapse = false;
    for (const Fault& f : faults::generate_fault_list(w.ckt, flo))
      universe.push_back(engine::CampaignFault::from_fault(f));
    for (const auto& br : faults::enumerate_adjacent_bridges(w.ckt))
      universe.push_back(engine::CampaignFault::from_bridge(br));

    engine::Shard shard;
    shard.begin = 0;
    shard.end = universe.size();
    const auto got = engine::run_shard(ctx, universe, shard, {});
    ASSERT_EQ(got.results.size(), universe.size());
    for (std::size_t i = 0; i < universe.size(); ++i) {
      const engine::CampaignFault& cf = universe[i];
      expect_record_eq(
          got.results[i].record,
          cf.cls == engine::FaultClass::kBridge
              ? faults::reference::bridge(w.ckt, cf.bridge, patterns, {})
              : faults::reference::record(ctx, cf.fault, {}),
          w.name + " fault " + std::to_string(i));
    }
  }
}

TEST(CompiledBatch, SimdBackendBitIdenticalToPortable) {
  if (simd::compiled_backend() == simd::Backend::kPortable)
    GTEST_SKIP() << "no wide backend in this build/CPU";
  for (const Named& w : roster()) {
    const auto patterns = random_patterns(w.ckt, 200, 77);

    // Contexts built under each backend must hold identical plane bytes
    // (including padding words — seeds are backend-independent).
    std::vector<std::uint64_t> portable_planes;
    {
      ForcePortable pin(true);
      const EvalContext ctx(w.ckt, patterns);
      portable_planes.assign(
          ctx.good_planes(),
          ctx.good_planes() +
              static_cast<std::size_t>(w.ckt.net_count()) *
                  ctx.plane_stride());
    }
    const EvalContext ctx(w.ckt, patterns);  // wide backend
    ASSERT_TRUE(ctx.packed());
    const std::vector<std::uint64_t> wide_planes(
        ctx.good_planes(),
        ctx.good_planes() + static_cast<std::size_t>(w.ckt.net_count()) *
                                ctx.plane_stride());
    ASSERT_EQ(wide_planes, portable_planes) << w.name;

    // Observability rows: identical words under both backends, each
    // filled in its own context.
    std::vector<std::uint64_t> lanes;
    std::vector<std::uint64_t> wide_rows;
    for (NetId n = 0; n < w.ckt.net_count(); ++n) {
      const std::uint64_t* row = ctx.obs_row(n, lanes);
      wide_rows.insert(wide_rows.end(), row, row + ctx.word_count());
    }
    std::vector<std::uint64_t> portable_rows;
    {
      ForcePortable pin(true);
      const EvalContext port_ctx(w.ckt, patterns);
      for (NetId n = 0; n < w.ckt.net_count(); ++n) {
        const std::uint64_t* row = port_ctx.obs_row(n, lanes);
        portable_rows.insert(portable_rows.end(), row,
                             row + port_ctx.word_count());
      }
    }
    ASSERT_EQ(wide_rows, portable_rows) << w.name;

    // Full run_range (rows, retained kernel) under each backend.
    const FaultSimulator fsim(w.ckt);
    faults::FaultListOptions flo;
    flo.collapse = false;
    const std::vector<Fault> all = faults::generate_fault_list(w.ckt, flo);
    const auto wide = fsim.run_range(ctx, all, 0, all.size());
    ForcePortable pin(true);
    const auto port = fsim.run_range(ctx, all, 0, all.size());
    ASSERT_EQ(wide.size(), port.size());
    for (std::size_t i = 0; i < wide.size(); ++i)
      expect_record_eq(wide[i], port[i],
                       w.name + " fault " + std::to_string(i));
  }
}

/// Output words of every kernel of one table over one circuit and pattern
/// set, in call order.
struct TableRun {
  std::vector<std::uint64_t> planes;
  std::vector<std::uint64_t> stem;      ///< one observability row per net
  std::vector<std::uint64_t> retained;  ///< detect/potential/contention/carry
  std::vector<std::uint64_t> bridge;    ///< detect + contention
};

/// The faults a circuit feeds the fault kernels: every uncollapsed
/// retained-state transistor fault and a band of net pairs, adjacent and a
/// few ids apart, under all four wirings.  The stem kernel walks every
/// net.
struct KernelFaults {
  std::vector<std::pair<int, const gates::FaultAnalysis*>> retained;
  std::vector<CompiledCircuit::Bridge> bridges;
};

KernelFaults kernel_faults(const Circuit& ckt) {
  KernelFaults out;
  faults::FaultListOptions flo;
  flo.collapse = false;
  flo.include_line_stuck_at = false;
  for (const Fault& f : faults::generate_fault_list(ckt, flo)) {
    const gates::FaultAnalysis& fa = gates::DictionaryCache::global().lookup(
        ckt.gate(f.gate).kind, f.cell_fault);
    if (!fa.compiled_binary) out.retained.emplace_back(f.gate, &fa);
  }
  using Wire = CompiledCircuit::Bridge::Wire;
  for (NetId a = 0; a < ckt.net_count(); ++a)
    for (const NetId b : {a + 1, a + 5})
      if (b < ckt.net_count())
        for (const Wire wire : {Wire::kAnd, Wire::kOr, Wire::kDominantA,
                                Wire::kDominantB})
          out.bridges.push_back({a, b, wire});
  return out;
}

TableRun run_table(const kernels::KernelTable& t, const CompiledCircuit& cc,
                   const KernelFaults& kf,
                   const std::vector<std::uint64_t>& seeded,
                   const std::vector<std::uint64_t>& active,
                   std::size_t stride) {
  const std::size_t n_words = active.size();
  TableRun run;
  run.planes = seeded;
  t.planes(cc, run.planes.data(), stride);
  const std::uint64_t* good = run.planes.data();
  std::vector<std::uint64_t> lanes;
  std::vector<std::uint64_t> x_lanes;
  std::vector<std::uint64_t> n1_lanes;

  std::vector<std::uint64_t> a(n_words);
  std::vector<std::uint64_t> b(n_words);
  std::vector<std::uint64_t> c(n_words);
  for (NetId n = 0; n < cc.circuit().net_count(); ++n) {
    t.stem_planes(cc, good, stride, n_words, n, a.data(), lanes);
    run.stem.insert(run.stem.end(), a.begin(), a.end());
  }

  // Two calls per fault, split at the first SIMD group like the fault
  // simulator's first strip, so the carry crosses a call boundary.
  for (const bool retain : {false, true}) {
    for (const auto& [gate, fa] : kf.retained) {
      CompiledCircuit::RetainedCarry carry;
      for (std::size_t w0 = 0; w0 < n_words;) {
        const std::size_t nw = w0 == 0 ? std::min<std::size_t>(
                                             CompiledCircuit::kSimdWords,
                                             n_words)
                                       : n_words - w0;
        t.retained_planes(cc, good + w0, stride, nw, gate, *fa, retain, carry,
                          a.data(), b.data(), c.data(), lanes, x_lanes);
        run.retained.insert(run.retained.end(), a.begin(), a.begin() + nw);
        run.retained.insert(run.retained.end(), b.begin(), b.begin() + nw);
        run.retained.insert(run.retained.end(), c.begin(), c.begin() + nw);
        run.retained.push_back(carry.value);
        run.retained.push_back(carry.x);
        w0 += nw;
      }
    }
  }

  for (const CompiledCircuit::Bridge& br : kf.bridges) {
    t.bridge_planes(cc, good, stride, n_words, br, a.data(), b.data(), lanes,
                    n1_lanes);
    run.bridge.insert(run.bridge.end(), a.begin(), a.end());
    run.bridge.insert(run.bridge.end(), b.begin(), b.end());
  }
  return run;
}

TEST(CompiledBatch, EverySupportedTableMatchesPortable) {
  // The dispatcher runs only the widest supported table, so this is the
  // test that runs the others (AVX2 on an AVX-512 host): each kernel of
  // each supported table against the portable table's, on the same
  // inputs.
  const kernels::KernelTable* portable =
      kernels::table(simd::Backend::kPortable);
  ASSERT_NE(portable, nullptr);
  std::vector<simd::Backend> wide;
  for (const simd::Backend b :
       {simd::Backend::kAvx2, simd::Backend::kAvx512, simd::Backend::kNeon})
    if (kernels::table(b) != nullptr) wide.push_back(b);
  if (wide.empty()) GTEST_SKIP() << "only the portable table is supported";

  for (const Named& w : roster()) {
    const CompiledCircuit cc(w.ckt);
    const KernelFaults kf = kernel_faults(w.ckt);
    ASSERT_FALSE(kf.retained.empty()) << w.name;
    // Word and SIMD-group boundaries, and (1100) more words than one
    // cone-kernel strip.
    for (const std::size_t n_patterns : {1, 65, 200, 300, 1100}) {
      const std::size_t n_words = (n_patterns + 63) / 64;
      const std::size_t stride = CompiledCircuit::plane_stride(n_words);
      std::vector<std::uint64_t> active(n_words, ~0ull);
      if (n_patterns % 64 != 0)
        active.back() = (1ull << (n_patterns % 64)) - 1;
      util::SplitMix64 rng(n_patterns);
      const std::size_t n_pi = w.ckt.primary_inputs().size();
      std::vector<std::uint64_t> pi(n_pi * stride, 0);
      for (std::size_t i = 0; i < n_pi; ++i)
        for (std::size_t k = 0; k < n_words; ++k)
          pi[i * stride + k] = rng.next_u64() & active[k];
      std::vector<std::uint64_t> seeded;
      cc.init_packed_planes(pi.data(), stride, seeded);

      const TableRun want = run_table(*portable, cc, kf, seeded, active,
                                      stride);
      for (const simd::Backend b : wide) {
        const TableRun got =
            run_table(*kernels::table(b), cc, kf, seeded, active, stride);
        const std::string label = w.name + " " + simd::backend_name(b) +
                                  " patterns " + std::to_string(n_patterns);
        EXPECT_TRUE(got.planes == want.planes) << label << " planes";
        EXPECT_TRUE(got.stem == want.stem) << label << " stem_planes";
        EXPECT_TRUE(got.retained == want.retained)
            << label << " retained_planes";
        EXPECT_TRUE(got.bridge == want.bridge) << label << " bridge_planes";
      }
    }
  }
}

TEST(CompiledBatch, XBearingPatternsKeepScalarPathsAndRejectLineFaults) {
  const Circuit ckt = alu_slice();
  std::vector<Pattern> patterns = random_patterns(ckt, 8, 13);
  patterns[2][1] = LogicV::kX;
  patterns[6][0] = LogicV::kX;
  const EvalContext ctx(ckt, patterns);
  EXPECT_FALSE(ctx.packed());
  EXPECT_EQ(ctx.word_count(), 0u);
  const FaultSimulator fsim(ckt);

  std::vector<Fault> trans;
  for (const Fault& f : faults::generate_fault_list(ckt, {}))
    if (f.site == FaultSite::kGateTransistor) trans.push_back(f);
  ASSERT_FALSE(trans.empty());
  const auto got = fsim.run_range(ctx, trans, 0, trans.size());
  for (std::size_t i = 0; i < trans.size(); ++i)
    expect_record_eq(got[i],
                     faults::reference::transistor(ckt, trans[i], patterns, {}),
                     "trans " + std::to_string(i));

  // Line faults still demand packable patterns.
  const std::vector<Fault> line = {Fault::net_stuck(0, true)};
  EXPECT_THROW((void)fsim.run_range(ctx, line, 0, 1), std::invalid_argument);
}

TEST(CompiledBatch, EmptyPatternSetYieldsUndetectedRecords) {
  const Circuit ckt = c17();
  const EvalContext ctx(ckt, std::vector<Pattern>{});
  const FaultSimulator fsim(ckt);
  const std::vector<Fault> line = all_line_faults(ckt);
  const auto recs = fsim.run_range(ctx, line, 0, line.size());
  for (const DetectionRecord& r : recs) {
    EXPECT_FALSE(r.detected_output);
    EXPECT_EQ(r.first_pattern, -1);
  }
}

}  // namespace
}  // namespace cpsinw::logic
