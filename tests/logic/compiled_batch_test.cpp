// Randomized property suite for the vectorized compiled core: the
// multi-fault batch kernel (every batch size 1..kBatchLanes, ragged
// pattern tails) and every SIMD backend must be bit-identical to the
// single-fault kernels of the reference oracles (reference_sim.hpp) —
// which the golden-equivalence suite in compiled_circuit_test.cpp pins to
// the seed's interpreted evaluators, so transitively everything here is
// pinned to the seed too.  Covers line stuck-at stems and branches,
// transistor stuck-open/stuck-on and polarity (via IDDQ dictionaries),
// all five classes through the shard path (bridges, with a single
// evaluation path, ride along unchecked), plus X-bearing pattern sets.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "engine/shard.hpp"
#include "faults/bridge.hpp"
#include "faults/eval_context.hpp"
#include "faults/fault_list.hpp"
#include "faults/fault_sim.hpp"
#include "logic/benchmarks.hpp"
#include "logic/compiled_circuit.hpp"
#include "logic/logic_sim.hpp"
#include "logic/simd.hpp"
#include "util/rng.hpp"
#include "../faults/reference_sim.hpp"

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
    const CompiledCircuit& cc = ctx.compiled();
    std::vector<std::uint64_t> values;
    for (std::size_t b = 0; b < ctx.batches().size(); ++b) {
      cc.init_packed(ctx.batches()[b].pi_words, values);
      cc.eval_packed(values);
      for (NetId n = 0; n < w.ckt.net_count(); ++n)
        ASSERT_EQ(ctx.good_plane(n)[b],
                  values[static_cast<std::size_t>(n)])
            << w.name << " word " << b << " net " << n;
    }
  }
}

TEST(CompiledBatch, BatchKernelMatchesSingleFaultKernelAllBatchSizes) {
  const int counts[] = {1, 63, 65, 100, 128, 200};
  std::size_t ci = 0;
  for (const Named& w : roster()) {
    const int count = counts[ci++ % (sizeof(counts) / sizeof(counts[0]))];
    const auto patterns = random_patterns(w.ckt, count, 7 + ci);
    const EvalContext ctx(w.ckt, patterns);
    ASSERT_TRUE(ctx.packed());
    const CompiledCircuit& cc = ctx.compiled();
    const std::vector<Fault> universe = all_line_faults(w.ckt);
    const std::size_t n_words = ctx.word_count();

    // Reference detection words, one fault at a time.
    std::vector<std::vector<std::uint64_t>> want;
    std::vector<CompiledCircuit::LineFault> lfs;
    for (const Fault& f : universe) {
      want.push_back(faults::reference::line_det_words(ctx, f));
      lfs.push_back(faults::checked_line_fault(w.ckt, f));
    }

    // Every batch size, over windows sliding through the universe so
    // stems/branches/sa0/sa1 mix within one group.
    std::vector<std::uint64_t> det(CompiledCircuit::kBatchLanes * n_words);
    std::vector<std::uint64_t> scratch;
    for (std::size_t n = 1; n <= CompiledCircuit::kBatchLanes; ++n) {
      for (std::size_t g = 0; g + n <= universe.size(); g += n) {
        const std::size_t words_done = cc.eval_packed_line_batch(
            ctx.good_planes(), ctx.plane_stride(), n_words,
            ctx.active_words().data(), lfs.data() + g, n, det.data(),
            scratch);
        ASSERT_GE(words_done, 1u);
        ASSERT_LE(words_done, n_words);
        for (std::size_t j = 0; j < n; ++j) {
          bool detected = false;
          for (std::size_t wd = 0; wd < words_done; ++wd) {
            ASSERT_EQ(det[j * n_words + wd], want[g + j][wd])
                << w.name << " batch " << n << " fault " << (g + j)
                << " word " << wd;
            detected |= det[j * n_words + wd] != 0;
          }
          // Early exit is only legal once every lane has a detection.
          if (words_done < n_words) {
            ASSERT_TRUE(detected);
          }
        }
      }
    }
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

    // Occupancy accounting is consistent with the universe.
    std::size_t line_faults = 0;
    for (const Fault& f : universe)
      if (f.site != FaultSite::kGateTransistor) ++line_faults;
    EXPECT_EQ(stats.faults, line_faults) << w.name;
    // lane_slots counts lanes actually occupied, so it never exceeds the
    // full-group capacity and always matches the fill histogram exactly.
    EXPECT_LE(stats.lane_slots,
              stats.groups * CompiledCircuit::kBatchLanes);
    std::size_t fill_sum = 0;
    for (std::size_t k = 0; k < stats.fill.size(); ++k)
      fill_sum += stats.fill[k] * (k + 1);
    EXPECT_EQ(fill_sum, stats.lane_slots) << w.name;
    // Every fault rides at least one kernel invocation (dropping strips
    // may route one through several).
    EXPECT_GE(stats.lane_slots, stats.faults) << w.name;
    EXPECT_GT(stats.words, 0u) << w.name;

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
    // Bridges have a single evaluation path; every other class is checked
    // against its oracle.
    for (std::size_t i = 0; i < universe.size(); ++i) {
      if (universe[i].cls == engine::FaultClass::kBridge) continue;
      expect_record_eq(got.results[i].record,
                       faults::reference::record(ctx, universe[i].fault, {}),
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

    // Batch kernel: identical detection words under both backends.
    const CompiledCircuit& cc = ctx.compiled();
    const std::vector<Fault> universe = all_line_faults(w.ckt);
    std::vector<CompiledCircuit::LineFault> lfs;
    for (const Fault& f : universe)
      lfs.push_back(faults::checked_line_fault(w.ckt, f));
    const std::size_t n_words = ctx.word_count();
    std::vector<std::uint64_t> det_wide(CompiledCircuit::kBatchLanes *
                                        n_words);
    std::vector<std::uint64_t> det_port(det_wide.size());
    std::vector<std::uint64_t> scratch;
    for (std::size_t g = 0; g < lfs.size();
         g += CompiledCircuit::kBatchLanes) {
      const std::size_t n =
          std::min(CompiledCircuit::kBatchLanes, lfs.size() - g);
      const std::size_t words_wide = cc.eval_packed_line_batch(
          ctx.good_planes(), ctx.plane_stride(), n_words,
          ctx.active_words().data(), lfs.data() + g, n, det_wide.data(),
          scratch);
      std::size_t words_port = 0;
      {
        ForcePortable pin(true);
        words_port = cc.eval_packed_line_batch(
            ctx.good_planes(), ctx.plane_stride(), n_words,
            ctx.active_words().data(), lfs.data() + g, n, det_port.data(),
            scratch);
      }
      ASSERT_EQ(words_wide, words_port) << w.name << " group " << g;
      ASSERT_EQ(det_wide, det_port) << w.name << " group " << g;
    }

    // Full run_range (line + transistor planes paths) under each backend.
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
