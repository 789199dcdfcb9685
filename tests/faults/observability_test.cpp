// Observability rows: every line fault and every binary-dictionary
// transistor fault on a packed context folds a one-gate local step
// against the row of the net it changes.  A deep fan-out-free chain must
// not exhaust the stack, and each stem must be walked at most once per
// context, whichever thread asks first (the concurrent case runs under
// TSan).  The record matrix against the oracles lives in
// eval_context_test.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "engine/campaign.hpp"
#include "engine/shard.hpp"
#include "engine/thread_pool.hpp"
#include "faults/eval_context.hpp"
#include "faults/fault_list.hpp"
#include "faults/fault_sim.hpp"
#include "gates/dictionary_cache.hpp"
#include "logic/bench_format.hpp"
#include "logic/benchmarks.hpp"
#include "logic/netlist_ingest.hpp"
#include "reference_sim.hpp"
#include "util/rng.hpp"

namespace cpsinw::faults {
namespace {

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

void expect_record_eq(const DetectionRecord& got, const DetectionRecord& want,
                      const std::string& label) {
  EXPECT_EQ(got.detected_output, want.detected_output) << label;
  EXPECT_EQ(got.detected_iddq, want.detected_iddq) << label;
  EXPECT_EQ(got.potential, want.potential) << label;
  EXPECT_EQ(got.first_pattern, want.first_pattern) << label;
}

Circuit ingested(const Circuit& ckt) {
  return logic::read_bench_string(logic::to_bench_string(ckt));
}

/// Stems on every net and both branch faults of every pin.
std::vector<Fault> all_line_faults(const Circuit& ckt) {
  std::vector<Fault> out;
  for (NetId n = 0; n < ckt.net_count(); ++n)
    for (const bool sa1 : {false, true})
      out.push_back(Fault::net_stuck(n, sa1));
  for (const logic::GateInst& g : ckt.gates())
    for (int pin = 0; pin < g.input_count(); ++pin)
      for (const bool sa1 : {false, true})
        out.push_back(Fault::input_stuck(g.id, pin, sa1));
  return out;
}

/// The stems of a circuit: non-PO nets read by two or more pins.
std::uint64_t stem_count(const Circuit& ckt) {
  std::vector<char> is_po(static_cast<std::size_t>(ckt.net_count()), 0);
  for (const NetId po : ckt.primary_outputs())
    is_po[static_cast<std::size_t>(po)] = 1;
  std::uint64_t n_stems = 0;
  for (NetId n = 0; n < ckt.net_count(); ++n)
    n_stems += is_po[static_cast<std::size_t>(n)] == 0 &&
               ckt.fanout(n).size() >= 2;
  return n_stems;
}

struct Named {
  std::string name;
  Circuit ckt;
};

TEST(Observability, DeepFanoutFreeChainStaysIterative) {
  // 100,000 inverters in one fan-out-free chain: the row of the head is
  // the product of 100,000 links, filled back from the PO.
  constexpr int kLength = 100000;
  Circuit api;
  NetId net = api.add_primary_input("a");
  for (int k = 1; k <= kLength; ++k) {
    const NetId next = api.add_net("n" + std::to_string(k));
    api.add_gate(gates::CellKind::kInv, {net}, next);
    net = next;
  }
  api.mark_primary_output(net);
  api.finalize();

  // The same chain as a generated .bench file, read back.
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("cpsinw_chain_" + std::to_string(::getpid()) + ".bench");
  {
    std::ofstream os(path);
    os << "INPUT(a)\nOUTPUT(n" << kLength << ")\nn1 = NOT(a)\n";
    for (int k = 2; k <= kLength; ++k)
      os << "n" << k << " = NOT(n" << k - 1 << ")\n";
  }
  const Circuit read = logic::load_circuit_file(path.string());
  std::filesystem::remove(path);

  for (const Circuit* ckt : {static_cast<const Circuit*>(&api), &read}) {
    ASSERT_EQ(ckt->gate_count(), kLength);
    const NetId head = ckt->find_net("a");
    const NetId middle = ckt->find_net("n" + std::to_string(kLength / 2));
    const NetId tail = ckt->find_net("n" + std::to_string(kLength - 1));
    std::vector<Fault> faults;
    for (const NetId n : {head, middle, tail})
      for (const bool sa1 : {false, true}) {
        faults.push_back(Fault::net_stuck(n, sa1));
        faults.push_back(Fault::input_stuck(ckt->fanout(n)[0], 0, sa1));
      }
    const int first_gate = ckt->fanout(head)[0];
    FaultListOptions flo;
    flo.collapse = false;
    flo.include_line_stuck_at = false;
    std::size_t stuck_on = 0;
    for (const Fault& f : generate_fault_list(*ckt, flo))
      if (f.gate == first_gate &&
          f.cell_fault.kind == gates::TransistorFault::kStuckOn &&
          gates::DictionaryCache::global()
              .lookup(gates::CellKind::kInv, f.cell_fault)
              .compiled_binary) {
        faults.push_back(f);
        ++stuck_on;
      }
    ASSERT_GT(stuck_on, 0u);

    const EvalContext ctx(*ckt, random_patterns(*ckt, 64, 3));
    const auto got = FaultSimulator(*ckt).run_range(ctx, faults, 0,
                                                    faults.size());
    const auto want = reference::records(ctx, faults, {});
    for (std::size_t i = 0; i < faults.size(); ++i)
      expect_record_eq(got[i], want[i], "fault " + std::to_string(i));
    EXPECT_EQ(ctx.stem_walks(), 0u);  // a chain has no stem
  }
}

TEST(Observability, RunRangeWalksEachReachedStemOnce) {
  for (const Named& in :
       {Named{"alu_array_4", ingested(logic::alu_array(4))},
        Named{"random_5", logic::random_circuit(5, 9, 42)},
        Named{"c17", logic::c17()}}) {
    const std::uint64_t stems = stem_count(in.ckt);
    ASSERT_GT(stems, 0u) << in.name;
    const FaultSimulator fsim(in.ckt);
    const std::vector<Pattern> patterns = random_patterns(in.ckt, 130, 9);

    // Stem faults on every net ask for every stem's row directly.
    const EvalContext ctx(in.ckt, patterns);
    EXPECT_EQ(ctx.stem_walks(), 0u) << in.name;
    const std::vector<Fault> line = all_line_faults(in.ckt);
    (void)fsim.run_range(ctx, line, 0, line.size());
    EXPECT_EQ(ctx.stem_walks(), stems) << in.name;
    (void)fsim.run_range(ctx, line, 0, line.size());
    EXPECT_EQ(ctx.stem_walks(), stems) << in.name << " second call";

    // The campaign universe reaches at most every stem, once.
    const EvalContext campaign(in.ckt, patterns);
    const std::vector<Fault> universe = generate_fault_list(in.ckt, {});
    (void)fsim.run_range(campaign, universe, 0, universe.size());
    const std::uint64_t walks = campaign.stem_walks();
    EXPECT_LE(walks, stems) << in.name;
    (void)fsim.run_range(campaign, universe, 0, universe.size());
    EXPECT_EQ(campaign.stem_walks(), walks) << in.name << " second call";
  }
}

TEST(Observability, OnePatternLineCheckWalksAtMostOneStem) {
  const Circuit ckt = ingested(logic::alu_array(2));
  const FaultSimulator fsim(ckt);
  const std::vector<Pattern> patterns = random_patterns(ckt, 4, 21);
  const std::vector<Fault> line = all_line_faults(ckt);
  for (std::size_t i = 0; i < line.size(); ++i) {
    const Fault& f = line[i];
    const EvalContext one(ckt, {patterns[i % patterns.size()]});
    const bool detected = fsim.line_fault_detected(one, f, 0);
    EXPECT_LE(one.stem_walks(), 1u);
    EXPECT_EQ(detected, reference::line(one, f).detected_output);
  }
}

TEST(Observability, ConcurrentShardsShareOneWalkPerStem) {
  // Every shard of a job reads one context; its rows fill on whichever
  // pool thread asks first.  Any thread count gives the serial records
  // and the serial walk count.
  const Circuit ckt = ingested(logic::alu_array(4));
  const std::vector<engine::CampaignFault> universe =
      engine::build_universe(ckt, engine::FaultModelSelection{}, true);
  const std::vector<Pattern> patterns = random_patterns(ckt, 200, 17);
  const std::vector<engine::Shard> shards =
      engine::make_shards(0, universe.size(), 16, util::SplitMix64(4));
  engine::ShardExecOptions options;
  options.sim.observe_iddq = true;

  const EvalContext serial_ctx(ckt, patterns);
  std::vector<engine::ShardResult> serial;
  for (const engine::Shard& s : shards)
    serial.push_back(engine::run_shard(serial_ctx, universe, s, options));
  const std::uint64_t serial_walks = serial_ctx.stem_walks();
  ASSERT_GT(serial_walks, 0u);

  for (const int threads : {1, 2, 8}) {
    const EvalContext ctx(ckt, patterns);
    std::vector<engine::ShardResult> got(shards.size());
    {
      engine::ThreadPool pool(threads);
      for (std::size_t k = 0; k < shards.size(); ++k)
        pool.submit([&, k] {
          got[k] = engine::run_shard(ctx, universe, shards[k], options);
        });
      pool.wait_idle();
      ASSERT_EQ(pool.first_exception(), nullptr);
    }
    EXPECT_EQ(ctx.stem_walks(), serial_walks) << threads << " threads";
    for (std::size_t k = 0; k < shards.size(); ++k) {
      ASSERT_EQ(got[k].results.size(), serial[k].results.size());
      for (std::size_t i = 0; i < got[k].results.size(); ++i)
        expect_record_eq(got[k].results[i].record, serial[k].results[i].record,
                         std::to_string(threads) + " threads shard " +
                             std::to_string(k) + " fault " +
                             std::to_string(i));
    }
  }
}

}  // namespace
}  // namespace cpsinw::faults
