// Randomized property sweeps: pseudo-random circuits exercise the whole
// stack — simulators must agree with each other, ATPG must stay sound,
// serialization must round-trip — across many seeds.
#include <gtest/gtest.h>

#include <sstream>

#include "atpg/podem.hpp"
#include "faults/eval_context.hpp"
#include "faults/fault_sim.hpp"
#include "logic/benchmarks.hpp"
#include "logic/netlist_format.hpp"
#include "util/rng.hpp"

namespace cpsinw {
namespace {

using logic::LogicV;
using logic::Pattern;

Pattern random_pattern(util::SplitMix64& rng, std::size_t n) {
  Pattern p(n);
  for (auto& v : p) v = logic::from_bool(rng.chance(0.5));
  return p;
}

class RandomCircuits : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomCircuits, PackedSimMatchesScalarSim) {
  const logic::Circuit ckt = logic::random_circuit(GetParam(), 6, 30);
  const logic::Simulator sim(ckt);
  util::SplitMix64 rng(GetParam() * 977 + 1);
  std::vector<Pattern> patterns;
  for (int k = 0; k < 48; ++k)
    patterns.push_back(random_pattern(rng, ckt.primary_inputs().size()));
  const faults::EvalContext ctx(ckt, patterns);
  ASSERT_TRUE(ctx.packed());
  for (std::size_t k = 0; k < patterns.size(); ++k) {
    const logic::SimResult r = sim.simulate(patterns[k]);
    for (const logic::NetId po : ckt.primary_outputs())
      ASSERT_EQ(ctx.good_value(k, po), r.value(po))
          << "seed=" << GetParam() << " pattern=" << k;
  }
}

TEST_P(RandomCircuits, PodemStaysSoundOnLineFaults) {
  const logic::Circuit ckt = logic::random_circuit(GetParam(), 5, 20);
  const atpg::PodemEngine engine(ckt);
  const faults::FaultSimulator fsim(ckt);
  faults::FaultListOptions flo;
  flo.include_transistor_faults = false;
  for (const faults::Fault& f : generate_fault_list(ckt, flo)) {
    const atpg::AtpgResult r = engine.generate_line(f);
    if (r.status != atpg::AtpgStatus::kDetected) continue;
    ASSERT_TRUE(fsim.line_fault_detected(f, r.pattern))
        << "seed=" << GetParam() << " " << f.describe(ckt);
  }
}

TEST_P(RandomCircuits, UntestableVerdictsAreTrueOnExhaustiveCheck) {
  // Small circuits: exhaustive simulation can certify an "untestable"
  // verdict — PODEM must never declare a detectable fault untestable.
  const logic::Circuit ckt = logic::random_circuit(GetParam(), 4, 12);
  const atpg::PodemEngine engine(ckt);
  const faults::FaultSimulator fsim(ckt);
  std::vector<Pattern> all;
  for (unsigned v = 0; v < 16u; ++v) {
    Pattern p(4);
    for (int i = 0; i < 4; ++i)
      p[static_cast<std::size_t>(i)] = logic::from_bool((v >> i) & 1u);
    all.push_back(std::move(p));
  }
  faults::FaultListOptions flo;
  flo.include_transistor_faults = false;
  for (const faults::Fault& f : generate_fault_list(ckt, flo)) {
    const atpg::AtpgResult r = engine.generate_line(f);
    if (r.status != atpg::AtpgStatus::kUntestable) continue;
    for (const Pattern& p : all)
      ASSERT_FALSE(fsim.line_fault_detected(f, p))
          << "seed=" << GetParam() << " " << f.describe(ckt)
          << " declared untestable but a pattern detects it";
  }
}

TEST_P(RandomCircuits, NetlistRoundTripPreservesSimulation) {
  const logic::Circuit ckt = logic::random_circuit(GetParam(), 5, 25);
  std::istringstream is(logic::to_netlist_string(ckt));
  const logic::Circuit back = logic::read_netlist(is);
  const logic::Simulator sim_a(ckt);
  const logic::Simulator sim_b(back);
  util::SplitMix64 rng(GetParam() + 5);
  for (int k = 0; k < 20; ++k) {
    const Pattern p = random_pattern(rng, ckt.primary_inputs().size());
    const logic::SimResult ra = sim_a.simulate(p);
    const logic::SimResult rb = sim_b.simulate(p);
    for (std::size_t i = 0; i < ckt.primary_outputs().size(); ++i)
      ASSERT_EQ(ra.value(ckt.primary_outputs()[i]),
                rb.value(back.primary_outputs()[i]));
  }
}

TEST_P(RandomCircuits, ScoapIsFiniteOnReachableNets) {
  const logic::Circuit ckt = logic::random_circuit(GetParam(), 6, 30);
  const auto scoap = atpg::compute_scoap(ckt);
  // Every net must be settable to at least one value, and every net that
  // feeds a PO cone must be observable.
  for (logic::NetId n = 0; n < ckt.net_count(); ++n) {
    EXPECT_LT(std::min(scoap[static_cast<std::size_t>(n)].cc0,
                       scoap[static_cast<std::size_t>(n)].cc1),
              1 << 20)
        << "net " << ckt.net_name(n);
  }
  for (const logic::NetId po : ckt.primary_outputs())
    EXPECT_EQ(scoap[static_cast<std::size_t>(po)].obs, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCircuits,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u));

}  // namespace
}  // namespace cpsinw
