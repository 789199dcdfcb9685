#include "faults/diagnosis.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "gates/fault_dictionary.hpp"
#include "logic/benchmarks.hpp"

namespace cpsinw::faults {
namespace {

using logic::LogicV;
using logic::Pattern;

std::vector<Pattern> exhaustive_patterns(const logic::Circuit& ckt) {
  const int n = static_cast<int>(ckt.primary_inputs().size());
  std::vector<Pattern> out;
  for (unsigned v = 0; v < (1u << n); ++v) {
    Pattern p(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      p[static_cast<std::size_t>(i)] = logic::from_bool((v >> i) & 1u);
    out.push_back(std::move(p));
  }
  return out;
}

/// Property: for every injected fault, diagnosis against the simulated
/// tester responses ranks a fully-explaining candidate first, and the
/// injected fault itself explains everything.
TEST(Diagnosis, InjectedFaultIsAlwaysFullyExplained) {
  const logic::Circuit ckt = logic::full_adder();
  const auto universe = generate_fault_list(ckt);
  const auto patterns = exhaustive_patterns(ckt);

  int checked = 0;
  for (std::size_t fi = 0; fi < universe.size(); fi += 5) {  // sample
    const Fault& injected = universe[fi];
    std::vector<Observation> obs;
    for (const Pattern& p : patterns)
      obs.push_back(predict_observation(ckt, injected, p));

    const auto ranked = diagnose(ckt, obs, universe);
    ASSERT_FALSE(ranked.empty());
    EXPECT_TRUE(ranked.front().explains_all())
        << injected.describe(ckt);
    bool injected_explains = false;
    for (const DiagnosisCandidate& c : ranked)
      if (c.fault == injected && c.explains_all()) injected_explains = true;
    EXPECT_TRUE(injected_explains) << injected.describe(ckt);
    ++checked;
  }
  EXPECT_GT(checked, 5);
}

TEST(Diagnosis, GoodMachineResponsesExonerateHardFaults) {
  const logic::Circuit ckt = logic::c17();
  faults::FaultListOptions flo;
  flo.include_transistor_faults = false;
  const auto universe = generate_fault_list(ckt, flo);
  const auto patterns = exhaustive_patterns(ckt);
  std::vector<Observation> obs;
  for (const Pattern& p : patterns)
    obs.push_back(predict_good_observation(ckt, p));
  const auto ranked = diagnose(ckt, obs, universe);
  // With exhaustive clean responses, no line fault can fully explain the
  // behaviour (c17 has no redundant stuck-at faults).
  for (const DiagnosisCandidate& c : ranked)
    EXPECT_FALSE(c.explains_all()) << c.fault.describe(ckt);
}

TEST(Diagnosis, IddqSignatureSeparatesPolarityFaultLocations) {
  // The paper's Table III localization story: each polarity fault has a
  // unique detecting vector, so the IDDQ signatures separate the devices.
  logic::Circuit c;
  const auto a = c.add_primary_input("a");
  const auto b = c.add_primary_input("b");
  const auto y = c.add_net("y");
  c.add_gate(gates::CellKind::kXor2, {a, b}, y);
  c.mark_primary_output(y);
  c.finalize();

  const Fault t1 = Fault::transistor(
      0, 0, gates::TransistorFault::kStuckAtNType);
  const Fault t2 = Fault::transistor(
      0, 1, gates::TransistorFault::kStuckAtNType);
  const auto patterns = exhaustive_patterns(c);
  std::vector<Observation> obs;
  for (const Pattern& p : patterns)
    obs.push_back(predict_observation(c, t1, p));
  const auto ranked = diagnose(c, obs, {t1, t2});
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_TRUE(ranked.front().fault == t1);
  EXPECT_TRUE(ranked.front().explains_all());
  EXPECT_FALSE(ranked.back().explains_all());
}

TEST(Diagnosis, ChannelBreakDecisionIsATwoCandidateDiagnosis) {
  // Intact vs broken under normal operation are indistinguishable (the
  // masking result); the dual-rail stimulus from the CB procedure is what
  // separates them — at cell level this shows up as the broken device
  // explaining the *clean* responses that the intact polarity fault
  // cannot.
  logic::Circuit c;
  const auto a = c.add_primary_input("a");
  const auto b = c.add_primary_input("b");
  const auto y = c.add_net("y");
  c.add_gate(gates::CellKind::kXor2, {a, b}, y);
  c.mark_primary_output(y);
  c.finalize();

  const Fault broken = Fault::transistor(
      0, 2, gates::TransistorFault::kStuckOpen);
  const auto patterns = exhaustive_patterns(c);
  std::vector<Observation> obs;
  for (const Pattern& p : patterns)
    obs.push_back(predict_observation(c, broken, p));
  // Under consistent-rail patterns, the broken device responds like the
  // good machine — its observations match the good predictions.
  for (std::size_t k = 0; k < patterns.size(); ++k) {
    const Observation good = predict_good_observation(c, patterns[k]);
    EXPECT_EQ(obs[k].iddq_elevated, good.iddq_elevated);
  }
}

TEST(Diagnosis, PredictionsMarkLineContention) {
  const logic::Circuit ckt = logic::c17();
  // SA1 on an input net: patterns driving it to 0 fight the short.
  const Fault f = Fault::net_stuck(ckt.find_net("1"), true);
  Pattern p(5, LogicV::k0);
  const Observation obs = predict_observation(ckt, f, p);
  EXPECT_TRUE(obs.iddq_elevated);
  Pattern p1 = p;
  p1[0] = LogicV::k1;  // net "1" driven to its stuck value: no fight
  EXPECT_FALSE(predict_observation(ckt, f, p1).iddq_elevated);
}

/// Ids outside the circuit, and a transistor fault without a kind, are
/// rejected by both entry points before anything indexes with them or
/// looks a dictionary up for them, also when a valid candidate comes
/// first.
TEST(Diagnosis, RejectsOutOfRangeFaults) {
  const logic::Circuit ckt = logic::c17();
  const Pattern ones(5, LogicV::k1);
  const std::vector<Observation> observed = {
      predict_good_observation(ckt, ones)};
  EXPECT_THROW((void)gates::dictionary(ckt.gate(0).kind,
                                       {-1, gates::TransistorFault::kStuckOn}),
               std::invalid_argument);
  for (const Fault& bad :
       {Fault::net_stuck(ckt.net_count() + 1000, true),
        Fault::transistor(0, -1, gates::TransistorFault::kStuckOn),
        Fault::input_stuck(99, 0, true),
        Fault::transistor(0, 0, gates::TransistorFault::kNone)}) {
    EXPECT_THROW((void)predict_observation(ckt, bad, ones),
                 std::invalid_argument);
    EXPECT_THROW((void)diagnose(ckt, observed, {bad}), std::invalid_argument);
    EXPECT_THROW(
        (void)diagnose(ckt, observed, {Fault::net_stuck(0, true), bad}),
        std::invalid_argument);
  }
  // The message names the entry point.
  try {
    (void)diagnose(ckt, observed, {Fault::input_stuck(99, 0, true)});
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "diagnose: line fault: gate id out of range");
  }
  try {
    (void)predict_observation(
        ckt, Fault::transistor(0, -1, gates::TransistorFault::kStuckOn), ones);
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "predict_observation: bad transistor index");
  }
}

}  // namespace
}  // namespace cpsinw::faults
