// Transition (gross-delay) fault testing.
//
// The paper maps two defect classes onto delay faults: gate-oxide shorts
// (Sec. IV-B: reduced I_DSAT -> slower edges) and floating polarity gates
// below the stuck-open threshold (Sec. V-A: the "delay fault and stuck-on"
// V_cut region).  Under the gross-delay assumption the late value at
// capture time behaves like a temporary stuck-at of the pre-transition
// value, which reduces generation to a launch (justify the initial value)
// plus a capture (a stuck-at test for the old value).
#pragma once

#include <optional>
#include <vector>

#include "atpg/podem.hpp"

namespace cpsinw::atpg {

/// A slow-to-rise or slow-to-fall fault on a net.
struct TransitionFault {
  logic::NetId net = -1;
  bool slow_to_rise = true;  ///< false = slow-to-fall

  [[nodiscard]] bool operator==(const TransitionFault&) const = default;

  /// Pre-transition (late) value of the net.
  [[nodiscard]] logic::LogicV old_value() const {
    return slow_to_rise ? logic::LogicV::k0 : logic::LogicV::k1;
  }
};

/// A verified launch/capture pair.
struct TransitionTest {
  TransitionFault fault;
  logic::Pattern launch;
  logic::Pattern capture;
};

/// Result for one fault.
struct TransitionResult {
  AtpgStatus status = AtpgStatus::kUntestable;
  std::optional<TransitionTest> test;
};

/// Enumerates both transition faults on every non-constant net.
[[nodiscard]] std::vector<TransitionFault> enumerate_transition_faults(
    const logic::Circuit& ckt);

/// Gross-delay detection check: the launch pattern must set the net to its
/// old value, the capture pattern must both create the transition and
/// propagate the (late) old value to a primary output.
[[nodiscard]] bool transition_detected(const logic::Circuit& ckt,
                                       const TransitionFault& fault,
                                       const logic::Pattern& launch,
                                       const logic::Pattern& capture);

/// Generates a verified launch/capture pair for a transition fault.
[[nodiscard]] TransitionResult generate_transition_test(
    const logic::Circuit& ckt, const TransitionFault& fault,
    const PodemOptions& opt = {});

/// As above, against a caller-owned engine: the whole-netlist sweep
/// compiles the circuit and computes SCOAP once instead of per fault, and
/// each launch/capture pair is checked over engine.compiled().
[[nodiscard]] TransitionResult generate_transition_test(
    const PodemEngine& engine, const TransitionFault& fault,
    const PodemOptions& opt = {});

/// Transition-fault summary over a circuit.
struct TransitionCoverage {
  int total = 0;
  int detected = 0;
  int untestable = 0;
  int aborted = 0;
  std::vector<TransitionTest> tests;

  [[nodiscard]] double coverage() const {
    return total == 0 ? 1.0
                      : static_cast<double>(detected) /
                            static_cast<double>(total);
  }
};

/// Runs transition ATPG over the whole net list.
[[nodiscard]] TransitionCoverage generate_all_transition_tests(
    const logic::Circuit& ckt, const PodemOptions& opt = {});

}  // namespace cpsinw::atpg
