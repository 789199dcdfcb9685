// Cause-effect fault diagnosis: given the tester's observed responses
// (output values and IDDQ flags per applied pattern), rank the candidate
// faults whose simulated behaviour explains the observations.
//
// This is the flip side of the paper's test algorithms: the same
// dictionaries that generate tests predict responses, and the channel-break
// decision rule ("clean response under the polarity-complement stimulus
// means the channel is broken") is a two-candidate special case of the
// general matcher.
#pragma once

#include <span>
#include <vector>

#include "faults/fault_list.hpp"
#include "faults/fault_sim.hpp"

namespace cpsinw::faults {

/// One tester observation: the applied pattern and what was measured.
struct Observation {
  logic::Pattern pattern;
  std::vector<logic::LogicV> outputs;  ///< observed PO values
  bool iddq_elevated = false;          ///< supply-current strobe
};

/// A ranked diagnosis candidate.
struct DiagnosisCandidate {
  Fault fault;
  int matches = 0;       ///< observations fully explained
  int mismatches = 0;    ///< observations contradicting the fault
  double score = 0.0;    ///< matches / total (ties broken by enumeration)

  [[nodiscard]] bool explains_all() const { return mismatches == 0; }
};

/// Builds the observation a fault would produce for a pattern (simulated
/// tester): useful for tests and for generating diagnosis fixtures.
/// Patterns are treated independently (no sequence retention), matching a
/// combinational tester flow.
/// @throws std::invalid_argument when the fault's ids do not fit the
///   circuit or a transistor fault has no kind (see checked_line_fault
///   and transistor_fault_error)
[[nodiscard]] Observation predict_observation(const logic::Circuit& ckt,
                                              const Fault& fault,
                                              const logic::Pattern& pattern);

/// The fault-free prediction for a pattern.
[[nodiscard]] Observation predict_good_observation(
    const logic::Circuit& ckt, const logic::Pattern& pattern);

/// Ranks every candidate whose simulated responses are consistent with the
/// observations; candidates are ordered by descending score.
/// An X in a simulated output is compatible with any observed value.
/// @throws std::invalid_argument when some candidate's ids do not fit the
///   circuit or a transistor candidate has no kind, before any candidate
///   is simulated
[[nodiscard]] std::vector<DiagnosisCandidate> diagnose(
    const logic::Circuit& ckt, std::span<const Observation> observations,
    const std::vector<Fault>& candidates);

}  // namespace cpsinw::faults
