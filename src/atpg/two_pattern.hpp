// Two-pattern test generation for stuck-open (channel-break) faults in
// Static-Polarity gates (paper Sec. V-C): the first vector initializes the
// gate output, the second would switch it through the broken device — the
// output floats and retains the wrong value.
//
// Tests are non-robust (hazards are not analyzed); every generated pair is
// verified by sequential fault simulation before being reported.
#pragma once

#include <optional>
#include <vector>

#include "atpg/podem.hpp"
#include "faults/fault_sim.hpp"

namespace cpsinw::atpg {

/// A verified two-pattern stuck-open test.
struct TwoPatternTest {
  faults::Fault fault;
  logic::Pattern init;    ///< v1: initialization vector
  logic::Pattern test;    ///< v2: excitation/observation vector
  unsigned init_cube = 0; ///< local gate vector of v1
  unsigned test_cube = 0; ///< local gate vector of v2
};

/// Result for one fault.
struct TwoPatternResult {
  AtpgStatus status = AtpgStatus::kUntestable;
  std::optional<TwoPatternTest> test;
  int attempts = 0;
};

/// Generates a verified two-pattern test for a stuck-open fault with a
/// local engine (one compile and SCOAP pass per call).
/// @throws std::invalid_argument when the fault is not a transistor
///   stuck-open
[[nodiscard]] TwoPatternResult generate_two_pattern(
    const logic::Circuit& ckt, const faults::Fault& fault,
    const PodemOptions& opt = {});

/// As above, against a caller-owned engine: a sweep or a flow compiles the
/// circuit and computes SCOAP once instead of per fault.  Each candidate
/// pair is verified on a two-pattern context over engine.compiled().
[[nodiscard]] TwoPatternResult generate_two_pattern(
    const PodemEngine& engine, const faults::Fault& fault,
    const PodemOptions& opt = {});

/// Generates two-pattern tests for every stuck-open fault of the circuit;
/// returns one entry per fault in enumeration order.
[[nodiscard]] std::vector<TwoPatternResult> generate_all_stuck_open_tests(
    const logic::Circuit& ckt, const PodemOptions& opt = {});

}  // namespace cpsinw::atpg
