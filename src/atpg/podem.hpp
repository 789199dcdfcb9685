// PODEM-based automatic test pattern generation.
//
// One engine serves all the fault classes of the paper:
//   * classical line stuck-at (stem and input-branch faults),
//   * functional transistor faults (stuck-on and the new stuck-at-n-type /
//     stuck-at-p-type polarity faults) — the fault transforms the faulted
//     gate's function per its switch-level dictionary, and the engine
//     excites one dictionary cube and propagates the resulting D,
//   * IDDQ tests (justification-only: excite a contention cube; no output
//     propagation is required because the supply current is globally
//     observable — the paper's leakage-detect rows of Table III).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "atpg/five_valued.hpp"
#include "atpg/scoap.hpp"
#include "faults/fault.hpp"
#include "gates/fault_dictionary.hpp"
#include "logic/logic_sim.hpp"

namespace cpsinw::atpg {

/// Outcome of one generation attempt.
enum class AtpgStatus {
  kDetected,     ///< pattern generated (and internally consistent)
  kUntestable,   ///< search space exhausted: no test exists in this mode
  kAborted,      ///< backtrack limit hit
};

/// Readable status.
[[nodiscard]] const char* to_string(AtpgStatus status);

/// A generated test.
struct AtpgResult {
  AtpgStatus status = AtpgStatus::kUntestable;
  logic::Pattern pattern;   ///< fully specified (X choices filled with 0)
  int backtracks = 0;
  /// For functional faults: the excited dictionary cube (local input bits).
  std::optional<unsigned> excited_cube;
};

/// Engine options.
struct PodemOptions {
  int backtrack_limit = 5000;
};

/// The switch-level dictionary of a transistor fault of `ckt`
/// (gates::dictionary), looked up only once transistor_fault_error passes
/// the fault, so a bad one is rejected with its reason.
/// @throws std::invalid_argument naming `where` when `fault` is not a
///   transistor fault, its gate id is not in [0, gate_count()), it has no
///   kind, or its transistor index is not in [0, the cell's transistor
///   count)
[[nodiscard]] const gates::FaultAnalysis& checked_transistor_dictionary(
    const logic::Circuit& ckt, const faults::Fault& fault, const char* where);

/// PODEM engine bound to a finalized circuit.  Construction compiles the
/// circuit once (logic::CompiledCircuit, whose fan-out table over
/// levelized gate positions drives implication), computes SCOAP measures,
/// and builds the search tables every call shares: each net's index among
/// the PIs, the SCOAP observability of each position's output, and the
/// fault-free state with every PI at X and constants propagated.  A
/// search starts from that all-X state and re-evaluates only what its
/// target changes (the forced stem's fan-out, the branch gate, or the
/// functional gate).  Implication is event-driven: a decision, flip or
/// unassign re-evaluates, in one ascending sweep over a dirty bit per
/// position, only gates whose inputs changed, off the levelized 4-valued
/// tables.  The D-frontier is a bit
/// per position, updated whenever its gate is re-evaluated, next to a
/// running count of nets carrying D or D-bar.  SCOAP guides the
/// backtrace (cheapest controllable input first) and the propagation
/// objective (the most observable D-frontier gate that still has an
/// unassigned input, ties by gate id).  The full-pass search this
/// replaced is the differential oracle in tests/atpg/reference_podem.hpp.
/// The engine is immutable once built and every call runs its own search
/// state, so calls on one engine may run concurrently (the test flow's
/// per-fault searches do).
class PodemEngine {
 public:
  explicit PodemEngine(const logic::Circuit& ckt);

  /// Generates a test detecting a line stuck-at fault at a primary output.
  [[nodiscard]] AtpgResult generate_line(const faults::Fault& fault,
                                         const PodemOptions& opt = {}) const;

  /// Generates a test for a functional transistor fault (wrong output
  /// value observable at a PO).  Marginal (X) faulty rows are not targeted
  /// — they are only potentially detectable.
  [[nodiscard]] AtpgResult generate_functional(
      const faults::Fault& fault, const PodemOptions& opt = {}) const;

  /// Generates an IDDQ test: justifies a contention cube of the fault.
  [[nodiscard]] AtpgResult generate_iddq(const faults::Fault& fault,
                                         const PodemOptions& opt = {}) const;

  /// Second vector of a two-pattern stuck-open test: at local cube `cube`
  /// the faulted gate's output floats and retains the initialized value
  /// (the complement of the good output `good_is_one`); the engine
  /// justifies the cube and propagates the resulting D to a PO.
  [[nodiscard]] AtpgResult generate_functional_retained(
      const faults::Fault& fault, unsigned cube, bool good_is_one,
      const PodemOptions& opt = {}) const;

  /// Justifies an arbitrary cube at a gate's local inputs (used by the
  /// two-pattern and channel-break generators).
  [[nodiscard]] AtpgResult justify_gate_cube(int gate, unsigned cube,
                                             const PodemOptions& opt = {})
      const;

  /// Justifies a single net to a binary value (used by transition-fault
  /// launch patterns).
  [[nodiscard]] AtpgResult justify_net_value(logic::NetId net,
                                             logic::LogicV value,
                                             const PodemOptions& opt = {})
      const;

  /// Justifies several nets to binary values simultaneously (used by
  /// bridging-fault IDDQ tests, which need opposite values on two nets).
  [[nodiscard]] AtpgResult justify_net_values(
      const std::vector<std::pair<logic::NetId, logic::LogicV>>& goals,
      const PodemOptions& opt = {}) const;

  [[nodiscard]] const logic::Circuit& circuit() const { return ckt_; }

  /// The engine's compilation: the flow's candidate checks build their
  /// contexts over it instead of compiling the circuit again.
  [[nodiscard]] const logic::CompiledCircuit& compiled() const { return cc_; }

 private:
  class Solver;  ///< one search over the tables below (podem.cpp)

  const logic::Circuit& ckt_;
  logic::CompiledCircuit cc_;
  std::vector<Testability> scoap_;
  std::vector<int> pi_index_;  ///< per net: index among the PIs, or -1
  std::vector<int> obs_;  ///< per position: SCOAP observability of its output
  std::vector<V5> all_x_;  ///< per net: fault-free value, every PI at X
};

}  // namespace cpsinw::atpg
