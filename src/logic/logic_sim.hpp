// Gate-level logic simulation: scalar 4-valued evaluation (good machine and
// single-fault machines based on the switch-level fault dictionaries).
// Pattern-parallel evaluation runs only on CompiledCircuit's bit-plane
// kernels, behind faults::EvalContext and faults::FaultSimulator.
#pragma once

#include <cassert>
#include <vector>

#include "gates/fault_dictionary.hpp"
#include "logic/circuit.hpp"
#include "logic/compiled_circuit.hpp"

namespace cpsinw::logic {

/// One fully- or partially-specified input pattern (indexed like
/// Circuit::primary_inputs()).
using Pattern = std::vector<LogicV>;

/// A transistor fault attached to a circuit gate.
struct GateFault {
  int gate = -1;
  gates::CellFault cell_fault;

  [[nodiscard]] bool operator==(const GateFault&) const = default;
};

/// Result of one scalar simulation pass.
struct SimResult {
  std::vector<LogicV> net_values;  ///< indexed by NetId
  /// True when the faulted gate sat in a contention row (elevated IDDQ) —
  /// the circuit-level IDDQ observable of the paper's polarity faults.
  bool iddq_flag = false;

  [[nodiscard]] LogicV value(NetId n) const {
    // Hot path: net ids come from the compiler / the circuit itself, so
    // bounds are a debug assertion, not a per-read check.
    assert(n >= 0 && static_cast<std::size_t>(n) < net_values.size());
    return net_values[static_cast<std::size_t>(n)];
  }
};

/// Scalar simulator.  Stateless between calls unless the caller threads a
/// `state` vector through (needed for the floating-output retention of
/// stuck-open faults across two-pattern sequences).  Construction compiles
/// the circuit once (logic::CompiledCircuit); every pass then runs off the
/// levelized table-driven kernels.
class Simulator {
 public:
  /// @param ckt finalized circuit (kept by reference; must outlive this)
  explicit Simulator(const Circuit& ckt);

  /// Good-machine evaluation.
  [[nodiscard]] SimResult simulate(const Pattern& pattern) const;

  /// Single-fault evaluation.  The faulted gate's output is produced by its
  /// switch-level fault dictionary; a floating (Z) output retains the value
  /// from `previous_state` (or X when absent).
  /// @throws std::invalid_argument when the gate id is not in
  ///   [0, gate_count()), or from gates::dictionary when the cell fault is
  ///   not in its table (a transistor index outside the cell, or no kind)
  [[nodiscard]] SimResult simulate_faulty(
      const Pattern& pattern, const GateFault& fault,
      const std::vector<LogicV>* previous_state = nullptr) const;

  /// As simulate_faulty, but with a caller-provided dictionary.
  [[nodiscard]] SimResult simulate_faulty_with(
      const Pattern& pattern, const GateFault& fault,
      const gates::FaultAnalysis& analysis,
      const std::vector<LogicV>* previous_state = nullptr) const;

  [[nodiscard]] const Circuit& circuit() const { return ckt_; }

 private:
  const Circuit& ckt_;
  CompiledCircuit cc_;
};

/// X-aware scalar evaluation of one cell: enumerates the binary
/// completions of X inputs and returns the output when they all agree,
/// X otherwise (no false pessimism on e.g. NAND(0, X) = 1).
[[nodiscard]] LogicV eval_cell_x(gates::CellKind kind, LogicV a,
                                 LogicV b = LogicV::kX,
                                 LogicV c = LogicV::kX);

}  // namespace cpsinw::logic
