// Exhaustive switch-level fault analysis per cell: for every transistor
// fault, the faulty behaviour over all input vectors, plus detectability
// classification.  These dictionaries are what the logic-level fault
// simulator and the functional-fault ATPG consume.
//
// analyze_fault() derives one dictionary from scratch (2^n switch-level
// evaluations).  The cell library is fixed, so dictionary() holds every
// one of its dictionaries (all_cell_kinds() x
// enumerate_transistor_faults(kind)) in one table, derived once per
// process on first use: every fault-simulation, ATPG, collapsing and
// diagnosis pass reads that table, and a lookup is a range check and an
// index.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <optional>
#include <vector>

#include "gates/cell.hpp"
#include "gates/switch_level.hpp"

namespace cpsinw::gates {

/// Behaviour of a faulty cell at one input vector.
struct FaultRow {
  unsigned input = 0;       ///< input combination (bit i = input i)
  std::uint8_t good = 0;    ///< fault-free output
  SwitchEval faulty;        ///< switch-level evaluation with the fault
};

/// How a single row compares against the good machine.
enum class RowEffect {
  kNone,        ///< identical definite value, no contention
  kIddqOnly,    ///< correct output but contention (elevated IDDQ)
  kWrongValue,  ///< definite opposite logic value at the output
  kMarginal,    ///< X or degraded (weak) level at the output
  kFloating,    ///< output floats (sequence-dependent behaviour)
};

/// Classifies one row.
[[nodiscard]] RowEffect classify_row(const FaultRow& row);

/// Complete dictionary entry for (cell, fault).
struct FaultAnalysis {
  CellKind kind = CellKind::kInv;
  CellFault fault;
  std::vector<FaultRow> rows;  ///< 2^n rows in input order

  bool output_detectable = false;    ///< some row is kWrongValue
  bool marginal_detectable = false;  ///< some row is kMarginal
  bool iddq_detectable = false;      ///< some row has contention
  bool needs_sequence = false;       ///< floating rows exist (stuck-open)

  std::optional<unsigned> first_output_vector;  ///< first kWrongValue row
  std::optional<unsigned> first_iddq_vector;    ///< first contention row

  // Compiled faulty-table view, derived once alongside the rows — what the
  // table-driven evaluation kernels consume (see logic::CompiledCircuit).
  // Indexed by the local binary input vector (bit i = input i); only the
  // cell's 2^n low entries/bits are meaningful.
  std::array<std::int8_t, 8> compiled_logic{};  ///< faulty_logic(v) per row
  std::uint8_t compiled_truth = 0;       ///< bit v: faulty output is 1 at v
  std::uint8_t compiled_contention = 0;  ///< bit v: row v contends (IDDQ)
  /// Every row resolves to a definite binary value (no floating rows to
  /// retain, no marginal rows to propagate as X): the fault behaves as a
  /// combinational table substitution, so packed 64-pattern evaluation is
  /// valid.  Equivalent to !needs_sequence && !marginal_detectable.
  bool compiled_binary = false;

  /// 4-valued faulty output for the logic simulator:
  /// 0, 1, -1 = X/marginal, -2 = Z (retains).
  [[nodiscard]] int faulty_logic(unsigned input) const {
    assert(input < rows.size());
    return compiled_logic[input];
  }

  /// True when the fault is behaviourally identical to another analysis
  /// (used for fault collapsing).
  [[nodiscard]] bool equivalent_to(const FaultAnalysis& other) const;

  /// True when the fault has no effect at any input vector (e.g. bridging
  /// a rail-tied polarity gate to the rail it is already tied to): not an
  /// electrical defect at all.
  [[nodiscard]] bool is_benign() const;
};

/// Runs the exhaustive analysis for one fault.
[[nodiscard]] FaultAnalysis analyze_fault(CellKind kind, CellFault fault);

/// Enumerates all distinct transistor faults of a cell
/// (4 fault kinds x transistor count).
[[nodiscard]] std::vector<CellFault> enumerate_transistor_faults(
    CellKind kind);

/// Analyses for every transistor fault of a cell.
[[nodiscard]] std::vector<FaultAnalysis> all_fault_analyses(CellKind kind);

/// The dictionary of (kind, fault) from the library's table, which the
/// first call of the process derives whole (thread-safe; later calls only
/// read).  Every call for one key returns one address, valid until exit.
/// @throws std::invalid_argument when the key is not in the table: a cell
///   kind outside all_cell_kinds(), a transistor index outside
///   [0, the cell's transistor count), or TransistorFault::kNone
[[nodiscard]] const FaultAnalysis& dictionary(CellKind kind,
                                              const CellFault& fault);

}  // namespace cpsinw::gates
