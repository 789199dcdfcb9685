#include "gates/fault_dictionary.hpp"

#include <iterator>
#include <stdexcept>

namespace cpsinw::gates {

namespace {

/// The fault kinds of each transistor.  kFaultKinds[i] is
/// TransistorFault(i + 1), which dictionary() indexes by; kNone (0) has no
/// dictionary.
constexpr TransistorFault kFaultKinds[] = {
    TransistorFault::kStuckOpen, TransistorFault::kStuckOn,
    TransistorFault::kStuckAtNType, TransistorFault::kStuckAtPType};

}  // namespace

RowEffect classify_row(const FaultRow& row) {
  const SwitchEval& f = row.faulty;
  if (f.floating) return RowEffect::kFloating;
  const int lv = logic_value(f.out);
  if (lv >= 0 && lv != row.good) return RowEffect::kWrongValue;
  if (lv < 0) return RowEffect::kMarginal;
  return f.contention ? RowEffect::kIddqOnly : RowEffect::kNone;
}

bool FaultAnalysis::equivalent_to(const FaultAnalysis& other) const {
  if (kind != other.kind || rows.size() != other.rows.size()) return false;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SwitchEval& a = rows[i].faulty;
    const SwitchEval& b = other.rows[i].faulty;
    if (a.out != b.out || a.contention != b.contention ||
        a.floating != b.floating)
      return false;
  }
  return true;
}

bool FaultAnalysis::is_benign() const {
  for (const FaultRow& row : rows)
    if (classify_row(row) != RowEffect::kNone) return false;
  return true;
}

FaultAnalysis analyze_fault(CellKind kind, CellFault fault) {
  FaultAnalysis out;
  out.kind = kind;
  out.fault = fault;
  const int n = input_count(kind);
  const unsigned combos = 1u << n;
  out.rows.reserve(combos);
  out.compiled_logic.fill(-1);
  out.compiled_binary = true;
  for (unsigned v = 0; v < combos; ++v) {
    FaultRow row;
    row.input = v;
    row.good = good_output(kind, v);
    row.faulty = eval_switch(kind, v, fault);
    switch (classify_row(row)) {
      case RowEffect::kWrongValue:
        out.output_detectable = true;
        if (!out.first_output_vector) out.first_output_vector = v;
        break;
      case RowEffect::kMarginal:
        out.marginal_detectable = true;
        break;
      case RowEffect::kFloating:
        out.needs_sequence = true;
        break;
      default:
        break;
    }
    if (row.faulty.contention) {
      out.iddq_detectable = true;
      if (!out.first_iddq_vector) out.first_iddq_vector = v;
      out.compiled_contention |= static_cast<std::uint8_t>(1u << v);
    }
    // Compiled faulty-table view for the table-driven kernels.
    const int lv =
        row.faulty.floating ? -2 : logic_value(row.faulty.out);
    out.compiled_logic[v] = static_cast<std::int8_t>(lv);
    if (lv == 1) out.compiled_truth |= static_cast<std::uint8_t>(1u << v);
    if (lv != 0 && lv != 1) out.compiled_binary = false;
    out.rows.push_back(row);
  }
  return out;
}

std::vector<CellFault> enumerate_transistor_faults(CellKind kind) {
  std::vector<CellFault> out;
  const auto& tpl = cell(kind);
  out.reserve(tpl.transistors.size() * std::size(kFaultKinds));
  for (std::size_t t = 0; t < tpl.transistors.size(); ++t)
    for (const TransistorFault k : kFaultKinds)
      out.push_back({static_cast<int>(t), k});
  return out;
}

std::vector<FaultAnalysis> all_fault_analyses(CellKind kind) {
  std::vector<FaultAnalysis> out;
  for (const CellFault& f : enumerate_transistor_faults(kind))
    out.push_back(analyze_fault(kind, f));
  return out;
}

const FaultAnalysis& dictionary(CellKind kind, const CellFault& fault) {
  // Row k holds cell kind k's dictionaries (all_cell_kinds() lists the
  // enum in order) in enumerate_transistor_faults order: transistor-major,
  // then fault kind.  Never destroyed: a thread still running at exit (a
  // shard server's detached connections) may read it after static
  // destruction begins.
  static const auto* const table = [] {
    auto* rows = new std::vector<std::vector<FaultAnalysis>>();
    for (const CellKind k : all_cell_kinds())
      rows->push_back(all_fault_analyses(k));
    return rows;
  }();
  constexpr std::size_t kKinds = std::size(kFaultKinds);
  const auto k = static_cast<std::size_t>(kind);
  const auto f = static_cast<std::size_t>(fault.kind);
  if (k < table->size() && fault.transistor >= 0 && f >= 1 && f <= kKinds) {
    const std::vector<FaultAnalysis>& row = (*table)[k];
    const std::size_t i =
        static_cast<std::size_t>(fault.transistor) * kKinds + (f - 1);
    if (i < row.size()) return row[i];
  }
  throw std::invalid_argument("dictionary: no such cell fault");
}

}  // namespace cpsinw::gates
