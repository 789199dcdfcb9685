// Transistor-level templates of the six controllable-polarity logic gates
// of paper Fig. 2: the Static-Polarity family (INV, NAND2, NOR2 — polarity
// gates tied to the rails) and the Dynamic-Polarity family (XOR2, XOR3,
// MAJ3 — polarity gates driven by input signals), plus a two-stage buffer.
//
// Transistor labels follow the paper's positional convention: t1/t2 form
// the pull-up (or first pass pair), t3/t4 the pull-down (or second pair).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cpsinw::gates {

/// Gate types available in the library.
enum class CellKind {
  kInv,
  kBuf,
  kNand2,
  kNor2,
  kXor2,
  kXor3,
  kMaj3,
};

/// All kinds, in a stable order (useful for parameterized tests/benches).
[[nodiscard]] const std::vector<CellKind>& all_cell_kinds();

/// Short cell name ("INV", "XOR2", ...).
[[nodiscard]] const char* to_string(CellKind kind);

/// Number of logical inputs of a cell.
[[nodiscard]] int input_count(CellKind kind);

/// True for Dynamic-Polarity cells (polarity gates driven by inputs).
[[nodiscard]] bool is_dynamic_polarity(CellKind kind);

/// Boolean function of the cell: bit i of `input_bits` is input i.
[[nodiscard]] std::uint8_t good_output(CellKind kind, unsigned input_bits);

/// Symbolic reference to a net inside a cell template.
struct Sig {
  enum class Kind : std::uint8_t {
    kGnd,       ///< ground rail ('0')
    kVdd,       ///< supply rail ('1')
    kIn,        ///< input i (true rail)
    kInBar,     ///< complement of input i (separate physical net)
    kOut,       ///< cell output
    kInternal,  ///< internal net i (series stacks, buffer stage)
  };
  Kind kind = Kind::kGnd;
  int index = 0;

  [[nodiscard]] static Sig gnd() { return {Kind::kGnd, 0}; }
  [[nodiscard]] static Sig vdd() { return {Kind::kVdd, 0}; }
  [[nodiscard]] static Sig in(int i) { return {Kind::kIn, i}; }
  [[nodiscard]] static Sig in_bar(int i) { return {Kind::kInBar, i}; }
  [[nodiscard]] static Sig out() { return {Kind::kOut, 0}; }
  [[nodiscard]] static Sig internal(int i) { return {Kind::kInternal, i}; }

  [[nodiscard]] bool operator==(const Sig&) const = default;
};

/// One TIG transistor inside a cell template.  In all Fig. 2 cells the two
/// polarity gates of a device are tied to the same signal; they remain
/// physically distinct terminals (fault injection can separate them).
/// `src` is the terminal adjacent to PGS.
struct TransistorSpec {
  std::string label;  ///< paper-style name: "t1".."t4"
  Sig cg;
  Sig pg;
  Sig src;
  Sig drn;
};

/// A complete cell template.
struct CellTemplate {
  CellKind kind = CellKind::kInv;
  std::string name;
  int n_inputs = 1;
  bool dynamic_polarity = false;
  int n_internal = 0;  ///< number of internal nets
  std::vector<TransistorSpec> transistors;
};

/// The template of a cell kind (static storage, never mutated).
[[nodiscard]] const CellTemplate& cell(CellKind kind);

/// Whether `transistor` indexes one of cell `kind`'s transistors: the
/// range rule of every entry point that takes a transistor fault.
[[nodiscard]] bool has_transistor(CellKind kind, int transistor);

/// Transistor-level fault kinds modeled at switch level (paper Secs. V-B,
/// V-C).  Floating-PG defects are analog-parametric and live at the SPICE
/// level (Fig. 5 experiments).
enum class TransistorFault : std::uint8_t {
  kNone,
  kStuckOpen,     ///< channel break: device never conducts
  kStuckOn,       ///< device always conducts (resistive short)
  kStuckAtNType,  ///< polarity contact bridged to '1' (paper's new model)
  kStuckAtPType,  ///< polarity contact bridged to '0' (paper's new model)
};

/// Readable fault name.
[[nodiscard]] const char* to_string(TransistorFault kind);

/// A fault bound to one transistor of a cell.
struct CellFault {
  int transistor = -1;  ///< index into CellTemplate::transistors; -1 = none
  TransistorFault kind = TransistorFault::kNone;

  [[nodiscard]] bool is_none() const {
    return kind == TransistorFault::kNone || transistor < 0;
  }
  [[nodiscard]] bool operator==(const CellFault&) const = default;
};

}  // namespace cpsinw::gates
