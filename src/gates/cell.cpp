#include "gates/cell.hpp"

#include <array>
#include <stdexcept>

namespace cpsinw::gates {

const std::vector<CellKind>& all_cell_kinds() {
  static const std::vector<CellKind> kinds = {
      CellKind::kInv,  CellKind::kBuf,  CellKind::kNand2, CellKind::kNor2,
      CellKind::kXor2, CellKind::kXor3, CellKind::kMaj3};
  return kinds;
}

const char* to_string(CellKind kind) {
  switch (kind) {
    case CellKind::kInv: return "INV";
    case CellKind::kBuf: return "BUF";
    case CellKind::kNand2: return "NAND2";
    case CellKind::kNor2: return "NOR2";
    case CellKind::kXor2: return "XOR2";
    case CellKind::kXor3: return "XOR3";
    case CellKind::kMaj3: return "MAJ3";
  }
  return "?";
}

int input_count(CellKind kind) {
  switch (kind) {
    case CellKind::kInv:
    case CellKind::kBuf: return 1;
    case CellKind::kNand2:
    case CellKind::kNor2:
    case CellKind::kXor2: return 2;
    case CellKind::kXor3:
    case CellKind::kMaj3: return 3;
  }
  return 0;
}

bool is_dynamic_polarity(CellKind kind) {
  switch (kind) {
    case CellKind::kXor2:
    case CellKind::kXor3:
    case CellKind::kMaj3: return true;
    default: return false;
  }
}

std::uint8_t good_output(CellKind kind, unsigned input_bits) {
  const unsigned a = input_bits & 1u;
  const unsigned b = (input_bits >> 1) & 1u;
  const unsigned c = (input_bits >> 2) & 1u;
  switch (kind) {
    case CellKind::kInv: return static_cast<std::uint8_t>(a ^ 1u);
    case CellKind::kBuf: return static_cast<std::uint8_t>(a);
    case CellKind::kNand2: return static_cast<std::uint8_t>((a & b) ^ 1u);
    case CellKind::kNor2: return static_cast<std::uint8_t>((a | b) ^ 1u);
    case CellKind::kXor2: return static_cast<std::uint8_t>(a ^ b);
    case CellKind::kXor3: return static_cast<std::uint8_t>(a ^ b ^ c);
    case CellKind::kMaj3:
      return static_cast<std::uint8_t>(((a & b) | (b & c) | (a & c)));
  }
  return 0;
}

namespace {

// --- Static-Polarity cells ------------------------------------------------
// Pull-up devices are p-configured (PG = '0'), pull-down n-configured
// (PG = '1'), exactly as the paper states in Sec. V-A.

CellTemplate make_inv() {
  CellTemplate t;
  t.kind = CellKind::kInv;
  t.name = "INV";
  t.n_inputs = 1;
  t.dynamic_polarity = false;
  t.transistors = {
      {"t1", Sig::in(0), Sig::gnd(), Sig::vdd(), Sig::out()},
      {"t3", Sig::in(0), Sig::vdd(), Sig::gnd(), Sig::out()},
  };
  return t;
}

CellTemplate make_buf() {
  CellTemplate t;
  t.kind = CellKind::kBuf;
  t.name = "BUF";
  t.n_inputs = 1;
  t.dynamic_polarity = false;
  t.n_internal = 1;
  t.transistors = {
      {"t1", Sig::in(0), Sig::gnd(), Sig::vdd(), Sig::internal(0)},
      {"t2", Sig::in(0), Sig::vdd(), Sig::gnd(), Sig::internal(0)},
      {"t3", Sig::internal(0), Sig::gnd(), Sig::vdd(), Sig::out()},
      {"t4", Sig::internal(0), Sig::vdd(), Sig::gnd(), Sig::out()},
  };
  return t;
}

CellTemplate make_nand2() {
  CellTemplate t;
  t.kind = CellKind::kNand2;
  t.name = "NAND2";
  t.n_inputs = 2;
  t.dynamic_polarity = false;
  t.n_internal = 1;
  t.transistors = {
      // Parallel p-type pull-up.
      {"t1", Sig::in(0), Sig::gnd(), Sig::vdd(), Sig::out()},
      {"t2", Sig::in(1), Sig::gnd(), Sig::vdd(), Sig::out()},
      // Series n-type pull-down; t3 adjacent to the output, t4 to ground
      // (the paper observes t3's leakage is dominated by t4).
      {"t3", Sig::in(0), Sig::vdd(), Sig::internal(0), Sig::out()},
      {"t4", Sig::in(1), Sig::vdd(), Sig::gnd(), Sig::internal(0)},
  };
  return t;
}

CellTemplate make_nor2() {
  CellTemplate t;
  t.kind = CellKind::kNor2;
  t.name = "NOR2";
  t.n_inputs = 2;
  t.dynamic_polarity = false;
  t.n_internal = 1;
  t.transistors = {
      // Series p-type pull-up.
      {"t1", Sig::in(0), Sig::gnd(), Sig::vdd(), Sig::internal(0)},
      {"t2", Sig::in(1), Sig::gnd(), Sig::internal(0), Sig::out()},
      // Parallel n-type pull-down.
      {"t3", Sig::in(0), Sig::vdd(), Sig::gnd(), Sig::out()},
      {"t4", Sig::in(1), Sig::vdd(), Sig::gnd(), Sig::out()},
  };
  return t;
}

// --- Dynamic-Polarity cells -----------------------------------------------
// The paper's conduction rule: a device is ON iff CG = PGS = PGD.  A pair
// {CG=X, PG=Y} / {CG=X', PG=Y'} therefore conducts iff X != Y... see
// DESIGN.md 4.2 for the derivation of each pair's conduction condition.

CellTemplate make_xor2() {
  CellTemplate t;
  t.kind = CellKind::kXor2;
  t.name = "XOR2";
  t.n_inputs = 2;
  t.dynamic_polarity = true;
  t.transistors = {
      // Pull-up transmission pair: conducts iff A != B
      // (t1: n-mode at A=1,B=0; p-mode at A=0,B=1 — t2 complementary).
      {"t1", Sig::in_bar(1), Sig::in(0), Sig::vdd(), Sig::out()},
      {"t2", Sig::in(1), Sig::in_bar(0), Sig::vdd(), Sig::out()},
      // Pull-down transmission pair: conducts iff A == B.
      {"t3", Sig::in(1), Sig::in(0), Sig::gnd(), Sig::out()},
      {"t4", Sig::in_bar(1), Sig::in_bar(0), Sig::gnd(), Sig::out()},
  };
  return t;
}

CellTemplate make_xor3() {
  CellTemplate t;
  t.kind = CellKind::kXor3;
  t.name = "XOR3";
  t.n_inputs = 3;
  t.dynamic_polarity = true;
  t.transistors = {
      // Passes C-bar when A != B ...
      {"t1", Sig::in_bar(1), Sig::in(0), Sig::in_bar(2), Sig::out()},
      {"t2", Sig::in(1), Sig::in_bar(0), Sig::in_bar(2), Sig::out()},
      // ... and C when A == B:  A xor B xor C.
      {"t3", Sig::in(1), Sig::in(0), Sig::in(2), Sig::out()},
      {"t4", Sig::in_bar(1), Sig::in_bar(0), Sig::in(2), Sig::out()},
  };
  return t;
}

CellTemplate make_maj3() {
  CellTemplate t;
  t.kind = CellKind::kMaj3;
  t.name = "MAJ3";
  t.n_inputs = 3;
  t.dynamic_polarity = true;
  t.transistors = {
      // Passes C when A != B ...
      {"t1", Sig::in_bar(1), Sig::in(0), Sig::in(2), Sig::out()},
      {"t2", Sig::in(1), Sig::in_bar(0), Sig::in(2), Sig::out()},
      // ... and A when A == B:  MAJ(A,B,C) = (A==B) ? A : C.
      {"t3", Sig::in(1), Sig::in(0), Sig::in(0), Sig::out()},
      {"t4", Sig::in_bar(1), Sig::in_bar(0), Sig::in(0), Sig::out()},
  };
  return t;
}

}  // namespace

const CellTemplate& cell(CellKind kind) {
  static const CellTemplate inv = make_inv();
  static const CellTemplate buf = make_buf();
  static const CellTemplate nand2 = make_nand2();
  static const CellTemplate nor2 = make_nor2();
  static const CellTemplate xor2 = make_xor2();
  static const CellTemplate xor3 = make_xor3();
  static const CellTemplate maj3 = make_maj3();
  switch (kind) {
    case CellKind::kInv: return inv;
    case CellKind::kBuf: return buf;
    case CellKind::kNand2: return nand2;
    case CellKind::kNor2: return nor2;
    case CellKind::kXor2: return xor2;
    case CellKind::kXor3: return xor3;
    case CellKind::kMaj3: return maj3;
  }
  throw std::invalid_argument("cell: unknown kind");
}

bool has_transistor(CellKind kind, int transistor) {
  return transistor >= 0 &&
         transistor < static_cast<int>(cell(kind).transistors.size());
}

const char* to_string(TransistorFault kind) {
  switch (kind) {
    case TransistorFault::kNone: return "none";
    case TransistorFault::kStuckOpen: return "stuck-open";
    case TransistorFault::kStuckOn: return "stuck-on";
    case TransistorFault::kStuckAtNType: return "stuck-at-n-type";
    case TransistorFault::kStuckAtPType: return "stuck-at-p-type";
  }
  return "?";
}

}  // namespace cpsinw::gates
