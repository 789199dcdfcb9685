// One-time compilation of a finalized Circuit into levelized, table-driven
// arrays: the single evaluation kernel under scalar simulation, the packed
// bit-plane kernels of fault simulation, and the ATPG forward-implication
// passes.
//
// The compiler flattens the gate list into topological order (exactly
// Circuit::topo_order(), so every consumer sees the same evaluation
// sequence as the interpreted walk it replaced), resolves every pin to a
// value slot (slot == NetId; unused pins alias slot 0, whose value the
// tables ignore), and attaches to each record the 64-entry 4-valued
// good-machine truth table of its cell kind.  Beside the records it keeps
// each net's readers as levelized positions and a PO flag per net: the
// one fan-out table that PODEM's implication, the event-driven stem walks
// and EvalContext's row memo read.  A faulty gate substitutes a
// compiled table derived from its switch-level fault dictionary
// (gates::FaultAnalysis::compiled_*), so the fault-simulation hot loops
// never re-consult dictionary rows per pattern.
//
// Invariants:
//   * the circuit is borrowed and must outlive the CompiledCircuit;
//   * a Circuit is immutable after finalize(), so the tables are built
//     once per CompiledCircuit and never rebuilt — a new Circuit object
//     needs a new compilation;
//   * every kernel is bit-identical to the interpreted evaluator it
//     replaced (pinned by tests/logic/compiled_circuit_test.cpp against
//     the interpreted walks kept in tests/logic/reference_logic.hpp, and
//     by the campaign engine's byte-identical-JSON suites).
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "gates/fault_dictionary.hpp"
#include "logic/circuit.hpp"
#include "logic/types.hpp"

namespace cpsinw::logic {

class CompiledCircuit {
 public:
  /// Scalar table codes, 2 bits per pin: k0 -> 0, k1 -> 1, kX/kZ -> 2.
  static constexpr unsigned kCode0 = 0;
  static constexpr unsigned kCode1 = 1;
  static constexpr unsigned kCodeX = 2;

  /// One levelized gate record.  `table` points at the shared 64-entry
  /// 4-valued good table of the cell kind, indexed by the packed codes of
  /// the three pins (unused pins contribute don't-care bits: every entry
  /// that differs only in them holds the same value).
  struct GateRec {
    const LogicV* table = nullptr;
    gates::CellKind kind = gates::CellKind::kInv;
    std::uint8_t n_in = 1;
    int id = -1;                          ///< original Circuit gate id
    std::array<NetId, 3> in = {0, 0, 0};  ///< input slots (unused -> 0)
    NetId out = 0;
  };

  /// A line stuck-at fault at the logic layer: either a stem (`net` >= 0)
  /// or an input branch (`gate`, `pin`).
  struct LineFault {
    NetId net = -1;
    int gate = -1;
    int pin = -1;
    bool stuck_one = false;
  };

  /// A bridge at the logic layer: nets `a` and `b` (distinct) shorted, so
  /// both read one wired value of their two driver values.
  struct Bridge {
    enum class Wire : std::uint8_t { kAnd, kOr, kDominantA, kDominantB };
    NetId a = -1;
    NetId b = -1;
    Wire wire = Wire::kAnd;
  };

  /// @param ckt finalized circuit; borrowed, must outlive this object
  /// @throws std::invalid_argument when not finalized
  explicit CompiledCircuit(const Circuit& ckt);

  [[nodiscard]] const Circuit& circuit() const { return *ckt_; }

  /// Compilations built so far in this process (a relaxed counter bumped
  /// by the constructor), so tests can pin how often a job compiles.
  [[nodiscard]] static std::uint64_t compile_count();

  /// Gate records in Circuit::topo_order() order.
  [[nodiscard]] const std::vector<GateRec>& gates() const { return gates_; }

  /// Levelized position of a gate id inside gates().
  [[nodiscard]] std::size_t position_of(int gate_id) const {
    assert(gate_id >= 0 &&
           static_cast<std::size_t>(gate_id) < position_.size());
    return position_[static_cast<std::size_t>(gate_id)];
  }

  /// The levelized positions of the gates that read `net`, ascending; a
  /// gate that reads the net on two pins is listed once.  PODEM's event
  /// queue, the stem walks and EvalContext's row memo share this table.
  [[nodiscard]] std::span<const std::uint32_t> fanout(NetId net) const {
    const auto n = static_cast<std::size_t>(net);
    assert(n + 1 < fanout_offset_.size());
    return {fanout_.data() + fanout_offset_[n],
            fanout_.data() + fanout_offset_[n + 1]};
  }

  /// True when `net` is a primary output.
  [[nodiscard]] bool is_po(NetId net) const {
    assert(net >= 0 && static_cast<std::size_t>(net) < is_po_.size());
    return is_po_[static_cast<std::size_t>(net)] != 0;
  }

  /// Scalar table code of a value (kZ reads as kX, exactly like the
  /// interpreted X-aware evaluation treated it).
  [[nodiscard]] static unsigned code(LogicV v) {
    constexpr unsigned kCodes[4] = {kCodeX, kCodeX, kCode0, kCode1};
    return kCodes[(static_cast<unsigned>(static_cast<int>(v)) + 2u) & 3u];
  }

  /// The 64-entry 4-valued good table of a cell kind (shared static
  /// storage, derived once per process from eval_cell_x / good_output).
  [[nodiscard]] static const LogicV* good_table(gates::CellKind kind);

  // ---- scalar kernels -----------------------------------------------------

  /// Seeds `values` for a scalar pass: X everywhere, binary constants,
  /// then the pattern over the primary inputs (pattern arity must match;
  /// asserted in debug, callers validate).
  void init_scalar(const std::vector<LogicV>& pattern,
                   std::vector<LogicV>& values) const;

  /// Good-machine forward pass over the whole circuit, in place.
  void eval_scalar(std::vector<LogicV>& values) const;

  /// Forward pass with `fault_gate`'s output produced by the compiled
  /// faulty table of `fa`: binary local inputs index compiled_logic
  /// (floating rows retain `previous_state`, marginal rows read X); any X
  /// local input yields X.  @returns true when a contention row was
  /// excited (the IDDQ observable).
  bool eval_scalar_faulty(std::vector<LogicV>& values, int fault_gate,
                          const gates::FaultAnalysis& fa,
                          const std::vector<LogicV>* previous_state) const;

  // ---- SoA bit-plane kernels (multi-word, SIMD) ----------------------------
  //
  // Layout: planes[net * stride + w] holds pattern word `w` of net `net` —
  // structure-of-arrays, so one net's words are contiguous and a group of
  // kSimdWords words is one aligned-width vector load.  `stride` must come
  // from plane_stride(): padded to a multiple of kSimdWords so the group
  // kernels have no tail loop (padding words are computed but never read —
  // callers mask by their active words).  Packed contexts are binary-only
  // (EvalContext falls back to scalar on any X), so the good machine is one
  // value plane per net.  X appears only on the nets a stem's X walk
  // reaches, which keeps the X plane in the lanes and derives the value
  // rail from the good planes (value = good & ~X: an X on one net leaves
  // every binary net at its good value).

  /// Pattern words processed per SIMD step (4 x 64 = 256 patterns).
  static constexpr std::size_t kSimdWords = 4;
  /// No kernel batches line faults any more; perfbench still reads this
  /// constant for its lane-fill metric, and ROADMAP item 10 drops both.
  static constexpr std::size_t kBatchLanes = 4;

  /// Plane stride in words for `n_words` pattern words.
  [[nodiscard]] static constexpr std::size_t plane_stride(
      std::size_t n_words) {
    return (n_words + kSimdWords - 1) / kSimdWords * kSimdWords;
  }

  /// Seeds the SoA plane buffer: 0 everywhere, ~0 on constant-1 rows, and
  /// the PI plane rows copied in.  `pi_planes` uses the same layout with
  /// one row per primary input (Circuit::primary_inputs() order).
  void init_packed_planes(const std::uint64_t* pi_planes, std::size_t stride,
                          std::vector<std::uint64_t>& planes) const;

  /// Good-machine forward pass over every plane word, in place.  Walks
  /// kSimdWords-word groups in the outer loop so each group's working set
  /// is one vector register per net.  Bit-identical on every backend to
  /// the cells' 4-valued tables per pattern (on binary planes they reduce
  /// to bitwise forms).
  void eval_packed_planes(std::vector<std::uint64_t>& planes,
                          std::size_t stride) const;

  /// Stem walk: the observability row of `stem` over all pattern words.
  /// The net is flipped in every word and the flip propagates
  /// event-driven through the fan-out table, sharing the good planes as
  /// the fault-free machine: a gate is evaluated only when one of its
  /// inputs differs from the good machine in some pattern word of the
  /// strip, and its readers only when its own output does.  Per word,
  /// `obs` receives the OR of the PO differences (unmasked — callers AND
  /// with their active words): bit k is set when flipping the net under
  /// that pattern flips some PO.  Any net may be walked (a PO's row comes
  /// out all ones).  `lane_scratch` is the layout
  /// eval_packed_stem_x_planes and eval_packed_bridge_planes share.
  /// @returns the gate evaluations, summed over the walk's strips
  std::size_t eval_packed_stem_planes(
      const std::uint64_t* good_planes, std::size_t stride,
      std::size_t n_words, NetId stem, std::uint64_t* obs,
      std::vector<std::uint64_t>& lane_scratch) const;

  /// X walk: the X observability row of `stem` over all pattern words.
  /// The net is set to X in every word and the X propagates event-driven,
  /// like the flip of eval_packed_stem_planes, in dual rail (X-exact
  /// against eval_cell_x); a gate's readers are evaluated only where its
  /// output carries an X.  Per word, `xobs` receives the OR of the PO X
  /// planes (unmasked): bit k is set when an X on the net under that
  /// pattern reaches some PO as X.  Any net may be walked (a PO's row
  /// comes out all ones).
  /// @returns the gate evaluations, summed over the walk's strips
  std::size_t eval_packed_stem_x_planes(
      const std::uint64_t* good_planes, std::size_t stride,
      std::size_t n_words, NetId stem, std::uint64_t* xobs,
      std::vector<std::uint64_t>& lane_scratch) const;

  /// Plane-wide bridge kernel, bit-identical per pattern to the bounded
  /// (4-round) feedback fixpoint of faults::simulate_bridge on binary
  /// patterns.  Both nets read one wired value w per round, so every round
  /// is one of two binary passes over the fan-out cone of {a, b} (their
  /// drivers skipped): N0 with a = b = 0 and N1 with a = b = 1.  Per
  /// pattern bit the next round's w is G(w) = wire(driver_a(N_w),
  /// driver_b(N_w)), where a net without a driver (a PI or a constant)
  /// reads w itself.  A constant or identity G converges, on the wired
  /// value of the good a and b, and the bit reads that N_w.  The negation
  /// oscillates, and the scalar path's oscillation rule (a = b = X) can
  /// never flip a PO: three-valued propagation is sound, so a binary PO
  /// equals the good machine's value.  The cone is cached in
  /// `lane_scratch` (the stem walks' layout) and rediscovered only when the
  /// pair changes or a stem walk has run on the scratch since, so a pair's
  /// four behaviours share it.
  /// Writes per word (unmasked): `detect` (some PO binary and different
  /// from good) and `contention` (the good machine drives a and b to
  /// opposite values: the IDDQ excitation).
  /// @param bridge validated descriptor (see faults::checked_bridge)
  /// @param n1_scratch the N1 lane set, parallel to the N0 lanes of
  ///   `lane_scratch`; reused across calls, resized internally
  void eval_packed_bridge_planes(const std::uint64_t* good_planes,
                                 std::size_t stride, std::size_t n_words,
                                 const Bridge& bridge, std::uint64_t* detect,
                                 std::uint64_t* contention,
                                 std::vector<std::uint64_t>& lane_scratch,
                                 std::vector<std::uint64_t>& n1_scratch) const;

 private:
  void eval_scalar_range(LogicV* values, std::size_t from,
                         std::size_t to) const;

  const Circuit* ckt_;
  std::vector<GateRec> gates_;          ///< levelized (topo) order
  std::vector<std::size_t> position_;   ///< gate id -> index into gates_
  /// Per net: its readers' positions, as CSR (row n is
  /// fanout_[fanout_offset_[n], fanout_offset_[n + 1])).
  std::vector<std::uint32_t> fanout_offset_;
  std::vector<std::uint32_t> fanout_;
  std::vector<std::uint8_t> is_po_;     ///< per net: 1 for a primary output
  std::vector<NetId> const_one_;        ///< slots tied to constant 1
  /// Binary constants for scalar seeding (net, value).
  std::vector<std::pair<NetId, LogicV>> const_binary_;
};

}  // namespace cpsinw::logic
