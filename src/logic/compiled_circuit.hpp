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
// good-machine truth table of its cell kind.  A faulty gate substitutes a
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
  // value plane per net.  X appears only inside a faulted cone: the
  // retained-state kernel carries it as a second, dual-rail X plane in its
  // own lane scratch (value = 0 wherever X = 1).

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
  /// The net is flipped in every word and the flip propagates down its
  /// fan-out cone, sharing the good planes as the fault-free prefix; per
  /// word, `obs` receives the OR of the PO differences (unmasked — callers
  /// AND with their active words): bit k is set when flipping the net
  /// under that pattern flips some PO.  Any net may be walked (a PO's row
  /// comes out all ones).  The cone is cached in `lane_scratch` under the
  /// key of the driver's fault cone (a PI or constant stem has its own),
  /// the same layout and cache as eval_packed_retained_planes, so rows and
  /// retained-state faults of one gate share one scratch.
  void eval_packed_stem_planes(const std::uint64_t* good_planes,
                               std::size_t stride, std::size_t n_words,
                               NetId stem, std::uint64_t* obs,
                               std::vector<std::uint64_t>& lane_scratch) const;

  /// Faulted-output state threaded along the pattern axis between
  /// eval_packed_retained_planes calls: the (value, X) of the last pattern
  /// already evaluated.  The default, X, is the state before pattern 0.
  struct RetainedCarry {
    bool value = false;
    bool x = true;
  };

  /// Plane-wide kernel for transistor faults whose dictionary is not
  /// compiled_binary (floating and/or marginal rows), bit-identical per
  /// pattern to eval_scalar_faulty threaded with previous_state.  The
  /// faulted gate's output comes from the minterms of its good-plane
  /// inputs: truth rows give 1, marginal rows X, and floating rows the
  /// previous pattern's faulted (value, X) when `retain` is set (X when
  /// not).  `carry` seeds that fill before the first word and holds the
  /// last word's state afterwards, so consecutive calls over consecutive
  /// word ranges equal one call over their union.  The output propagates
  /// in dual rail (value + X planes, X-exact against eval_cell_x) down
  /// the fan-out cone cached in `lane_scratch` — the same layout and cache
  /// as eval_packed_stem_planes, so both can share one scratch.  Writes
  /// per word (unmasked): `detect` (some PO binary and different from
  /// good), `potential` (some PO X) and `contention`.
  /// @param x_scratch X lanes, parallel to the value lanes; reused across
  ///   calls, resized internally
  void eval_packed_retained_planes(
      const std::uint64_t* good_planes, std::size_t stride,
      std::size_t n_words, int fault_gate, const gates::FaultAnalysis& fa,
      bool retain, RetainedCarry& carry, std::uint64_t* detect,
      std::uint64_t* potential, std::uint64_t* contention,
      std::vector<std::uint64_t>& lane_scratch,
      std::vector<std::uint64_t>& x_scratch) const;

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
  /// `lane_scratch` (the stem and retained kernels' layout) and
  /// rediscovered only when the pair changes, so a pair's four behaviours
  /// share it.
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
  std::vector<NetId> const_one_;        ///< slots tied to constant 1
  /// Binary constants for scalar seeding (net, value).
  std::vector<std::pair<NetId, LogicV>> const_binary_;
};

}  // namespace cpsinw::logic
