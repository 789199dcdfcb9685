// Fault simulation, 64 patterns per word on fully specified pattern sets.
// A line stuck-at fault and a transistor fault change one net, the output
// of one gate (a stem fault its own net): each folds a one-gate step
// against that net's observability rows, which the context computes once
// and every fault on the net shares (critical path tracing inside
// fan-out-free regions, one explicit walk per fan-out stem).  A line fault
// reads the binary row, where a flip reaches a PO.  A transistor fault's
// output comes from its dictionary word by word, threading floating-output
// retention along the pattern axis (what two-pattern stuck-open tests rely
// on): where it is binary and wrong it reads the binary row, where it is X
// (marginal or floating rows) the X row, where an X reaches a PO as X.
// X-bearing pattern sets take the serial dictionary-based walk.  IDDQ
// observation covers the paper's polarity faults.
//
// All fault-independent work (the circuit compilation, pattern packing,
// the good machine, the observability rows) lives in a
// faults::EvalContext built once per (circuit, pattern set) and shared
// across the whole fault universe — and, in the campaign engine, across
// every shard of a job.  The switch-level dictionaries come from the
// library's one table, gates::dictionary().  A FaultSimulator owns no
// compilation: every question runs over a context and reads its compile,
// so each has one evaluation path.  The context-free signatures are
// one-line wrappers that build a local context (one compile per call).
#pragma once

#include <vector>

#include "faults/eval_context.hpp"
#include "faults/fault.hpp"
#include "faults/fault_list.hpp"
#include "logic/logic_sim.hpp"

namespace cpsinw::faults {

/// How a fault was (or was not) detected by a pattern set.
struct DetectionRecord {
  bool detected_output = false;  ///< definite wrong value at some PO
  bool detected_iddq = false;    ///< IDDQ anomaly excited (contention)
  bool potential = false;        ///< X reached a PO where good is defined
  /// Index of the first *counted* detection under the run's observation
  /// options: the first pattern whose hit contributes to detected() with
  /// the run's `observe_iddq` — an IDDQ-only excitation advances it only
  /// when IDDQ observation is on.  -1 when nothing counted.
  int first_pattern = -1;

  [[nodiscard]] bool detected(bool count_iddq) const {
    return detected_output || (count_iddq && detected_iddq);
  }
};

/// What a DetectionRecord promises about patterns after the first counted
/// detection.
enum class DetectionMode {
  /// Flags aggregate over the whole pattern set: detected_output,
  /// detected_iddq and potential reflect every pattern (the historical
  /// semantics).
  kFull,
  /// Simulation of a fault may stop at its first counted detection:
  /// flags reflect only patterns up to and including that one (exactly
  /// as if the pattern list were truncated there).  Deterministic —
  /// independent of batching, threading and strip schedule — but a
  /// different contract, so campaigns opt in explicitly.
  kFirstOnly,
};

/// Controls for a fault-simulation run: the observables a record counts
/// and the contract it keeps.  Every setting changes records, so all three
/// travel on the shard_io wire.
///
/// Work reduction is not a setting: every walk drops a fault once nothing
/// more can be learned about it.  A line fault stops at its first
/// detecting word; a transistor fault once every observable of its
/// dictionary (PO flip, X at a PO, IDDQ excitation) has fired or is
/// impossible.  Full-mode records are exactly the whole-pattern-set
/// records.
struct FaultSimOptions {
  /// Count IDDQ anomalies as detections (the paper's polarity faults in
  /// pull-up networks are *only* detectable this way).
  bool observe_iddq = true;
  /// Thread net state across consecutive patterns so floating outputs
  /// retain charge (enables two-pattern stuck-open detection).
  bool sequential_patterns = true;
  /// Contract for per-fault flags after the first counted detection (see
  /// DetectionMode).
  DetectionMode detection_mode = DetectionMode::kFull;
};

/// Fault counts by class and path, filled by run_range and
/// simulate_bridges when a caller passes a sink (the engine shard loop
/// feeds them into the `engine.faults_batched` and
/// `engine.faults_transistor_*` / `engine.faults_bridge_serial` counters).
struct LineBatchStats {
  std::size_t faults = 0;  ///< line faults handled
  /// No kernel batches line faults any more, so these four always read 0;
  /// perfbench still reads them, and ROADMAP item 10 drops them together
  /// with its per-layer metrics.
  std::size_t groups = 0;
  std::size_t lane_slots = 0;
  std::size_t words = 0;
  std::size_t cpt_faults = 0;
  /// Transistor faults on packed contexts, by dictionary kind on the one
  /// row-reading path: binary dictionaries (binary rows only) and
  /// retained-state ones (floating or marginal rows, which may also read
  /// X rows); and transistor faults on X-bearing contexts, which take the
  /// serial walk.
  std::size_t transistor_binary = 0;
  std::size_t transistor_retained = 0;
  std::size_t transistor_serial = 0;
  /// Bridges that took the per-pattern scalar loop (X-bearing patterns).
  std::size_t bridge_serial = 0;
};

/// Aggregate result over a fault list.
struct FaultSimReport {
  std::vector<DetectionRecord> records;  ///< parallel to the fault list
  FaultSimOptions options;

  [[nodiscard]] int detected_count() const;
  [[nodiscard]] double coverage() const;  ///< detected / total
};

/// Validates a line stuck-at fault against the circuit and converts it to
/// the compiled-kernel descriptor.  The compiled kernels index with the
/// fault's fields unchecked (asserts in debug), so every path into them
/// funnels through this check — including faults parsed from untrusted
/// shard_io documents.
/// @throws std::invalid_argument on a transistor fault or out-of-range
///   net/gate/pin fields
[[nodiscard]] logic::CompiledCircuit::LineFault checked_line_fault(
    const logic::Circuit& ckt, const Fault& fault);

/// Why a transistor fault does not fit the circuit: "bad gate id" when its
/// gate id is not in [0, gate_count()), "no fault kind" when its kind is
/// TransistorFault::kNone, "bad transistor index" when its transistor
/// index is not in [0, the cell's transistor count), nullptr when it
/// fits.  The site is the caller's to check.  FaultSimulator, the PODEM
/// entry points, diagnosis and shard_io's parser check this before any
/// dictionary lookup, so a fault outside the cell tables is rejected with
/// its reason instead of being simulated.
[[nodiscard]] const char* transistor_fault_error(const logic::Circuit& ckt,
                                                 const Fault& fault);

/// Fault simulator bound to one circuit.  It holds no compilation: every
/// walk reads the one of the context it runs over.
class FaultSimulator {
 public:
  /// @param ckt finalized circuit; must outlive the simulator
  /// @throws std::invalid_argument when `ckt` is not finalized
  explicit FaultSimulator(const logic::Circuit& ckt);

  /// Simulates all faults against all patterns (builds a local context).
  [[nodiscard]] FaultSimReport run(const std::vector<Fault>& faults,
                                   const std::vector<logic::Pattern>& patterns,
                                   const FaultSimOptions& options = {}) const;

  /// Context-based variant: the good machine, packed words and
  /// observability rows come from `ctx` (built once, shared by every
  /// caller).
  [[nodiscard]] FaultSimReport run(const EvalContext& ctx,
                                   const std::vector<Fault>& faults,
                                   const FaultSimOptions& options = {}) const;

  /// Engine hook: simulates the contiguous sub-range [begin, end) of a
  /// fault list, returning records parallel to that range.  Each fault is
  /// self-contained (the observability rows it reads depend only on the
  /// context, and a transistor fault threads its own retained-state
  /// sequence), so concatenating the records of a partition of [0, size)
  /// is bit-identical to one `run` over the whole list — this is what
  /// makes campaign sharding deterministic.  All shards of a job share one
  /// EvalContext instead of recompiling the circuit, re-packing patterns,
  /// re-simulating the good machine and re-walking the stems per shard.
  /// When `stats` is non-null, the line-fault and per-path transistor
  /// counts are added in.
  [[nodiscard]] std::vector<DetectionRecord> run_range(
      const EvalContext& ctx, const std::vector<Fault>& faults,
      std::size_t begin, std::size_t end, const FaultSimOptions& options = {},
      LineBatchStats* stats = nullptr) const;

  /// Single line-fault / single-pattern check over a local one-pattern
  /// context.
  /// @throws std::invalid_argument on a transistor fault, a bad line, or
  ///   a pattern that is not fully specified
  [[nodiscard]] bool line_fault_detected(const Fault& fault,
                                         const logic::Pattern& pattern) const;

  /// Context-based variant for ATPG verification loops: checks the fault
  /// against pattern `pattern_index` of the context with run_range over a
  /// one-pattern context that borrows ctx.compiled() (ctx itself when it
  /// holds only that pattern), so no call compiles.  An X pattern throws
  /// std::invalid_argument from run_range.
  [[nodiscard]] bool line_fault_detected(const EvalContext& ctx,
                                         const Fault& fault,
                                         std::size_t pattern_index) const;

  /// One transistor fault over a pattern sequence, through a local context
  /// (for repeated checks, build contexts over one shared compilation and
  /// call the context overload).
  [[nodiscard]] DetectionRecord simulate_transistor_fault(
      const Fault& fault, const std::vector<logic::Pattern>& patterns,
      const FaultSimOptions& options = {}) const;

  /// Context-based variant: shares the precomputed good machine and, on a
  /// packed context, the observability rows of the faulted output.
  [[nodiscard]] DetectionRecord simulate_transistor_fault(
      const EvalContext& ctx, const Fault& fault,
      const FaultSimOptions& options = {}) const;

  /// Explicit two-pattern stuck-open check: `init` sets up the output,
  /// `test` exposes the retained (wrong) value.
  [[nodiscard]] bool stuck_open_detected(const Fault& fault,
                                         const logic::Pattern& init,
                                         const logic::Pattern& test) const;

  [[nodiscard]] const logic::Circuit& circuit() const { return ckt_; }

 private:
  /// The per-fault body of run_range and simulate_transistor_fault(ctx,
  /// ...): packed contexts fold the dictionary's output against the
  /// faulted output's observability rows, X-bearing patterns take the
  /// serial walk.  `lanes` is the stem walks' scratch: run_range passes
  /// one vector for its whole range, so it is sized and zeroed once.
  /// Counts the path and dictionary kind into `stats` when non-null.
  /// @throws std::invalid_argument on a line fault, or when
  ///   transistor_fault_error rejects the fault
  [[nodiscard]] DetectionRecord transistor_fault_record(
      const EvalContext& ctx, const Fault& fault,
      const FaultSimOptions& options, std::vector<std::uint64_t>& lanes,
      LineBatchStats* stats = nullptr) const;

  void check_context(const EvalContext& ctx) const;

  const logic::Circuit& ckt_;
};

}  // namespace cpsinw::faults
