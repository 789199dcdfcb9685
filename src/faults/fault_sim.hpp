// Fault simulation: 64-pattern-parallel for line stuck-at faults and for
// every transistor fault on fully specified pattern sets — a binary plane
// kernel for purely binary dictionaries, and a dual-rail (value + X) plane
// kernel for dictionaries with floating or marginal rows, which threads
// floating-output retention along the pattern axis (what two-pattern
// stuck-open tests rely on).  X-bearing pattern sets take the serial
// dictionary-based walk.  IDDQ observation covers the paper's polarity
// faults.
//
// All fault-independent work (pattern packing, the good machine, the
// switch-level dictionaries) lives in a faults::EvalContext built once per
// (circuit, pattern set) and shared across the whole fault universe — and,
// in the campaign engine, across every shard of a job.  The context-free
// run/run_range signatures are thin wrappers that build a local context,
// so their behaviour is bit-identical to the historical serial path.
#pragma once

#include <array>
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
/// more can be learned about it.  Line faults leave the active universe at
/// their first detecting word (the strip-mined walk refills freed lanes
/// from pending faults); transistor faults stop once every observable of
/// their dictionary (PO flip, X at a PO, IDDQ excitation) has fired or is
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

/// Occupancy accounting for the batched line-fault kernel plus the
/// per-path transistor counts, filled by run_range when a caller passes a
/// sink (the engine shard loop feeds these into the
/// `engine.faults_batched` / `engine.batch_width` /
/// `engine.faults_transistor_*` counters and the `shard.batch_fill`
/// histogram).
struct LineBatchStats {
  std::size_t faults = 0;      ///< line faults handled (counted once each)
  std::size_t groups = 0;      ///< kernel invocations (strips re-group, so a
                               ///< fault can ride several invocations)
  /// Lanes that actually carried a fault, summed over invocations — NOT
  /// groups x kBatchLanes: a partially filled group contributes only its
  /// occupied lanes, so occupancy = lane_slots / (groups * kBatchLanes).
  std::size_t lane_slots = 0;
  std::size_t words = 0;       ///< pattern words evaluated (post early-exit)
  /// Always 0 (critical-path tracing was removed); perfbench still reads it.
  std::size_t cpt_faults = 0;
  /// fill[k]: kernel invocations that carried k+1 faults.
  std::array<std::size_t, logic::CompiledCircuit::kBatchLanes> fill{};
  /// Transistor faults by evaluation path: the binary plane kernel, the
  /// retained-state (dual-rail) plane kernel, and the serial walk.
  std::size_t transistor_binary = 0;
  std::size_t transistor_retained = 0;
  std::size_t transistor_serial = 0;

  void merge(const LineBatchStats& o) {
    faults += o.faults;
    groups += o.groups;
    lane_slots += o.lane_slots;
    words += o.words;
    cpt_faults += o.cpt_faults;
    for (std::size_t k = 0; k < fill.size(); ++k) fill[k] += o.fill[k];
    transistor_binary += o.transistor_binary;
    transistor_retained += o.transistor_retained;
    transistor_serial += o.transistor_serial;
  }
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

/// Fault simulator bound to one circuit.
class FaultSimulator {
 public:
  /// @param ckt finalized circuit; must outlive the simulator
  explicit FaultSimulator(const logic::Circuit& ckt);

  /// Simulates all faults against all patterns (builds a local context).
  [[nodiscard]] FaultSimReport run(const std::vector<Fault>& faults,
                                   const std::vector<logic::Pattern>& patterns,
                                   const FaultSimOptions& options = {}) const;

  /// Context-based variant: the good machine, packed words and
  /// dictionaries come from `ctx` (built once, shared by every caller).
  [[nodiscard]] FaultSimReport run(const EvalContext& ctx,
                                   const std::vector<Fault>& faults,
                                   const FaultSimOptions& options = {}) const;

  /// Engine hook: simulates the contiguous sub-range [begin, end) of a
  /// fault list, returning records parallel to that range.  Each fault is
  /// self-contained (line faults via packed batches, transistor faults via
  /// their own retained-state sequence), so concatenating the records of a
  /// partition of [0, size) is bit-identical to one `run` over the whole
  /// list — this is what makes campaign sharding deterministic.
  [[nodiscard]] std::vector<DetectionRecord> run_range(
      const std::vector<Fault>& faults, std::size_t begin, std::size_t end,
      const std::vector<logic::Pattern>& patterns,
      const FaultSimOptions& options = {}) const;

  /// Context-based range hook: what campaign shards actually execute.  All
  /// shards of a job share one EvalContext instead of re-packing patterns
  /// and re-simulating the good machine per shard.  When `stats` is
  /// non-null, the batched line path's occupancy accounting and the
  /// per-path transistor counts are merged in.
  [[nodiscard]] std::vector<DetectionRecord> run_range(
      const EvalContext& ctx, const std::vector<Fault>& faults,
      std::size_t begin, std::size_t end, const FaultSimOptions& options = {},
      LineBatchStats* stats = nullptr) const;

  /// Single line-fault / single-pattern check (used by ATPG verification).
  [[nodiscard]] bool line_fault_detected(const Fault& fault,
                                         const logic::Pattern& pattern) const;

  /// Context-based variant for ATPG verification loops: checks the fault
  /// against pattern `pattern_index` of the context without re-packing or
  /// re-simulating the good machine per call.
  [[nodiscard]] bool line_fault_detected(const EvalContext& ctx,
                                         const Fault& fault,
                                         std::size_t pattern_index) const;

  /// Serial simulation of one transistor fault over a pattern sequence,
  /// with the good machine simulated per pattern.  It builds no context:
  /// ATPG calls it per candidate test (stuck_open_detected), and a context
  /// per call would recompile the circuit each time.
  [[nodiscard]] DetectionRecord simulate_transistor_fault(
      const Fault& fault, const std::vector<logic::Pattern>& patterns,
      const FaultSimOptions& options = {}) const;

  /// Context-based variant: shares the precomputed good machine; takes a
  /// plane kernel whenever the context is packed.
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
  /// Packed faulty simulation of one 64-pattern word with a line forced to
  /// a constant, written into `values` (the single-pattern checks).
  void packed_line_fault(const std::vector<std::uint64_t>& pi_words,
                         const Fault& fault,
                         std::vector<std::uint64_t>& values) const;

  /// Line-fault walk of run_range: validates and gathers the line faults
  /// of [begin, end), sorts them by injection position, and walks the word
  /// range in strips, feeding kBatchLanes-sized groups of the surviving
  /// faults through eval_packed_line_batch.  A fault leaves the groups at
  /// its first detecting word (freed lanes refill from the survivors), and
  /// its DetectionRecord derives from its own detection words.
  void run_line_faults_batched(const EvalContext& ctx,
                               const std::vector<Fault>& faults,
                               std::size_t begin, std::size_t end,
                               std::vector<DetectionRecord>& records,
                               LineBatchStats* stats) const;

  /// Scratch buffers for the transistor plane kernels, hoisted by
  /// run_range so a whole fault range shares one set of allocations.  Both
  /// kernels keep their cone cache in `lanes` with one layout, so binary
  /// and retained faults of one gate interleaving in fault-list order keep
  /// the cache (and skip the re-zeroing).
  struct TransistorScratch {
    std::vector<std::uint64_t> diff;
    std::vector<std::uint64_t> potential;
    std::vector<std::uint64_t> contention;
    std::vector<std::uint64_t> lanes;
    std::vector<std::uint64_t> x_lanes;  ///< X planes of the retained kernel
    /// Direct-index memo over (cell kind, transistor, fault kind) for the
    /// context's dictionary lookups: DictionaryCache::lookup takes a
    /// mutex and walks a std::map, which dominated the per-fault cost of
    /// the packed path once the kernels were batched.  Entries stay valid
    /// for the cache's lifetime, so memoizing pointers is safe.
    std::vector<const gates::FaultAnalysis*> dicts;
  };

  /// Dispatching body of simulate_transistor_fault with caller-owned
  /// scratch (the public overload wraps it with a local set): packed +
  /// binary dictionary -> simulate_transistor_packed, packed + floating or
  /// marginal rows -> simulate_transistor_retained, X-bearing patterns ->
  /// the serial walk.  Counts the path taken into `stats` when non-null.
  [[nodiscard]] DetectionRecord simulate_transistor_scratch(
      const EvalContext& ctx, const Fault& fault,
      const FaultSimOptions& options, TransistorScratch& scratch,
      LineBatchStats* stats = nullptr) const;

  /// Packed transistor path: valid only for dictionaries with all-binary,
  /// non-floating rows (checked by the caller).
  [[nodiscard]] DetectionRecord simulate_transistor_packed(
      const EvalContext& ctx, const Fault& fault,
      const gates::FaultAnalysis& fa, const FaultSimOptions& options,
      TransistorScratch& scratch) const;

  /// Packed retained-state path: dictionaries with floating and/or
  /// marginal rows on packed contexts, through the dual-rail plane kernel.
  [[nodiscard]] DetectionRecord simulate_transistor_retained(
      const EvalContext& ctx, const Fault& fault,
      const gates::FaultAnalysis& fa, const FaultSimOptions& options,
      TransistorScratch& scratch) const;

  void check_context(const EvalContext& ctx) const;

  const logic::Circuit& ckt_;
  logic::Simulator sim_;
};

}  // namespace cpsinw::faults
