#include "faults/fault_sim.hpp"

#include <algorithm>
#include <stdexcept>

#include "gates/dictionary_cache.hpp"

namespace cpsinw::faults {

using logic::LogicV;
using logic::Pattern;

namespace {

/// Strip widths of the strip-mined fault walks, in pattern words: the
/// first strip is narrow (an early exit usually lands there), survivors
/// widen.
constexpr std::size_t kFirstStrip = logic::CompiledCircuit::kSimdWords;
constexpr std::size_t kWideStrip = 4 * logic::CompiledCircuit::kSimdWords;

/// Folds the per-word outputs of the transistor plane kernels, strip by
/// strip in pattern order, into a DetectionRecord under the serial path's
/// rules: first_pattern is the first counted hit (a PO flip, or an IDDQ
/// excitation when observed), and in first-only mode the word holding it
/// counts only up to and including the hit bit, for every flag — exactly
/// the prefix the serial path sees before its break.
struct WordFold {
  bool observe_iddq;
  bool first_only;
  int first_pattern = -1;
  std::uint64_t any_d = 0;
  std::uint64_t any_p = 0;
  std::uint64_t any_c = 0;

  /// Folds words [w0, w0 + nw) (the kernel outputs are indexed from w0;
  /// `potential` may be null).  @returns true once a first-only run has
  /// folded its hit: no later word may count.
  bool fold(std::size_t w0, std::size_t nw, const std::uint64_t* detect,
            const std::uint64_t* potential, const std::uint64_t* contention,
            const std::uint64_t* active) {
    for (std::size_t w = 0; w < nw; ++w) {
      const std::uint64_t act = active[w0 + w];
      const std::uint64_t d = detect[w] & act;
      const std::uint64_t p = potential != nullptr ? potential[w] & act : 0;
      const std::uint64_t c = contention[w] & act;
      const std::uint64_t hit = d | (observe_iddq ? c : 0);
      if (first_pattern < 0 && hit != 0) {
        const int b = __builtin_ctzll(hit);
        first_pattern = static_cast<int>((w0 + w) * 64) + b;
        if (first_only) {
          const std::uint64_t mask = b == 63 ? ~0ull : ((1ull << (b + 1)) - 1);
          any_d |= d & mask;
          any_p |= p & mask;
          any_c |= c & mask;
          return true;
        }
      }
      any_d |= d;
      any_p |= p;
      any_c |= c;
    }
    return false;
  }

  [[nodiscard]] DetectionRecord record() const {
    DetectionRecord rec;
    rec.detected_output = any_d != 0;
    rec.detected_iddq = observe_iddq && any_c != 0;
    rec.potential = any_p != 0;
    rec.first_pattern = first_pattern;
    return rec;
  }
};

/// The serial retained-state walk: one scalar faulty pass per pattern,
/// threading net state from pattern to pattern when sequential.  `good(pi)`
/// yields the fault-free SimResult of pattern `pi` (precomputed by a
/// context, or simulated on the spot).
template <class GoodFn>
DetectionRecord serial_walk(const logic::Simulator& sim,
                            const std::vector<Pattern>& patterns,
                            const GoodFn& good, const Fault& fault,
                            const gates::FaultAnalysis& fa,
                            const FaultSimOptions& options) {
  const logic::GateFault gf{fault.gate, fault.cell_fault};
  DetectionRecord rec;
  std::vector<LogicV> state;
  for (std::size_t pi = 0; pi < patterns.size(); ++pi) {
    const logic::SimResult& g_res = good(pi);
    const logic::SimResult bad = sim.simulate_faulty_with(
        patterns[pi], gf, fa,
        options.sequential_patterns && !state.empty() ? &state : nullptr);
    if (options.sequential_patterns) state = bad.net_values;

    bool hit = false;
    if (bad.iddq_flag && options.observe_iddq) {
      rec.detected_iddq = true;
      hit = true;
    }
    for (const logic::NetId po : sim.circuit().primary_outputs()) {
      const LogicV g = g_res.value(po);
      const LogicV b = bad.value(po);
      if (is_binary(g) && is_binary(b) && g != b) {
        rec.detected_output = true;
        hit = true;
      } else if (is_binary(g) && !is_binary(b)) {
        rec.potential = true;
      }
    }
    if (hit && rec.first_pattern < 0)
      rec.first_pattern = static_cast<int>(pi);
    if (rec.first_pattern >= 0 &&
        options.detection_mode == DetectionMode::kFirstOnly)
      break;
  }
  return rec;
}

}  // namespace

int FaultSimReport::detected_count() const {
  int n = 0;
  for (const DetectionRecord& r : records)
    if (r.detected(options.observe_iddq)) ++n;
  return n;
}

double FaultSimReport::coverage() const {
  if (records.empty()) return 1.0;
  return static_cast<double>(detected_count()) /
         static_cast<double>(records.size());
}

FaultSimulator::FaultSimulator(const logic::Circuit& ckt)
    : ckt_(ckt), sim_(ckt) {}

void FaultSimulator::check_context(const EvalContext& ctx) const {
  if (&ctx.circuit() != &ckt_)
    throw std::invalid_argument(
        "FaultSimulator: context built for a different circuit");
}

logic::CompiledCircuit::LineFault checked_line_fault(
    const logic::Circuit& ckt, const Fault& fault) {
  logic::CompiledCircuit::LineFault lf;
  lf.stuck_one = fault.stuck_at_one;
  if (fault.site == FaultSite::kNet) {
    if (fault.net < 0 || fault.net >= ckt.net_count())
      throw std::invalid_argument("line fault: net id out of range");
    lf.net = fault.net;
    return lf;
  }
  if (fault.site != FaultSite::kGateInput)
    throw std::invalid_argument("line fault: transistor fault");
  if (fault.gate < 0 || fault.gate >= ckt.gate_count())
    throw std::invalid_argument("line fault: gate id out of range");
  if (fault.pin < 0 || fault.pin >= ckt.gate(fault.gate).input_count())
    throw std::invalid_argument("line fault: pin out of range");
  lf.gate = fault.gate;
  lf.pin = fault.pin;
  return lf;
}

void FaultSimulator::packed_line_fault(
    const std::vector<std::uint64_t>& pi_words, const Fault& fault,
    std::vector<std::uint64_t>& values) const {
  const logic::CompiledCircuit& cc = sim_.compiled();
  cc.init_packed(pi_words, values);
  cc.eval_packed_line(values, checked_line_fault(ckt_, fault));
}

FaultSimReport FaultSimulator::run(const std::vector<Fault>& faults,
                                   const std::vector<Pattern>& patterns,
                                   const FaultSimOptions& options) const {
  const EvalContext ctx(ckt_, patterns);
  return run(ctx, faults, options);
}

FaultSimReport FaultSimulator::run(const EvalContext& ctx,
                                   const std::vector<Fault>& faults,
                                   const FaultSimOptions& options) const {
  FaultSimReport report;
  report.options = options;
  report.records = run_range(ctx, faults, 0, faults.size(), options);
  return report;
}

std::vector<DetectionRecord> FaultSimulator::run_range(
    const std::vector<Fault>& faults, std::size_t begin, std::size_t end,
    const std::vector<Pattern>& patterns,
    const FaultSimOptions& options) const {
  const EvalContext ctx(ckt_, patterns);
  return run_range(ctx, faults, begin, end, options);
}

std::vector<DetectionRecord> FaultSimulator::run_range(
    const EvalContext& ctx, const std::vector<Fault>& faults,
    std::size_t begin, std::size_t end, const FaultSimOptions& options,
    LineBatchStats* stats) const {
  check_context(ctx);
  if (begin > end || end > faults.size())
    throw std::invalid_argument("run_range: bad fault range");
  std::vector<DetectionRecord> records(end - begin);

  bool any_line_fault = false;
  for (std::size_t fi = begin; fi < end && !any_line_fault; ++fi)
    any_line_fault = faults[fi].site != FaultSite::kGateTransistor;
  if (any_line_fault && !ctx.packed() && ctx.pattern_count() > 0)
    throw std::invalid_argument(
        "run_range: line faults need fully-specified (packable) patterns");

  // --- Line faults: groups of kBatchLanes faults share one forward walk
  // per pattern word over the context's SoA good planes.  Each fault's
  // record derives from its own detection words, so grouping never changes
  // results — concatenating shard ranges stays bit-identical to one
  // whole-list run. ----------------------------------------------------------
  if (any_line_fault)
    run_line_faults_batched(ctx, faults, begin, end, records, stats);

  // --- Transistor faults: the binary or the retained-state plane kernel
  // on packed contexts, serial simulation on X-bearing ones.  One scratch
  // set serves the whole range (the kernels' cone cache persists across
  // faults, so reuse also skips its per-call re-zeroing). ------------------
  TransistorScratch scratch;
  for (std::size_t fi = begin; fi < end; ++fi) {
    const Fault& f = faults[fi];
    if (f.site != FaultSite::kGateTransistor) continue;
    records[fi - begin] =
        simulate_transistor_scratch(ctx, f, options, scratch, stats);
  }
  return records;
}

void FaultSimulator::run_line_faults_batched(
    const EvalContext& ctx, const std::vector<Fault>& faults,
    std::size_t begin, std::size_t end, std::vector<DetectionRecord>& records,
    LineBatchStats* stats) const {
  using logic::CompiledCircuit;
  const CompiledCircuit& cc = sim_.compiled();

  // Gather + validate, then sort by injection position: the kernel skips
  // every gate before its group's earliest event, so co-locating faults
  // with deep injection points maximizes the shared skipped prefix.
  struct Entry {
    std::size_t rec;  ///< index into `records`
    CompiledCircuit::LineFault lf;
    std::size_t pos;  ///< earliest position the fault can diverge at
  };
  std::vector<Entry> entries;
  entries.reserve(end - begin);
  for (std::size_t fi = begin; fi < end; ++fi) {
    const Fault& f = faults[fi];
    if (f.site == FaultSite::kGateTransistor) continue;
    Entry e;
    e.rec = fi - begin;
    e.lf = checked_line_fault(ckt_, f);
    if (e.lf.net >= 0) {
      const int driver = ckt_.driver_of(e.lf.net);
      e.pos = driver < 0 ? 0 : cc.position_of(driver);
    } else {
      e.pos = cc.position_of(e.lf.gate);
    }
    entries.push_back(e);
  }

  // Stable counting sort by position — positions are bounded by the gate
  // count, so two counting passes replace comparison sorting (which showed
  // up as the single largest fixed cost of this wrapper, ahead of the
  // kernel itself on shallow circuits).
  const std::size_t n_pos = cc.gates().size() + 1;
  std::vector<std::uint32_t> counts(n_pos + 1, 0);
  for (const Entry& e : entries) ++counts[e.pos + 1];
  for (std::size_t p = 1; p <= n_pos; ++p) counts[p] += counts[p - 1];
  std::vector<Entry> sorted(entries.size());
  for (const Entry& e : entries) sorted[counts[e.pos]++] = e;
  entries.swap(sorted);

  const std::size_t n_words = ctx.word_count();
  std::vector<std::uint64_t> lane_scratch;
  LineBatchStats local;
  local.faults = entries.size();

  // --- Fault dropping: walk the word range in strips and re-form the lane
  // groups from the *surviving* faults between strips, so a detected fault
  // stops consuming a lane for the rest of the walk (= mid-walk lane
  // refill from pending faults).  A fault's detection words depend only on
  // the fault, never on its group (the kernel early-exits a group only
  // once every lane detected), so any strip/group schedule yields the same
  // record as one full-width pass.  The first strip is narrow: most
  // detectable faults die within a few words, so the expensive full-width
  // walks only ever see the hard tail.  Strips start on kSimdWords
  // boundaries, which keeps the plane pointer offsets aligned with the
  // padded row stride. -------------------------------------------------------
  std::vector<std::uint64_t> det(CompiledCircuit::kBatchLanes * kWideStrip);
  std::vector<std::uint32_t> live(entries.size());
  for (std::size_t i = 0; i < live.size(); ++i)
    live[i] = static_cast<std::uint32_t>(i);

  std::size_t w0 = 0;
  std::size_t strip = kFirstStrip;
  while (w0 < n_words && !live.empty()) {
    const std::size_t nw = std::min(strip, n_words - w0);
    strip = kWideStrip;
    std::size_t survivors = 0;
    for (std::size_t g = 0; g < live.size();
         g += CompiledCircuit::kBatchLanes) {
      const std::size_t n =
          std::min(CompiledCircuit::kBatchLanes, live.size() - g);
      CompiledCircuit::LineFault lfs[CompiledCircuit::kBatchLanes];
      for (std::size_t j = 0; j < n; ++j) lfs[j] = entries[live[g + j]].lf;
      const std::size_t words_done = cc.eval_packed_line_batch(
          ctx.good_planes() + w0, ctx.plane_stride(), nw,
          ctx.active_words().data() + w0, lfs, n, det.data(), lane_scratch);
      for (std::size_t j = 0; j < n; ++j) {
        DetectionRecord& rec = records[entries[live[g + j]].rec];
        const std::uint64_t* fd = det.data() + j * nw;
        bool hit = false;
        for (std::size_t w = 0; w < words_done; ++w) {
          if (fd[w] == 0) continue;
          rec.detected_output = true;
          rec.first_pattern =
              static_cast<int>((w0 + w) * 64) + __builtin_ctzll(fd[w]);
          hit = true;
          break;
        }
        // Order-preserving compaction: survivors keep their position-
        // sorted order, so regrouped lanes stay co-located by depth.
        if (!hit) live[survivors++] = live[g + j];
      }
      ++local.groups;
      local.lane_slots += n;
      local.words += words_done;
      ++local.fill[n - 1];
    }
    live.resize(survivors);
    w0 += nw;
  }
  if (stats != nullptr) stats->merge(local);
}

bool FaultSimulator::line_fault_detected(const Fault& fault,
                                         const Pattern& pattern) const {
  if (fault.site == FaultSite::kGateTransistor)
    throw std::invalid_argument("line_fault_detected: transistor fault");
  const logic::CompiledCircuit& cc = sim_.compiled();
  const auto pi_words = logic::pack_patterns(ckt_, {pattern});
  std::vector<std::uint64_t> good;
  cc.init_packed(pi_words, good);
  cc.eval_packed(good);
  std::vector<std::uint64_t> faulty;
  packed_line_fault(pi_words, fault, faulty);
  for (const logic::NetId po : ckt_.primary_outputs())
    if (((good[static_cast<std::size_t>(po)] ^
          faulty[static_cast<std::size_t>(po)]) &
         1ull) != 0)
      return true;
  return false;
}

bool FaultSimulator::line_fault_detected(const EvalContext& ctx,
                                         const Fault& fault,
                                         std::size_t pattern_index) const {
  check_context(ctx);
  if (fault.site == FaultSite::kGateTransistor)
    throw std::invalid_argument("line_fault_detected: transistor fault");
  if (pattern_index >= ctx.pattern_count())
    throw std::invalid_argument("line_fault_detected: bad pattern index");
  if (!ctx.packed())
    return line_fault_detected(fault, ctx.patterns()[pattern_index]);
  const std::size_t w = pattern_index / 64;
  const EvalContext::Batch& batch = ctx.batches()[w];
  const std::uint64_t bit = 1ull << (pattern_index % 64);
  std::vector<std::uint64_t> faulty;
  packed_line_fault(batch.pi_words, fault, faulty);
  for (const logic::NetId po : ckt_.primary_outputs())
    if (((ctx.good_plane(po)[w] ^ faulty[static_cast<std::size_t>(po)]) &
         bit) != 0)
      return true;
  return false;
}

DetectionRecord FaultSimulator::simulate_transistor_fault(
    const Fault& fault, const std::vector<Pattern>& patterns,
    const FaultSimOptions& options) const {
  if (fault.site != FaultSite::kGateTransistor)
    throw std::invalid_argument("simulate_transistor_fault: wrong site");
  const gates::FaultAnalysis& fa = gates::DictionaryCache::global().lookup(
      ckt_.gate(fault.gate).kind, fault.cell_fault);
  return serial_walk(
      sim_, patterns, [&](std::size_t pi) { return sim_.simulate(patterns[pi]); },
      fault, fa, options);
}

DetectionRecord FaultSimulator::simulate_transistor_fault(
    const EvalContext& ctx, const Fault& fault,
    const FaultSimOptions& options) const {
  TransistorScratch scratch;
  return simulate_transistor_scratch(ctx, fault, options, scratch);
}

DetectionRecord FaultSimulator::simulate_transistor_scratch(
    const EvalContext& ctx, const Fault& fault,
    const FaultSimOptions& options, TransistorScratch& scratch,
    LineBatchStats* stats) const {
  check_context(ctx);
  if (fault.site != FaultSite::kGateTransistor)
    throw std::invalid_argument("simulate_transistor_fault: wrong site");
  if (fault.gate < 0 || fault.gate >= ckt_.gate_count())
    throw std::invalid_argument("simulate_faulty: bad gate id");
  const gates::CellKind kind = ckt_.gate(fault.gate).kind;
  const gates::CellFault& cf = fault.cell_fault;
  // Memoized dictionary lookup: index by (kind, fault kind, transistor),
  // falling back to the locked cache for out-of-band transistor indices.
  const gates::FaultAnalysis* fap = nullptr;
  constexpr std::size_t kTSlots = 33;  // transistor -1..31
  const std::size_t tslot = static_cast<std::size_t>(cf.transistor + 1);
  if (cf.transistor + 1 >= 0 && tslot < kTSlots) {
    const std::size_t idx = (static_cast<std::size_t>(kind) * 5 +
                             static_cast<std::size_t>(cf.kind)) *
                                kTSlots +
                            tslot;
    if (scratch.dicts.size() <= idx) scratch.dicts.resize(idx + 1, nullptr);
    const gates::FaultAnalysis*& slot = scratch.dicts[idx];
    if (slot == nullptr) slot = &ctx.dictionary(kind, cf);
    fap = slot;
  } else {
    fap = &ctx.dictionary(kind, cf);
  }
  const gates::FaultAnalysis& fa = *fap;

  // Purely binary dictionaries (no floating rows to retain, no X rows to
  // propagate) behave as a combinational table substitution; floating and
  // marginal rows take the dual-rail kernel, which threads retention along
  // the pattern axis.  Both need packed patterns: X-bearing sets keep the
  // serial walk.
  if (ctx.packed()) {
    if (fa.compiled_binary) {
      if (stats != nullptr) ++stats->transistor_binary;
      return simulate_transistor_packed(ctx, fault, fa, options, scratch);
    }
    if (stats != nullptr) ++stats->transistor_retained;
    return simulate_transistor_retained(ctx, fault, fa, options, scratch);
  }
  if (stats != nullptr) ++stats->transistor_serial;
  return serial_walk(
      sim_, ctx.patterns(),
      [&](std::size_t pi) -> const logic::SimResult& { return ctx.good(pi); },
      fault, fa, options);
}

DetectionRecord FaultSimulator::simulate_transistor_packed(
    const EvalContext& ctx, const Fault& fault,
    const gates::FaultAnalysis& fa, const FaultSimOptions& options,
    TransistorScratch& scratch) const {
  // Faulty machine: every gate evaluates normally except the faulted one,
  // whose output words come from its compiled faulty table — pattern words
  // share the context's good planes.  A binary dictionary can only produce
  // a nonzero diff word when some row is kWrongValue and a nonzero
  // contention word when some row contends, so for a fault with neither
  // the empty record is exact without any pass.
  if (!fa.output_detectable && (!options.observe_iddq || !fa.iddq_detectable))
    return {};
  const bool first_only = options.detection_mode == DetectionMode::kFirstOnly;
  const logic::CompiledCircuit& cc = sim_.compiled();
  const std::size_t n_words = ctx.word_count();
  std::vector<std::uint64_t>& diff = scratch.diff;
  std::vector<std::uint64_t>& contention = scratch.contention;
  const std::uint64_t* const active = ctx.active_words().data();

  // --- Strip-mined walk.  In full mode the walk stops only once no later
  // word can change the record — output side resolved (diff seen, or no
  // kWrongValue row exists) AND IDDQ side resolved (contention seen, not
  // observed, or no contending row) — so the record equals a full pass.
  // In first-only mode the walk stops at the word holding the first
  // counted detection (see WordFold). ---------------------------------------
  diff.resize(kWideStrip);
  contention.resize(kWideStrip);
  WordFold fold{options.observe_iddq, first_only};
  std::size_t w0 = 0;
  std::size_t strip = kFirstStrip;
  while (w0 < n_words) {
    const std::size_t nw = std::min(strip, n_words - w0);
    strip = kWideStrip;
    cc.eval_packed_faulty_planes(ctx.good_planes() + w0, ctx.plane_stride(),
                                 nw, fault.gate, fa, diff.data(),
                                 contention.data(), scratch.lanes);
    if (fold.fold(w0, nw, diff.data(), nullptr, contention.data(), active))
      break;
    w0 += nw;
    if (!first_only) {
      const bool out_final = fold.any_d != 0 || !fa.output_detectable;
      const bool iddq_final =
          !options.observe_iddq || fold.any_c != 0 || !fa.iddq_detectable;
      if (out_final && iddq_final) break;
    }
  }
  return fold.record();
}

DetectionRecord FaultSimulator::simulate_transistor_retained(
    const EvalContext& ctx, const Fault& fault,
    const gates::FaultAnalysis& fa, const FaultSimOptions& options,
    TransistorScratch& scratch) const {
  // The dual-rail kernel reproduces the serial walk pattern for pattern;
  // the carry threads the faulted output's retained charge from each strip
  // into the next.  A full-mode walk stops once every observable is
  // settled: a PO flip (impossible without a wrong-value row unless a
  // floating row can retain a stale value), an X at a PO (always possible:
  // every such dictionary has a marginal or a floating row, and floating
  // reads X before pattern 0), and an observed IDDQ excitation (impossible
  // without a contending row).
  const logic::CompiledCircuit& cc = sim_.compiled();
  const bool first_only = options.detection_mode == DetectionMode::kFirstOnly;
  const bool retain = options.sequential_patterns;
  const bool out_possible =
      fa.output_detectable || (fa.needs_sequence && retain);
  const bool iddq_possible = options.observe_iddq && fa.iddq_detectable;
  const std::size_t n_words = ctx.word_count();
  scratch.diff.resize(kWideStrip);
  scratch.potential.resize(kWideStrip);
  scratch.contention.resize(kWideStrip);
  logic::CompiledCircuit::RetainedCarry carry;
  WordFold fold{options.observe_iddq, first_only};
  std::size_t w0 = 0;
  std::size_t strip = kFirstStrip;
  while (w0 < n_words) {
    const std::size_t nw = std::min(strip, n_words - w0);
    strip = kWideStrip;
    cc.eval_packed_retained_planes(
        ctx.good_planes() + w0, ctx.plane_stride(), nw, fault.gate, fa,
        retain, carry, scratch.diff.data(), scratch.potential.data(),
        scratch.contention.data(), scratch.lanes, scratch.x_lanes);
    if (fold.fold(w0, nw, scratch.diff.data(), scratch.potential.data(),
                  scratch.contention.data(), ctx.active_words().data()))
      break;
    w0 += nw;
    if (!first_only && (fold.any_d != 0 || !out_possible) && fold.any_p != 0 &&
        (fold.any_c != 0 || !iddq_possible))
      break;
  }
  return fold.record();
}

bool FaultSimulator::stuck_open_detected(const Fault& fault,
                                         const Pattern& init,
                                         const Pattern& test) const {
  return simulate_transistor_fault(fault, {init, test}, {})
      .detected_output;
}

}  // namespace cpsinw::faults
