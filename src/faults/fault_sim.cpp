#include "faults/fault_sim.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "faults/word_fold.hpp"
#include "gates/dictionary_cache.hpp"

namespace cpsinw::faults {

using logic::LogicV;
using logic::Pattern;

namespace {

/// The serial retained-state walk of X-bearing contexts: one scalar faulty
/// pass per pattern over the context's compilation, against its scalar
/// good machine, threading net state from pattern to pattern when
/// sequential.
DetectionRecord serial_walk(const EvalContext& ctx, const Fault& fault,
                            const gates::FaultAnalysis& fa,
                            const FaultSimOptions& options) {
  const logic::CompiledCircuit& cc = ctx.compiled();
  DetectionRecord rec;
  std::vector<LogicV> bad;
  std::vector<LogicV> state;
  for (std::size_t pi = 0; pi < ctx.pattern_count(); ++pi) {
    const logic::SimResult& good = ctx.good(pi);
    cc.init_scalar(ctx.patterns()[pi], bad);
    const bool iddq = cc.eval_scalar_faulty(
        bad, fault.gate, fa,
        options.sequential_patterns && !state.empty() ? &state : nullptr);

    bool hit = false;
    if (iddq && options.observe_iddq) {
      rec.detected_iddq = true;
      hit = true;
    }
    for (const logic::NetId po : ctx.circuit().primary_outputs()) {
      const LogicV g = good.value(po);
      const LogicV b = bad[static_cast<std::size_t>(po)];
      if (is_binary(g) && is_binary(b) && g != b) {
        rec.detected_output = true;
        hit = true;
      } else if (is_binary(g) && !is_binary(b)) {
        rec.potential = true;
      }
    }
    if (options.sequential_patterns) state.swap(bad);
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

FaultSimulator::FaultSimulator(const logic::Circuit& ckt) : ckt_(ckt) {
  if (!ckt.finalized())
    throw std::invalid_argument("FaultSimulator: circuit not finalized");
}

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

const char* transistor_fault_error(const logic::Circuit& ckt,
                                   const Fault& fault) {
  if (fault.gate < 0 || fault.gate >= ckt.gate_count()) return "bad gate id";
  if (!gates::has_transistor(ckt.gate(fault.gate).kind,
                             fault.cell_fault.transistor))
    return "bad transistor index";
  return nullptr;
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
  const CompiledCircuit& cc = ctx.compiled();

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
  return line_fault_detected(EvalContext(ckt_, {pattern}), fault, 0);
}

bool FaultSimulator::line_fault_detected(const EvalContext& ctx,
                                         const Fault& fault,
                                         std::size_t pattern_index) const {
  check_context(ctx);
  if (fault.site == FaultSite::kGateTransistor)
    throw std::invalid_argument("line_fault_detected: transistor fault");
  if (pattern_index >= ctx.pattern_count())
    throw std::invalid_argument("line_fault_detected: bad pattern index");
  // run_range over a context of just that pattern (ctx itself when it
  // holds only that one); an X pattern throws from run_range.
  const std::vector<Fault> one_fault = {fault};
  if (ctx.pattern_count() == 1)
    return run_range(ctx, one_fault, 0, 1)[0].detected_output;
  const EvalContext one(ctx.compiled(), {ctx.patterns()[pattern_index]});
  return run_range(one, one_fault, 0, 1)[0].detected_output;
}

DetectionRecord FaultSimulator::simulate_transistor_fault(
    const Fault& fault, const std::vector<Pattern>& patterns,
    const FaultSimOptions& options) const {
  return simulate_transistor_fault(EvalContext(ckt_, patterns), fault,
                                   options);
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
  if (const char* error = transistor_fault_error(ckt_, fault))
    throw std::invalid_argument(
        std::string("simulate_transistor_fault: ") + error);
  const gates::CellKind kind = ckt_.gate(fault.gate).kind;
  const gates::CellFault& cf = fault.cell_fault;
  // Memoized dictionary lookup, indexed by (kind, fault kind, transistor):
  // the index is checked above and no cell has more than kTSlots
  // transistors.
  constexpr std::size_t kTSlots = 4;
  assert(static_cast<std::size_t>(cf.transistor) < kTSlots);
  const std::size_t idx = (static_cast<std::size_t>(kind) * 5 +
                           static_cast<std::size_t>(cf.kind)) *
                              kTSlots +
                          static_cast<std::size_t>(cf.transistor);
  if (scratch.dicts.size() <= idx) scratch.dicts.resize(idx + 1, nullptr);
  const gates::FaultAnalysis*& fap = scratch.dicts[idx];
  if (fap == nullptr) fap = &ctx.dictionary(kind, cf);
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
  return serial_walk(ctx, fault, fa, options);
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
  const logic::CompiledCircuit& cc = ctx.compiled();
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
  const logic::CompiledCircuit& cc = ctx.compiled();
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
  return simulate_transistor_fault(fault, {init, test}).detected_output;
}

}  // namespace cpsinw::faults
