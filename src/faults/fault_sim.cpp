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

/// Folds one fault's per-word detect and contention words into its record,
/// word by word in pattern order (see WordFold), and stops once no later
/// word can change it: in full mode when the output side (a detection
/// seen, or `out_possible` false) and the IDDQ side (contention seen, or
/// `iddq_possible` false) are both settled.  `step(w, cont)` returns word
/// w's detect word and sets its contention word.
template <class Step>
DetectionRecord fold_words(const EvalContext& ctx,
                           const FaultSimOptions& options, bool out_possible,
                           bool iddq_possible, const Step& step) {
  WordFold fold{options.observe_iddq,
                options.detection_mode == DetectionMode::kFirstOnly};
  const std::uint64_t* const active = ctx.active_words().data();
  for (std::size_t w = 0; w < ctx.word_count(); ++w) {
    std::uint64_t cont = 0;
    const std::uint64_t detect = step(w, cont);
    if (fold.fold(w, 1, &detect, nullptr, &cont, active)) break;
    if ((fold.any_d != 0 || !out_possible) &&
        (fold.any_c != 0 || !iddq_possible))
      break;
  }
  return fold.record();
}

/// Line stuck-at record on a packed context.  Either fault changes one
/// net: a stem fault its own, where the good value differs from the stuck
/// one; a branch fault its gate's output, where the cell with the pin
/// forced differs from the good cell.  The net's observability row says
/// where that change reaches a PO.
DetectionRecord line_record(const EvalContext& ctx,
                            const logic::CompiledCircuit::LineFault& lf,
                            const FaultSimOptions& options,
                            std::vector<std::uint64_t>& lanes) {
  if (ctx.word_count() == 0) return {};
  if (lf.net >= 0) {
    const std::uint64_t stuck = lf.stuck_one ? ~0ull : 0ull;
    const std::uint64_t* const good = ctx.good_plane(lf.net);
    const std::uint64_t* const row = ctx.obs_row(lf.net, lanes);
    return fold_words(ctx, options, true, false,
                      [&](std::size_t w, std::uint64_t&) {
                        return (good[w] ^ stuck) & row[w];
                      });
  }
  const logic::CompiledCircuit& cc = ctx.compiled();
  const logic::CompiledCircuit::GateRec& g =
      cc.gates()[cc.position_of(lf.gate)];
  const unsigned bit = 1u << lf.pin;
  const unsigned truth = substituted_truth(g, [&](unsigned v) {
    return lf.stuck_one ? v | bit : v & ~bit;
  });
  const std::uint64_t* const row = ctx.obs_row(g.out, lanes);
  return fold_words(ctx, options, true, false,
                    [&](std::size_t w, std::uint64_t& cont) {
                      return local_step(ctx, g, truth, 0, w, cont) & row[w];
                    });
}

/// Binary-dictionary transistor record on a packed context: the faulted
/// gate's cell becomes the dictionary's compiled truth table, its output
/// change reaches a PO where the output's observability row says, and
/// contention is local.  A dictionary without a wrong-value row never
/// changes the output, so it reads no row.
DetectionRecord binary_record(const EvalContext& ctx, const Fault& fault,
                              const gates::FaultAnalysis& fa,
                              const FaultSimOptions& options,
                              std::vector<std::uint64_t>& lanes) {
  const bool iddq_possible = options.observe_iddq && fa.iddq_detectable;
  if (ctx.word_count() == 0 || (!fa.output_detectable && !iddq_possible))
    return {};
  const logic::CompiledCircuit& cc = ctx.compiled();
  const logic::CompiledCircuit::GateRec& g =
      cc.gates()[cc.position_of(fault.gate)];
  const std::uint64_t* const row =
      fa.output_detectable ? ctx.obs_row(g.out, lanes) : nullptr;
  return fold_words(
      ctx, options, fa.output_detectable, iddq_possible,
      [&](std::size_t w, std::uint64_t& cont) {
        const std::uint64_t flip = local_step(
            ctx, g, fa.compiled_truth, fa.compiled_contention, w, cont);
        return row != nullptr ? flip & row[w] : 0;
      });
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

  // Every fault is self-contained: line and binary-dictionary transistor
  // faults fold a local step against the context's shared observability
  // rows, retained-state ones take the dual-rail kernel, and X-bearing
  // contexts the serial walk.  One scratch set serves the whole range (the
  // stem walks behind the rows and the retained kernel share the cone
  // cache in `lanes`, so reuse also skips its per-call re-zeroing).
  WalkScratch scratch;
  for (std::size_t fi = begin; fi < end; ++fi) {
    const Fault& f = faults[fi];
    if (f.site == FaultSite::kGateTransistor) {
      records[fi - begin] =
          simulate_transistor_scratch(ctx, f, options, scratch, stats);
      continue;
    }
    records[fi - begin] = line_record(ctx, checked_line_fault(ckt_, f),
                                      options, scratch.lanes);
    if (stats != nullptr) ++stats->faults;
  }
  return records;
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
  WalkScratch scratch;
  return simulate_transistor_scratch(ctx, fault, options, scratch);
}

DetectionRecord FaultSimulator::simulate_transistor_scratch(
    const EvalContext& ctx, const Fault& fault,
    const FaultSimOptions& options, WalkScratch& scratch,
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
      return binary_record(ctx, fault, fa, options, scratch.lanes);
    }
    if (stats != nullptr) ++stats->transistor_retained;
    return simulate_transistor_retained(ctx, fault, fa, options, scratch);
  }
  if (stats != nullptr) ++stats->transistor_serial;
  return serial_walk(ctx, fault, fa, options);
}

DetectionRecord FaultSimulator::simulate_transistor_retained(
    const EvalContext& ctx, const Fault& fault,
    const gates::FaultAnalysis& fa, const FaultSimOptions& options,
    WalkScratch& scratch) const {
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
