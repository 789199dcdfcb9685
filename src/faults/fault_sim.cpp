#include "faults/fault_sim.hpp"

#include <stdexcept>
#include <string>

#include "faults/word_fold.hpp"

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

/// Folds one fault's per-word detect, potential and contention words into
/// its record, word by word in pattern order (see WordFold), and stops
/// once no later word can change it: in full mode when the output side (a
/// detection seen, or `out_possible` false), the X side (a potential
/// detection seen, or `x_possible` false) and the IDDQ side (contention
/// seen, or `iddq_possible` false) are all settled.  `step(w, pot, cont)`
/// returns word w's detect word and sets its potential and contention
/// words.
template <class Step>
DetectionRecord fold_words(const EvalContext& ctx,
                           const FaultSimOptions& options, bool out_possible,
                           bool x_possible, bool iddq_possible,
                           const Step& step) {
  WordFold fold{options.observe_iddq,
                options.detection_mode == DetectionMode::kFirstOnly};
  const std::uint64_t* const active = ctx.active_words().data();
  for (std::size_t w = 0; w < ctx.word_count(); ++w) {
    std::uint64_t pot = 0;
    std::uint64_t cont = 0;
    const std::uint64_t detect = step(w, pot, cont);
    if (fold.fold(w, 1, &detect, &pot, &cont, active)) break;
    if ((fold.any_d != 0 || !out_possible) &&
        (fold.any_p != 0 || !x_possible) &&
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
    return fold_words(ctx, options, true, false, false,
                      [&](std::size_t w, std::uint64_t&, std::uint64_t&) {
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
  return fold_words(
      ctx, options, true, false, false,
      [&](std::size_t w, std::uint64_t&, std::uint64_t& cont) {
        return local_step(ctx, g, truth, 0, w, cont) & row[w];
      });
}

/// Transistor-fault record on a packed context, for every dictionary: the
/// faulted gate's output per word comes from retained_row (binary,
/// marginal X, or retained from the previous pattern), and it is the only
/// net the fault changes.  Where it is binary and differs from good, the
/// change reaches a PO where the output's observability row says; where
/// it is X, the X reaches a PO where its X row says (a PO that stays
/// binary then equals good); contention is local.  Each row is fetched on
/// the first word that needs it, so a binary dictionary never asks for an
/// X row and a fault that never changes its output asks for neither.
/// Every observable settles early where the dictionary rules it out: a PO
/// flip without a wrong-value row (unless a floating row can retain a
/// stale value), an X for a binary dictionary, an observed IDDQ hit
/// without a contending row.
DetectionRecord transistor_record(const EvalContext& ctx, const Fault& fault,
                                  const gates::FaultAnalysis& fa,
                                  const FaultSimOptions& options,
                                  std::vector<std::uint64_t>& lanes) {
  const bool retain = options.sequential_patterns;
  const bool out_possible =
      fa.output_detectable || (fa.needs_sequence && retain);
  const bool x_possible = !fa.compiled_binary;
  const bool iddq_possible = options.observe_iddq && fa.iddq_detectable;
  if (ctx.word_count() == 0 || (!out_possible && !x_possible && !iddq_possible))
    return {};
  const logic::CompiledCircuit& cc = ctx.compiled();
  const logic::CompiledCircuit::GateRec& g =
      cc.gates()[cc.position_of(fault.gate)];
  const std::uint64_t* const good = ctx.good_plane(g.out);
  const std::uint64_t* const active = ctx.active_words().data();
  const std::uint64_t* obs = nullptr;
  const std::uint64_t* xobs = nullptr;
  RetainedCarry carry;
  return fold_words(
      ctx, options, out_possible, x_possible, iddq_possible,
      [&](std::size_t w, std::uint64_t& pot, std::uint64_t& cont) {
        std::uint64_t v = 0;
        std::uint64_t x = 0;
        cont = retained_row(ctx, g, fa, retain, w, carry, v, x);
        const std::uint64_t flip = (v ^ good[w]) & ~x & active[w];
        if (flip != 0 && obs == nullptr) obs = ctx.obs_row(g.out, lanes);
        if ((x & active[w]) != 0 && xobs == nullptr)
          xobs = ctx.xobs_row(g.out, lanes);
        pot = xobs != nullptr ? x & xobs[w] : 0;
        return obs != nullptr ? flip & obs[w] : 0;
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
  if (fault.cell_fault.kind == gates::TransistorFault::kNone)
    return "no fault kind";
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

  // Every fault is self-contained: line and transistor faults fold a
  // one-gate step against the context's shared observability rows, and
  // transistor faults on X-bearing contexts take the serial walk.  One
  // lane scratch serves the whole range, so the stem walks behind the
  // rows size and zero it once.
  std::vector<std::uint64_t> lanes;
  for (std::size_t fi = begin; fi < end; ++fi) {
    const Fault& f = faults[fi];
    if (f.site == FaultSite::kGateTransistor) {
      records[fi - begin] =
          transistor_fault_record(ctx, f, options, lanes, stats);
      continue;
    }
    records[fi - begin] =
        line_record(ctx, checked_line_fault(ckt_, f), options, lanes);
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
  std::vector<std::uint64_t> lanes;
  return transistor_fault_record(ctx, fault, options, lanes);
}

DetectionRecord FaultSimulator::transistor_fault_record(
    const EvalContext& ctx, const Fault& fault,
    const FaultSimOptions& options, std::vector<std::uint64_t>& lanes,
    LineBatchStats* stats) const {
  check_context(ctx);
  if (fault.site != FaultSite::kGateTransistor)
    throw std::invalid_argument("simulate_transistor_fault: wrong site");
  if (const char* error = transistor_fault_error(ckt_, fault))
    throw std::invalid_argument(
        std::string("simulate_transistor_fault: ") + error);
  const gates::FaultAnalysis& fa =
      gates::dictionary(ckt_.gate(fault.gate).kind, fault.cell_fault);

  // Every dictionary folds the same record against the faulted output's
  // rows; X-bearing pattern sets keep the serial walk.
  if (ctx.packed()) {
    if (stats != nullptr)
      ++(fa.compiled_binary ? stats->transistor_binary
                            : stats->transistor_retained);
    return transistor_record(ctx, fault, fa, options, lanes);
  }
  if (stats != nullptr) ++stats->transistor_serial;
  return serial_walk(ctx, fault, fa, options);
}

bool FaultSimulator::stuck_open_detected(const Fault& fault,
                                         const Pattern& init,
                                         const Pattern& test) const {
  return simulate_transistor_fault(fault, {init, test}).detected_output;
}

}  // namespace cpsinw::faults
