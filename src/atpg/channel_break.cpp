#include "atpg/channel_break.hpp"

#include <stdexcept>
#include <utility>

namespace cpsinw::atpg {

using gates::CellKind;
using gates::DualRailBits;
using gates::SwitchEval;

namespace {

/// Applies the polarity-complement override for transistor `t` of the cell
/// to a consistent dual-rail assignment of `vector`, returning the rails
/// and the emulated fault kind.  The device's PG signal net (true or bar
/// rail of some input) is forced to equal the device's CG value so the
/// device is driven into conduction.
struct Override {
  DualRailBits rails;
  gates::TransistorFault emulated;
};

std::optional<Override> polarity_override(CellKind kind, int transistor,
                                          unsigned vector) {
  const gates::CellTemplate& tpl = gates::cell(kind);
  const gates::TransistorSpec& tr =
      tpl.transistors.at(static_cast<std::size_t>(transistor));

  const int n = gates::input_count(kind);
  DualRailBits rails = DualRailBits::consistent(vector, n);

  // CG value under this vector.
  int cg = -1;
  switch (tr.cg.kind) {
    case gates::Sig::Kind::kIn:
      cg = (rails.true_bits >> tr.cg.index) & 1u;
      break;
    case gates::Sig::Kind::kInBar:
      cg = (rails.bar_bits >> tr.cg.index) & 1u;
      break;
    default:
      return std::nullopt;  // CG tied to a rail: not a DP device
  }

  // Force the PG net toward the CG value (conduction requires CG = PG).
  const unsigned bit = 1u << tr.pg.index;
  switch (tr.pg.kind) {
    case gates::Sig::Kind::kIn:
      if (((rails.true_bits & bit) != 0) == (cg == 1))
        return std::nullopt;  // PG already matches: device conducts anyway
      if (cg == 1)
        rails.true_bits |= bit;
      else
        rails.true_bits &= ~bit;
      break;
    case gates::Sig::Kind::kInBar:
      if (((rails.bar_bits & bit) != 0) == (cg == 1))
        return std::nullopt;
      if (cg == 1)
        rails.bar_bits |= bit;
      else
        rails.bar_bits &= ~bit;
      break;
    default:
      return std::nullopt;  // PG tied to a rail: SP device
  }

  Override o;
  o.rails = rails;
  o.emulated = cg == 1 ? gates::TransistorFault::kStuckAtNType
                       : gates::TransistorFault::kStuckAtPType;
  return o;
}

/// Observable signature of a switch-level response.
CbSignature signature_of(const SwitchEval& eval) {
  return {gates::logic_value(eval.out), eval.contention};
}

/// Whether a signature is a fault symptom relative to the good output.
bool is_symptom(CellKind kind, unsigned vector, const CbSignature& sig) {
  return sig.iddq ||
         sig.out_read != gates::good_output(kind, vector);
}

/// Evaluates one candidate assignment; returns the test when intact and
/// broken responses differ.
std::optional<ChannelBreakTest> try_vector(CellKind kind, int transistor,
                                           unsigned v,
                                           bool require_clean_broken) {
  const auto ov = polarity_override(kind, transistor, v);
  if (!ov) return std::nullopt;

  const SwitchEval intact = gates::eval_switch_dual(kind, ov->rails);
  const SwitchEval broken = gates::eval_switch_dual(
      kind, ov->rails, {transistor, gates::TransistorFault::kStuckOpen});
  const CbSignature si = signature_of(intact);
  const CbSignature sb = signature_of(broken);
  if (si == sb) return std::nullopt;
  if (!is_symptom(kind, v, si)) return std::nullopt;
  const bool clean = !is_symptom(kind, v, sb);
  if (require_clean_broken && !clean) return std::nullopt;

  ChannelBreakTest test;
  test.transistor = transistor;
  test.emulated_polarity = ov->emulated;
  test.local_vector = v;
  test.rails = ov->rails;
  test.expected_intact = si;
  test.expected_broken = sb;
  test.broken_is_clean = clean;
  test.intact_shows_iddq = si.iddq;
  test.intact_shows_output_error =
      si.out_read != gates::good_output(kind, v);
  return test;
}

}  // namespace

std::optional<ChannelBreakTest> derive_cell_test(CellKind kind,
                                                 int transistor) {
  if (!gates::is_dynamic_polarity(kind)) return std::nullopt;
  const int n = gates::input_count(kind);
  const int nt =
      static_cast<int>(gates::cell(kind).transistors.size());
  if (transistor < 0 || transistor >= nt)
    throw std::invalid_argument("derive_cell_test: transistor index");

  // Prefer the paper's canonical form (intact symptomatic, broken clean);
  // fall back to any separating signature pair.
  for (const bool require_clean : {true, false}) {
    for (unsigned v = 0; v < (1u << n); ++v) {
      auto test = try_vector(kind, transistor, v, require_clean);
      if (test) return test;
    }
  }
  return std::nullopt;
}

ChannelBreakOutcome evaluate_cell_test(CellKind kind,
                                       const ChannelBreakTest& test) {
  ChannelBreakOutcome out;
  const SwitchEval intact = gates::eval_switch_dual(kind, test.rails);
  const SwitchEval broken = gates::eval_switch_dual(
      kind, test.rails,
      {test.transistor, gates::TransistorFault::kStuckOpen});
  out.intact = signature_of(intact);
  out.broken = signature_of(broken);
  return out;
}

std::optional<ChannelBreakTest> gate_channel_break_test(
    const PodemEngine& engine, int gate, int transistor,
    const PodemOptions& opt) {
  const logic::Circuit& ckt = engine.circuit();
  const logic::GateInst& g = ckt.gate(gate);
  auto test = derive_cell_test(g.kind, transistor);
  if (!test) return std::nullopt;
  test->gate = gate;
  test->pi_accessible = true;
  for (int i = 0; i < g.input_count(); ++i)
    if (!ckt.is_primary_input(g.in[static_cast<std::size_t>(i)]))
      test->pi_accessible = false;
  AtpgResult just = engine.justify_gate_cube(gate, test->local_vector, opt);
  if (just.status == AtpgStatus::kDetected)
    test->pattern = std::move(just.pattern);
  return test;
}

std::vector<ChannelBreakTest> generate_channel_break_tests(
    const logic::Circuit& ckt, const PodemOptions& opt) {
  const PodemEngine engine(ckt);
  std::vector<ChannelBreakTest> out;
  for (const logic::GateInst& g : ckt.gates()) {
    if (!gates::is_dynamic_polarity(g.kind)) continue;
    const int nt =
        static_cast<int>(gates::cell(g.kind).transistors.size());
    for (int t = 0; t < nt; ++t)
      if (auto test = gate_channel_break_test(engine, g.id, t, opt))
        out.push_back(std::move(*test));
  }
  return out;
}

}  // namespace cpsinw::atpg
