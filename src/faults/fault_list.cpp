#include "faults/fault_list.hpp"

#include <algorithm>
#include <sstream>

#include "gates/fault_dictionary.hpp"

namespace cpsinw::faults {

std::string Fault::describe(const logic::Circuit& ckt) const {
  std::ostringstream oss;
  switch (site) {
    case FaultSite::kNet:
      oss << "net " << ckt.net_name(net) << (stuck_at_one ? " SA1" : " SA0");
      break;
    case FaultSite::kGateInput:
      oss << ckt.gate(gate).name << ".in" << pin
          << (stuck_at_one ? " SA1" : " SA0");
      break;
    case FaultSite::kGateTransistor: {
      const auto& tpl = gates::cell(ckt.gate(gate).kind);
      oss << ckt.gate(gate).name << '.'
          << tpl.transistors[static_cast<std::size_t>(cell_fault.transistor)]
                 .label
          << ' ' << gates::to_string(cell_fault.kind);
      break;
    }
  }
  return oss.str();
}

CollapseTarget collapse_target(gates::CellKind kind,
                               const gates::FaultAnalysis& fa) {
  CollapseTarget t;
  // Floating or marginal rows need sequence/X semantics and cannot be
  // represented by a forced line value.  Contention does not block the
  // mapping by itself — it is recorded in `contends` and the caller
  // decides whether IDDQ observation makes it disqualifying.
  if (!fa.compiled_binary) return t;
  t.contends = fa.compiled_contention != 0;
  const unsigned combos = static_cast<unsigned>(fa.rows.size());
  const unsigned mask = (1u << combos) - 1u;
  const unsigned truth = fa.compiled_truth & mask;
  if (truth == 0 || truth == mask) {
    t.kind = CollapseTarget::Kind::kOutputStuck;
    t.stuck_one = truth != 0;
    return t;
  }
  unsigned n_in = 0;
  while ((1u << n_in) < combos) ++n_in;
  for (unsigned i = 0; i < n_in; ++i) {
    for (unsigned b = 0; b < 2; ++b) {
      bool match = true;
      for (unsigned v = 0; v < combos && match; ++v) {
        const unsigned forced = b != 0 ? (v | (1u << i)) : (v & ~(1u << i));
        match = ((truth >> v) & 1u) == gates::good_output(kind, forced);
      }
      if (match) {
        t.kind = CollapseTarget::Kind::kInputStuck;
        t.pin = static_cast<int>(i);
        t.stuck_one = b != 0;
        return t;
      }
    }
  }
  t.contends = false;  // no mapping — leave the default-constructed shape
  return t;
}

bool collapse_representable(const logic::Circuit& ckt,
                            const logic::GateInst& g,
                            const CollapseTarget& t) {
  if (t.kind == CollapseTarget::Kind::kOutputStuck)
    // The output stem is the very net the gate drives: forcing it is
    // exactly what the fault does, wherever the net is observed.
    // Constant nets carry no line faults.
    return !is_binary(ckt.constant_of(g.out));
  if (t.kind != CollapseTarget::Kind::kInputStuck) return false;
  // An input mapping is a *branch* fault: it perturbs only this gate's
  // reading of the net.  With fanout > 1 the universe lists that branch
  // fault directly.  With fanout <= 1 the stem stands in for the branch —
  // but only when the stem is not otherwise observed: a net that is also
  // a primary output is detected at the PO by its stem fault while the
  // branch (and the transistor fault) is not.
  const logic::NetId net = g.in[static_cast<std::size_t>(t.pin)];
  if (is_binary(ckt.constant_of(net))) return false;
  if (ckt.fanout(net).size() > 1) return true;
  const auto& pos = ckt.primary_outputs();
  return std::find(pos.begin(), pos.end(), net) == pos.end();
}

std::vector<Fault> generate_fault_list(const logic::Circuit& ckt,
                                       const FaultListOptions& options) {
  std::vector<Fault> out;

  if (options.include_line_stuck_at) {
    for (logic::NetId n = 0; n < ckt.net_count(); ++n) {
      if (is_binary(ckt.constant_of(n))) continue;  // constant nets excluded
      out.push_back(Fault::net_stuck(n, false));
      out.push_back(Fault::net_stuck(n, true));
      // Branch faults only matter on fanout stems (branch != stem there).
      if (!options.collapse || ckt.fanout(n).size() > 1) {
        for (const int gid : ckt.fanout(n)) {
          const logic::GateInst& g = ckt.gate(gid);
          for (int pin = 0; pin < g.input_count(); ++pin) {
            if (g.in[static_cast<std::size_t>(pin)] != n) continue;
            out.push_back(Fault::input_stuck(gid, pin, false));
            out.push_back(Fault::input_stuck(gid, pin, true));
          }
        }
      }
    }
  }

  if (options.include_transistor_faults) {
    for (const logic::GateInst& g : ckt.gates()) {
      std::vector<const gates::FaultAnalysis*> kept;
      for (const gates::CellFault& cf :
           gates::enumerate_transistor_faults(g.kind)) {
        const gates::FaultAnalysis& fa = gates::dictionary(g.kind, cf);
        // A polarity bridge onto the rail the PG is already tied to is not
        // an electrical defect: never listed.  Other benign-looking faults
        // (e.g. a statically-masked channel break) stay in the universe —
        // they are real defects that the CB procedure may still reveal.
        const bool polarity_fault =
            cf.kind == gates::TransistorFault::kStuckAtNType ||
            cf.kind == gates::TransistorFault::kStuckAtPType;
        if (polarity_fault && fa.is_benign()) continue;
        // Cross-class collapse: a transistor fault behaving exactly as a
        // line stuck-at is represented by that line fault when it is in
        // the universe (stem for fanout-free nets, branch otherwise —
        // the same line either way; constant nets carry no line faults).
        if (options.collapse && options.cross_class_collapse &&
            options.include_line_stuck_at) {
          const CollapseTarget t = collapse_target(g.kind, fa);
          // A contending mapping (stuck-on drawing IDDQ) is only
          // logic-equivalent: keep the fault when IDDQ is observed.
          const bool applicable = t.kind != CollapseTarget::Kind::kNone &&
                                  (!t.contends || !options.observe_iddq);
          if (applicable &&
              collapse_representable(ckt, g, t))
            continue;
        }
        if (options.collapse) {
          bool duplicate = false;
          for (const gates::FaultAnalysis* prev : kept)
            if (fa.equivalent_to(*prev)) {
              duplicate = true;
              break;
            }
          if (duplicate) continue;
          kept.push_back(&fa);
        }
        out.push_back(Fault::transistor(g.id, cf.transistor, cf.kind));
      }
    }
  }
  return out;
}

int count_line_faults(const std::vector<Fault>& faults) {
  int n = 0;
  for (const Fault& f : faults)
    if (f.site != FaultSite::kGateTransistor) ++n;
  return n;
}

int count_transistor_faults(const std::vector<Fault>& faults) {
  int n = 0;
  for (const Fault& f : faults)
    if (f.site == FaultSite::kGateTransistor) ++n;
  return n;
}

}  // namespace cpsinw::faults
