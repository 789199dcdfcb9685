// Reference PODEM for the differential suite: the full-pass search that
// atpg::PodemEngine ran before its implication became event-driven, kept
// verbatim.  Every implication copies every net and re-evaluates every
// gate, every fault-effect test scans every net, and every D-frontier
// query rescans the gate list and sorts it.  The engine must return the
// same status, pattern, backtrack count and excited cube for every call.
#pragma once

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "atpg/podem.hpp"
#include "atpg/scoap.hpp"
#include "faults/fault.hpp"
#include "gates/fault_dictionary.hpp"
#include "logic/compiled_circuit.hpp"

namespace cpsinw::atpg::reference {

/// Internal description of the faulty machine plus the search target.
struct Target {
  // Line fault (stem or branch).
  bool line = false;
  logic::NetId line_net = -1;  ///< stem net, or the net feeding the branch
  int line_gate = -1;          ///< branch: consuming gate
  int line_pin = -1;           ///< branch: pin index
  logic::LogicV stuck = logic::LogicV::k0;

  // Functional gate fault.
  bool functional = false;
  int func_gate = -1;
  const gates::FaultAnalysis* dictionary = nullptr;

  // Excitation cube to justify at `cube_gate` (functional and
  // justification-only modes).
  int cube_gate = -1;
  unsigned cube = 0;

  // Justification-only: success once the cube is justified.
  bool justify_only = false;

  // Net justification targets (alternative to cube_gate).
  std::vector<std::pair<logic::NetId, logic::LogicV>> justify_nets;

  // Two-pattern mode: value a floating faulty output retains (set by the
  // initialization vector); kX outside two-pattern generation.
  logic::LogicV retained = logic::LogicV::kX;
};

class Solver {
  using LogicV = logic::LogicV;
  using NetId = logic::NetId;

 public:
  Solver(const logic::Circuit& ckt, const logic::CompiledCircuit& cc,
         Target target, const PodemOptions& opt,
         const std::vector<Testability>* scoap)
      : ckt_(ckt), cc_(cc), target_(target), opt_(opt), scoap_(scoap) {
    pi_assign_.assign(ckt.primary_inputs().size(), LogicV::kX);
    values_.assign(static_cast<std::size_t>(ckt.net_count()), V5::x());
    // Constant nets never change across implications: seed them once and
    // copy the baseline per imply() instead of re-reading the circuit.
    base_.assign(static_cast<std::size_t>(ckt.net_count()), V5::x());
    for (NetId n = 0; n < ckt.net_count(); ++n) {
      const LogicV c = ckt.constant_of(n);
      if (is_binary(c)) base_[static_cast<std::size_t>(n)] = V5::both(c);
    }
  }

  AtpgResult run() {
    AtpgResult result;
    struct Decision {
      int pi;
      bool flipped;
    };
    std::vector<Decision> stack;

    while (true) {
      imply();
      if (success()) {
        result.status = AtpgStatus::kDetected;
        result.pattern = make_pattern();
        result.backtracks = backtracks_;
        if (target_.cube_gate >= 0) result.excited_cube = target_.cube;
        return result;
      }

      int obj_pi = -1;
      LogicV obj_val = LogicV::kX;
      const bool can_extend =
          !failure() && next_objective(obj_pi, obj_val);

      if (can_extend) {
        pi_assign_[static_cast<std::size_t>(obj_pi)] = obj_val;
        stack.push_back({obj_pi, false});
        continue;
      }

      // Backtrack.
      bool resumed = false;
      while (!stack.empty()) {
        Decision& top = stack.back();
        if (!top.flipped) {
          top.flipped = true;
          LogicV& v = pi_assign_[static_cast<std::size_t>(top.pi)];
          v = v == LogicV::k0 ? LogicV::k1 : LogicV::k0;
          if (++backtracks_ > opt_.backtrack_limit) {
            result.status = AtpgStatus::kAborted;
            result.backtracks = backtracks_;
            return result;
          }
          resumed = true;
          break;
        }
        pi_assign_[static_cast<std::size_t>(top.pi)] = LogicV::kX;
        stack.pop_back();
      }
      if (!resumed) {
        result.status = AtpgStatus::kUntestable;
        result.backtracks = backtracks_;
        return result;
      }
    }
  }

 private:
  [[nodiscard]] V5 net_value(NetId n) const {
    return values_[static_cast<std::size_t>(n)];
  }

  void imply() {
    using logic::CompiledCircuit;
    values_ = base_;
    const auto& pis = ckt_.primary_inputs();
    for (std::size_t i = 0; i < pis.size(); ++i)
      values_[static_cast<std::size_t>(pis[i])] = V5::both(pi_assign_[i]);

    // Stem fault forces the faulty component of the net everywhere.
    if (target_.line && target_.line_gate < 0)
      values_[static_cast<std::size_t>(target_.line_net)].faulty =
          target_.stuck;

    // Forward implication off the compiled records: both the good and the
    // faulty component come from the levelized 4-valued tables (unused
    // pins alias slot 0, whose code the tables ignore).
    for (const CompiledCircuit::GateRec& g : cc_.gates()) {
      V5 in_v[3] = {values_[static_cast<std::size_t>(g.in[0])],
                    values_[static_cast<std::size_t>(g.in[1])],
                    values_[static_cast<std::size_t>(g.in[2])]};
      // Branch fault: only this gate's pin sees the forced value.
      if (target_.line && target_.line_gate == g.id)
        in_v[target_.line_pin].faulty = target_.stuck;

      V5 out;
      out.good = g.table[CompiledCircuit::code(in_v[0].good) |
                         (CompiledCircuit::code(in_v[1].good) << 2) |
                         (CompiledCircuit::code(in_v[2].good) << 4)];
      if (target_.functional && target_.func_gate == g.id) {
        out.faulty = faulty_gate_output(in_v, g.n_in);
      } else {
        out.faulty = g.table[CompiledCircuit::code(in_v[0].faulty) |
                             (CompiledCircuit::code(in_v[1].faulty) << 2) |
                             (CompiledCircuit::code(in_v[2].faulty) << 4)];
      }
      values_[static_cast<std::size_t>(g.out)] = out;
      if (target_.line && target_.line_gate < 0 &&
          g.out == target_.line_net)
        values_[static_cast<std::size_t>(g.out)].faulty = target_.stuck;
    }
  }

  /// Faulty output of the functional-faulted gate from its dictionary;
  /// needs binary faulty-side local inputs.
  [[nodiscard]] LogicV faulty_gate_output(const V5 in_v[3],
                                          unsigned n_in) const {
    unsigned bits = 0;
    for (unsigned i = 0; i < n_in; ++i) {
      if (!is_binary(in_v[i].faulty)) return LogicV::kX;
      if (in_v[i].faulty == LogicV::k1) bits |= 1u << i;
    }
    const int fv = target_.dictionary->faulty_logic(bits);
    if (fv == 0) return LogicV::k0;
    if (fv == 1) return LogicV::k1;
    if (fv == -2) return target_.retained;  // floating: retained charge
    return LogicV::kX;                      // marginal
  }

  [[nodiscard]] bool cube_justified() const {
    const logic::GateInst& g = ckt_.gate(target_.cube_gate);
    for (int i = 0; i < g.input_count(); ++i) {
      const LogicV v =
          net_value(g.in[static_cast<std::size_t>(i)]).good;
      const LogicV want =
          ((target_.cube >> i) & 1u) ? LogicV::k1 : LogicV::k0;
      if (v != want) return false;
    }
    return true;
  }

  [[nodiscard]] bool cube_dead() const {
    const logic::GateInst& g = ckt_.gate(target_.cube_gate);
    for (int i = 0; i < g.input_count(); ++i) {
      const LogicV v =
          net_value(g.in[static_cast<std::size_t>(i)]).good;
      const LogicV want =
          ((target_.cube >> i) & 1u) ? LogicV::k1 : LogicV::k0;
      if (is_binary(v) && v != want) return true;
    }
    return false;
  }

  [[nodiscard]] bool success() const {
    if (target_.justify_only) {
      if (!target_.justify_nets.empty()) {
        for (const auto& [net, value] : target_.justify_nets)
          if (net_value(net).good != value) return false;
        return true;
      }
      return cube_justified();
    }
    for (const NetId po : ckt_.primary_outputs())
      if (net_value(po).is_fault_effect()) return true;
    return false;
  }

  [[nodiscard]] bool excitation_possible() const {
    if (target_.line) {
      const LogicV good = net_value(target_.line_net).good;
      return !(is_binary(good) && good == target_.stuck);
    }
    if (target_.functional) return !cube_dead();
    return true;
  }

  [[nodiscard]] bool fault_effect_exists() const {
    for (NetId n = 0; n < ckt_.net_count(); ++n)
      if (net_value(n).is_fault_effect()) return true;
    return false;
  }

  /// D-frontier: gates with a fault effect on an input (or the excited
  /// fault site itself) whose output is still X on either side.
  [[nodiscard]] std::vector<int> d_frontier() const {
    std::vector<int> frontier;
    for (const logic::GateInst& g : ckt_.gates()) {
      const V5 out = net_value(g.out);
      if (is_binary(out.good) && is_binary(out.faulty)) continue;
      bool candidate = false;
      for (int i = 0; i < g.input_count(); ++i)
        if (net_value(g.in[static_cast<std::size_t>(i)]).is_fault_effect())
          candidate = true;
      if (target_.functional && g.id == target_.func_gate && cube_justified())
        candidate = true;
      if (target_.line && g.id == target_.line_gate) {
        const LogicV good = net_value(target_.line_net).good;
        if (is_binary(good) && good != target_.stuck) candidate = true;
      }
      if (candidate) frontier.push_back(g.id);
    }
    if (scoap_ != nullptr && frontier.size() > 1) {
      std::stable_sort(frontier.begin(), frontier.end(),
                       [&](int a, int b) {
                         const auto& sa = (*scoap_)[static_cast<std::size_t>(
                             ckt_.gate(a).out)];
                         const auto& sb = (*scoap_)[static_cast<std::size_t>(
                             ckt_.gate(b).out)];
                         return sa.obs < sb.obs;
                       });
    }
    return frontier;
  }

  [[nodiscard]] bool failure() const {
    if (target_.justify_only) {
      if (!target_.justify_nets.empty()) {
        for (const auto& [net, value] : target_.justify_nets) {
          const LogicV v = net_value(net).good;
          if (is_binary(v) && v != value) return true;
        }
        return false;
      }
      return cube_dead();
    }
    if (!excitation_possible()) return true;
    if (fault_effect_exists()) {
      if (success()) return false;
      if (d_frontier().empty()) return true;
    }
    return false;
  }

  /// Picks the next objective and backtraces it to a PI assignment.
  /// Returns false when no useful unassigned PI can be found.
  bool next_objective(int& pi_index, LogicV& pi_value) const {
    NetId obj_net = -1;
    LogicV obj_val = LogicV::kX;

    if (!target_.justify_nets.empty()) {
      for (const auto& [net, value] : target_.justify_nets) {
        if (net_value(net).good == LogicV::kX) {
          obj_net = net;
          obj_val = value;
          break;
        }
      }
    } else if (target_.cube_gate >= 0 && !cube_justified()) {
      const logic::GateInst& g = ckt_.gate(target_.cube_gate);
      for (int i = 0; i < g.input_count(); ++i) {
        const NetId n = g.in[static_cast<std::size_t>(i)];
        if (net_value(n).good == LogicV::kX) {
          obj_net = n;
          obj_val = ((target_.cube >> i) & 1u) ? LogicV::k1 : LogicV::k0;
          break;
        }
      }
    } else if (target_.line && net_value(target_.line_net).good ==
                                   LogicV::kX) {
      obj_net = target_.line_net;
      obj_val = target_.stuck == LogicV::k0 ? LogicV::k1 : LogicV::k0;
    } else if (!target_.justify_only) {
      // Propagation: pick the first D-frontier gate and feed it a
      // non-masking side value.
      const auto frontier = d_frontier();
      for (const int gid : frontier) {
        const logic::GateInst& g = ckt_.gate(gid);
        for (int i = 0; i < g.input_count(); ++i) {
          const NetId n = g.in[static_cast<std::size_t>(i)];
          if (net_value(n).good != LogicV::kX) continue;
          obj_net = n;
          obj_val = preferred_side_value(g, i);
          break;
        }
        if (obj_net >= 0) break;
      }
    }
    if (obj_net < 0) return false;
    return backtrace(obj_net, obj_val, pi_index, pi_value);
  }

  /// Non-masking side-input value for propagating through `g`.
  [[nodiscard]] LogicV preferred_side_value(const logic::GateInst& g,
                                            int pin) const {
    switch (g.kind) {
      case gates::CellKind::kNand2: return LogicV::k1;
      case gates::CellKind::kNor2: return LogicV::k0;
      case gates::CellKind::kMaj3: {
        // MAJ passes a D on one pin when the other two pins disagree.
        for (int i = 0; i < g.input_count(); ++i) {
          if (i == pin) continue;
          const LogicV v =
              net_value(g.in[static_cast<std::size_t>(i)]).good;
          if (is_binary(v)) return logic_not(v);
        }
        return LogicV::k1;
      }
      default: return LogicV::k0;  // XOR family: any side value works
    }
  }

  /// Maps an objective back to an unassigned primary input.
  bool backtrace(NetId net, LogicV value, int& pi_index,
                 LogicV& pi_value) const {
    for (int hop = 0; hop < ckt_.net_count() + 1; ++hop) {
      if (ckt_.is_primary_input(net)) {
        const auto& pis = ckt_.primary_inputs();
        for (std::size_t i = 0; i < pis.size(); ++i) {
          if (pis[i] != net) continue;
          if (pi_assign_[i] != LogicV::kX) return false;  // already set
          pi_index = static_cast<int>(i);
          pi_value = value;
          return true;
        }
        return false;
      }
      const int drv = ckt_.driver_of(net);
      if (drv < 0) return false;  // constant: cannot justify
      const logic::GateInst& g = ckt_.gate(drv);

      int pick = -1;
      long long best_cost = -1;
      for (int i = 0; i < g.input_count(); ++i) {
        const NetId cand = g.in[static_cast<std::size_t>(i)];
        if (net_value(cand).good != LogicV::kX) continue;
        long long cost = 0;
        if (scoap_ != nullptr) {
          const Testability& tc = (*scoap_)[static_cast<std::size_t>(cand)];
          cost = std::min(tc.cc0, tc.cc1);
        }
        if (pick < 0 || cost < best_cost) {
          pick = i;
          best_cost = cost;
        }
      }
      if (pick < 0) return false;

      switch (g.kind) {
        case gates::CellKind::kInv:
          value = logic_not(value);
          break;
        case gates::CellKind::kBuf:
          break;
        case gates::CellKind::kNand2:
          value = value == LogicV::k1 ? LogicV::k0 : LogicV::k1;
          break;
        case gates::CellKind::kNor2:
          value = value == LogicV::k1 ? LogicV::k0 : LogicV::k1;
          break;
        case gates::CellKind::kXor2:
        case gates::CellKind::kXor3: {
          // value = want XOR (parity of other known inputs).
          int parity = 0;
          for (int i = 0; i < g.input_count(); ++i) {
            if (i == pick) continue;
            if (net_value(g.in[static_cast<std::size_t>(i)]).good ==
                LogicV::k1)
              parity ^= 1;
          }
          if (parity) value = logic_not(value);
          break;
        }
        case gates::CellKind::kMaj3:
          break;  // want v -> drive an input toward v
      }
      net = g.in[static_cast<std::size_t>(pick)];
    }
    return false;
  }

  logic::Pattern make_pattern() const {
    logic::Pattern p(pi_assign_.size());
    for (std::size_t i = 0; i < pi_assign_.size(); ++i)
      p[i] = pi_assign_[i] == LogicV::kX ? LogicV::k0 : pi_assign_[i];
    return p;
  }

  const logic::Circuit& ckt_;
  const logic::CompiledCircuit& cc_;
  Target target_;
  PodemOptions opt_;
  const std::vector<Testability>* scoap_ = nullptr;
  std::vector<LogicV> pi_assign_;
  std::vector<V5> values_;
  std::vector<V5> base_;  ///< constants seeded, everything else X
  int backtracks_ = 0;
};

/// The entry points of PodemEngine over the full-pass Solver.  Callers
/// pass valid ids: the bodies are the originals, which did not check
/// line-fault net and pin ids.
class Podem {
  using LogicV = logic::LogicV;
  using NetId = logic::NetId;

 public:
  explicit Podem(const logic::Circuit& ckt)
      : ckt_(ckt), cc_(ckt), scoap_(compute_scoap(ckt)) {}

  [[nodiscard]] AtpgResult generate_line(const faults::Fault& fault,
                                         const PodemOptions& opt = {}) const {
    if (fault.site == faults::FaultSite::kGateTransistor)
      throw std::invalid_argument("generate_line: transistor fault");
    Target t;
    t.line = true;
    t.stuck = fault.stuck_at_one ? LogicV::k1 : LogicV::k0;
    if (fault.site == faults::FaultSite::kNet) {
      t.line_net = fault.net;
    } else {
      t.line_gate = fault.gate;
      t.line_pin = fault.pin;
      t.line_net = ckt_.gate(fault.gate)
                       .in[static_cast<std::size_t>(fault.pin)];
    }
    return Solver(ckt_, cc_, t, opt, &scoap_).run();
  }

  [[nodiscard]] AtpgResult generate_functional(
      const faults::Fault& fault, const PodemOptions& opt = {}) const {
    if (fault.site != faults::FaultSite::kGateTransistor)
      throw std::invalid_argument(
          "generate_functional: not a transistor fault");
    const gates::FaultAnalysis& fa =
        gates::dictionary(ckt_.gate(fault.gate).kind, fault.cell_fault);

    AtpgResult last;
    bool any_aborted = false;
    for (const gates::FaultRow& row : fa.rows) {
      if (gates::classify_row(row) != gates::RowEffect::kWrongValue)
        continue;
      Target t;
      t.functional = true;
      t.func_gate = fault.gate;
      t.dictionary = &fa;
      t.cube_gate = fault.gate;
      t.cube = row.input;
      last = Solver(ckt_, cc_, t, opt, &scoap_).run();
      if (last.status == AtpgStatus::kDetected) return last;
      if (last.status == AtpgStatus::kAborted) any_aborted = true;
    }
    last.status =
        any_aborted ? AtpgStatus::kAborted : AtpgStatus::kUntestable;
    last.pattern.clear();
    return last;
  }

  [[nodiscard]] AtpgResult generate_iddq(const faults::Fault& fault,
                                         const PodemOptions& opt = {}) const {
    if (fault.site != faults::FaultSite::kGateTransistor)
      throw std::invalid_argument("generate_iddq: not a transistor fault");
    const gates::FaultAnalysis& fa =
        gates::dictionary(ckt_.gate(fault.gate).kind, fault.cell_fault);

    AtpgResult last;
    bool any_aborted = false;
    for (const gates::FaultRow& row : fa.rows) {
      if (!row.faulty.contention) continue;
      last = justify_gate_cube(fault.gate, row.input, opt);
      if (last.status == AtpgStatus::kDetected) {
        last.excited_cube = row.input;
        return last;
      }
      if (last.status == AtpgStatus::kAborted) any_aborted = true;
    }
    last.status =
        any_aborted ? AtpgStatus::kAborted : AtpgStatus::kUntestable;
    last.pattern.clear();
    return last;
  }

  [[nodiscard]] AtpgResult generate_functional_retained(
      const faults::Fault& fault, unsigned cube, bool good_is_one,
      const PodemOptions& opt = {}) const {
    if (fault.site != faults::FaultSite::kGateTransistor)
      throw std::invalid_argument(
          "generate_functional_retained: not a transistor fault");
    const gates::FaultAnalysis& fa =
        gates::dictionary(ckt_.gate(fault.gate).kind, fault.cell_fault);
    Target t;
    t.functional = true;
    t.func_gate = fault.gate;
    t.dictionary = &fa;
    t.cube_gate = fault.gate;
    t.cube = cube;
    t.retained = good_is_one ? LogicV::k0 : LogicV::k1;
    return Solver(ckt_, cc_, t, opt, &scoap_).run();
  }

  [[nodiscard]] AtpgResult justify_net_values(
      const std::vector<std::pair<NetId, LogicV>>& goals,
      const PodemOptions& opt = {}) const {
    if (goals.empty())
      throw std::invalid_argument("justify_net_values: no goals");
    for (const auto& [net, value] : goals) {
      if (net < 0 || net >= ckt_.net_count())
        throw std::invalid_argument("justify_net_values: bad net id");
      if (!is_binary(value))
        throw std::invalid_argument(
            "justify_net_values: value must be binary");
    }
    Target t;
    t.justify_only = true;
    t.justify_nets = goals;
    return Solver(ckt_, cc_, t, opt, &scoap_).run();
  }

  [[nodiscard]] AtpgResult justify_gate_cube(int gate, unsigned cube,
                                             const PodemOptions& opt = {})
      const {
    if (gate < 0 || gate >= ckt_.gate_count())
      throw std::invalid_argument("justify_gate_cube: bad gate id");
    Target t;
    t.justify_only = true;
    t.cube_gate = gate;
    t.cube = cube;
    return Solver(ckt_, cc_, t, opt, &scoap_).run();
  }

 private:
  const logic::Circuit& ckt_;
  logic::CompiledCircuit cc_;
  std::vector<Testability> scoap_;
};

}  // namespace cpsinw::atpg::reference
