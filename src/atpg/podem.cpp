#include "atpg/podem.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "faults/fault_sim.hpp"
#include "gates/fault_dictionary.hpp"

namespace cpsinw::atpg {

using faults::Fault;
using faults::FaultSite;
using logic::LogicV;
using logic::NetId;

const char* to_string(AtpgStatus status) {
  switch (status) {
    case AtpgStatus::kDetected: return "detected";
    case AtpgStatus::kUntestable: return "untestable";
    case AtpgStatus::kAborted: return "aborted";
  }
  return "?";
}

const char* to_string(const V5& v) {
  if (v.is_d()) return "D";
  if (v.is_dbar()) return "D'";
  if (v.good == LogicV::k0 && v.faulty == LogicV::k0) return "0";
  if (v.good == LogicV::k1 && v.faulty == LogicV::k1) return "1";
  if (v.good == LogicV::kX && v.faulty == LogicV::kX) return "X";
  return "g/f";
}

namespace {

/// Internal description of the faulty machine plus the search target.
struct Target {
  // Line fault (stem or branch).
  bool line = false;
  NetId line_net = -1;       ///< stem net, or the net feeding the branch
  int line_gate = -1;        ///< branch: consuming gate
  int line_pin = -1;         ///< branch: pin index
  LogicV stuck = LogicV::k0;

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
  std::vector<std::pair<NetId, LogicV>> justify_nets;

  // Two-pattern mode: value a floating faulty output retains (set by the
  // initialization vector); kX outside two-pattern generation.
  logic::LogicV retained = logic::LogicV::kX;
};

}  // namespace

/// One search.  The state starts as a copy of the engine's all-X state;
/// each implication re-evaluates only the gates whose inputs changed since
/// the last one, and keeps the fault-effect count and the D-frontier bits
/// up to date as it goes.
class PodemEngine::Solver {
 public:
  Solver(const PodemEngine& engine, const Target& target,
         const PodemOptions& opt)
      : e_(engine),
        gates_(engine.cc_.gates()),
        target_(target),
        opt_(opt),
        pi_assign_(engine.ckt_.primary_inputs().size(), LogicV::kX),
        values_(engine.all_x_),
        dirty_((gates_.size() + 63) / 64, 0),
        frontier_(dirty_.size(), 0) {
    // Seed what the target changes in the fault-free all-X state.
    if (target_.line && target_.line_gate < 0) {
      stem_net_ = target_.line_net;
      write(stem_net_, net_value(stem_net_));
    } else if (target_.line) {
      target_pos_ = e_.cc_.position_of(target_.line_gate);
      mark(target_pos_);
    } else if (target_.functional) {
      target_pos_ = e_.cc_.position_of(target_.func_gate);
      mark(target_pos_);
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
        assign(obj_pi, obj_val);
        stack.push_back({obj_pi, false});
        continue;
      }

      // Backtrack.
      bool resumed = false;
      while (!stack.empty()) {
        Decision& top = stack.back();
        if (!top.flipped) {
          top.flipped = true;
          const LogicV v = pi_assign_[static_cast<std::size_t>(top.pi)];
          assign(top.pi, v == LogicV::k0 ? LogicV::k1 : LogicV::k0);
          if (++backtracks_ > opt_.backtrack_limit) {
            result.status = AtpgStatus::kAborted;
            result.backtracks = backtracks_;
            return result;
          }
          resumed = true;
          break;
        }
        assign(top.pi, LogicV::kX);
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
  using GateRec = logic::CompiledCircuit::GateRec;
  static constexpr std::size_t kNoPos = static_cast<std::size_t>(-1);

  [[nodiscard]] V5 net_value(NetId n) const {
    return values_[static_cast<std::size_t>(n)];
  }

  /// Sets a PI and queues it for the next implication.
  void assign(int pi, LogicV v) {
    pi_assign_[static_cast<std::size_t>(pi)] = v;
    pending_.push_back(pi);
  }

  void mark(std::size_t pos) { dirty_[pos >> 6] |= 1ull << (pos & 63); }

  /// Stores a net's value; when it changes, keeps the fault-effect count
  /// and marks the net's fan-out for re-evaluation.  A stem fault forces
  /// the faulty component of its net on every write.
  void write(NetId net, V5 v) {
    if (net == stem_net_) v.faulty = target_.stuck;
    V5& slot = values_[static_cast<std::size_t>(net)];
    if (slot == v) return;
    fault_effects_ += static_cast<int>(v.is_fault_effect()) -
                      static_cast<int>(slot.is_fault_effect());
    slot = v;
    for (const std::uint32_t pos : e_.cc_.fanout(net)) mark(pos);
  }

  /// Writes the queued PIs, then re-evaluates every dirty gate in one
  /// ascending sweep: fan-out always sits later in levelized order, so a
  /// gate marked while the sweep runs is still ahead of it.
  void imply() {
    const auto& pis = e_.ckt_.primary_inputs();
    for (const int pi : pending_)
      write(pis[static_cast<std::size_t>(pi)],
            V5::both(pi_assign_[static_cast<std::size_t>(pi)]));
    pending_.clear();
    for (std::size_t w = 0; w < dirty_.size(); ++w) {
      while (dirty_[w] != 0) {
        const std::size_t pos =
            w * 64 + static_cast<std::size_t>(__builtin_ctzll(dirty_[w]));
        dirty_[w] &= dirty_[w] - 1;
        evaluate(pos);
      }
    }
  }

  [[nodiscard]] static LogicV lookup(const GateRec& g, LogicV a, LogicV b,
                                     LogicV c) {
    using logic::CompiledCircuit;
    return g.table[CompiledCircuit::code(a) | (CompiledCircuit::code(b) << 2) |
                   (CompiledCircuit::code(c) << 4)];
  }

  /// Re-evaluates one gate off the compiled records (unused pins alias
  /// slot 0, whose code the tables ignore), stores its output and updates
  /// its D-frontier bit.
  void evaluate(std::size_t pos) {
    const GateRec& g = gates_[pos];
    V5 in_v[3] = {net_value(g.in[0]), net_value(g.in[1]),
                  net_value(g.in[2])};
    const bool target_gate = pos == target_pos_;
    // Branch fault: only this gate's pin sees the forced value.
    if (target_gate && target_.line_gate >= 0)
      in_v[target_.line_pin].faulty = target_.stuck;

    V5 out;
    out.good = lookup(g, in_v[0].good, in_v[1].good, in_v[2].good);
    if (target_gate && target_.functional)
      out.faulty = faulty_gate_output(in_v, g.n_in);
    else
      out.faulty = lookup(g, in_v[0].faulty, in_v[1].faulty, in_v[2].faulty);
    write(g.out, out);

    // D-frontier: a fault effect on an input (or the excited fault site
    // itself) and an output still X on either side.  Membership reads
    // only the gate's own pins, so it changes only when they do.
    const V5 stored = net_value(g.out);
    bool member = false;
    if (!is_binary(stored.good) || !is_binary(stored.faulty)) {
      for (unsigned i = 0; i < g.n_in; ++i)
        if (net_value(g.in[i]).is_fault_effect()) member = true;
      if (target_gate && site_excited()) member = true;
    }
    const std::uint64_t bit = 1ull << (pos & 63);
    std::uint64_t& word = frontier_[pos >> 6];
    if (member != ((word & bit) != 0)) {
      word ^= bit;
      frontier_size_ += member ? 1 : -1;
    }
  }

  /// Whether the branch or functional fault site drives a fault effect
  /// into its gate: the branch's net holds the non-stuck value, or the
  /// functional gate's excitation cube is justified.
  [[nodiscard]] bool site_excited() const {
    if (target_.functional) return cube_justified();
    if (target_.line_gate < 0) return false;
    const LogicV good = net_value(target_.line_net).good;
    return is_binary(good) && good != target_.stuck;
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
    const logic::GateInst& g = e_.ckt_.gate(target_.cube_gate);
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
    const logic::GateInst& g = e_.ckt_.gate(target_.cube_gate);
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
    for (const NetId po : e_.ckt_.primary_outputs())
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

  /// Called only after success() failed, so a fault effect that exists
  /// has not reached a PO yet and needs a D-frontier gate to get there.
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
    return fault_effects_ > 0 && frontier_size_ == 0;
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
      const logic::GateInst& g = e_.ckt_.gate(target_.cube_gate);
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
      // Propagation: the most observable D-frontier gate (least SCOAP
      // observability, ties by gate id) that still has an unassigned
      // input gets a non-masking value on its first unassigned input.
      const GateRec* best = nullptr;
      int best_obs = 0;
      unsigned best_pin = 0;
      for (std::size_t w = 0; w < frontier_.size(); ++w) {
        for (std::uint64_t bits = frontier_[w]; bits != 0;
             bits &= bits - 1) {
          const std::size_t pos =
              w * 64 + static_cast<std::size_t>(__builtin_ctzll(bits));
          const GateRec& g = gates_[pos];
          unsigned pin = 0;
          while (pin < g.n_in && net_value(g.in[pin]).good != LogicV::kX)
            ++pin;
          if (pin == g.n_in) continue;
          const int obs = e_.obs_[pos];
          if (best == nullptr || obs < best_obs ||
              (obs == best_obs && g.id < best->id)) {
            best = &g;
            best_obs = obs;
            best_pin = pin;
          }
        }
      }
      if (best != nullptr) {
        obj_net = best->in[best_pin];
        obj_val = preferred_side_value(*best, best_pin);
      }
    }
    if (obj_net < 0) return false;
    return backtrace(obj_net, obj_val, pi_index, pi_value);
  }

  /// Non-masking side-input value for propagating through `g`.
  [[nodiscard]] LogicV preferred_side_value(const GateRec& g,
                                            unsigned pin) const {
    switch (g.kind) {
      case gates::CellKind::kNand2: return LogicV::k1;
      case gates::CellKind::kNor2: return LogicV::k0;
      case gates::CellKind::kMaj3: {
        // MAJ passes a D on one pin when the other two pins disagree.
        for (unsigned i = 0; i < g.n_in; ++i) {
          if (i == pin) continue;
          const LogicV v = net_value(g.in[i]).good;
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
    const logic::Circuit& ckt = e_.ckt_;
    for (int hop = 0; hop < ckt.net_count() + 1; ++hop) {
      const int pi = e_.pi_index_[static_cast<std::size_t>(net)];
      if (pi >= 0) {
        if (pi_assign_[static_cast<std::size_t>(pi)] != LogicV::kX)
          return false;  // already set
        pi_index = pi;
        pi_value = value;
        return true;
      }
      const int drv = ckt.driver_of(net);
      if (drv < 0) return false;  // constant: cannot justify
      const logic::GateInst& g = ckt.gate(drv);

      int pick = -1;
      long long best_cost = -1;
      for (int i = 0; i < g.input_count(); ++i) {
        const NetId cand = g.in[static_cast<std::size_t>(i)];
        if (net_value(cand).good != LogicV::kX) continue;
        const Testability& tc = e_.scoap_[static_cast<std::size_t>(cand)];
        const long long cost = std::min(tc.cc0, tc.cc1);
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

  const PodemEngine& e_;
  const std::vector<GateRec>& gates_;
  const Target& target_;
  const PodemOptions& opt_;
  /// Position of the gate whose evaluation the target changes: the
  /// branch gate or the functional gate.
  std::size_t target_pos_ = kNoPos;
  NetId stem_net_ = -1;  ///< stem fault's net, or -1
  std::vector<LogicV> pi_assign_;
  std::vector<int> pending_;  ///< PIs changed since the last implication
  std::vector<V5> values_;
  std::vector<std::uint64_t> dirty_;     ///< bit per position: re-evaluate
  std::vector<std::uint64_t> frontier_;  ///< bit per position: D-frontier
  int frontier_size_ = 0;
  int fault_effects_ = 0;  ///< nets carrying D or D-bar
  int backtracks_ = 0;
};

namespace {

const logic::Circuit& require_finalized(const logic::Circuit& ckt) {
  if (!ckt.finalized())
    throw std::invalid_argument("PodemEngine: circuit not finalized");
  return ckt;
}

}  // namespace

PodemEngine::PodemEngine(const logic::Circuit& ckt)
    : ckt_(ckt), cc_(require_finalized(ckt)), scoap_(compute_scoap(ckt)) {
  const auto n_nets = static_cast<std::size_t>(ckt.net_count());
  const auto& pis = ckt.primary_inputs();
  pi_index_.assign(n_nets, -1);
  for (std::size_t i = 0; i < pis.size(); ++i)
    pi_index_[static_cast<std::size_t>(pis[i])] = static_cast<int>(i);

  obs_.reserve(cc_.gates().size());
  for (const auto& g : cc_.gates())
    obs_.push_back(scoap_[static_cast<std::size_t>(g.out)].obs);

  std::vector<LogicV> good;
  cc_.init_scalar(std::vector<LogicV>(pis.size(), LogicV::kX), good);
  cc_.eval_scalar(good);
  all_x_.reserve(n_nets);
  for (const LogicV v : good) all_x_.push_back(V5::both(v));
}

const gates::FaultAnalysis& checked_transistor_dictionary(
    const logic::Circuit& ckt, const Fault& fault, const char* where) {
  const std::string name(where);
  if (fault.site != FaultSite::kGateTransistor)
    throw std::invalid_argument(name + ": not a transistor fault");
  if (const char* error = faults::transistor_fault_error(ckt, fault))
    throw std::invalid_argument(name + ": " + error);
  return gates::dictionary(ckt.gate(fault.gate).kind, fault.cell_fault);
}

AtpgResult PodemEngine::generate_line(const Fault& fault,
                                      const PodemOptions& opt) const {
  // The search indexes its tables by these ids: validate them first.
  const logic::CompiledCircuit::LineFault lf =
      faults::checked_line_fault(ckt_, fault);
  Target t;
  t.line = true;
  t.stuck = lf.stuck_one ? LogicV::k1 : LogicV::k0;
  if (lf.net >= 0) {
    t.line_net = lf.net;
  } else {
    t.line_gate = lf.gate;
    t.line_pin = lf.pin;
    t.line_net = ckt_.gate(lf.gate).in[static_cast<std::size_t>(lf.pin)];
  }
  return Solver(*this, t, opt).run();
}

AtpgResult PodemEngine::generate_functional(const Fault& fault,
                                            const PodemOptions& opt) const {
  const gates::FaultAnalysis& fa =
      checked_transistor_dictionary(ckt_, fault, "generate_functional");

  AtpgResult last;
  bool any_aborted = false;
  for (const gates::FaultRow& row : fa.rows) {
    if (gates::classify_row(row) != gates::RowEffect::kWrongValue) continue;
    Target t;
    t.functional = true;
    t.func_gate = fault.gate;
    t.dictionary = &fa;
    t.cube_gate = fault.gate;
    t.cube = row.input;
    last = Solver(*this, t, opt).run();
    if (last.status == AtpgStatus::kDetected) return last;
    if (last.status == AtpgStatus::kAborted) any_aborted = true;
  }
  last.status = any_aborted ? AtpgStatus::kAborted : AtpgStatus::kUntestable;
  last.pattern.clear();
  return last;
}

AtpgResult PodemEngine::generate_iddq(const Fault& fault,
                                      const PodemOptions& opt) const {
  const gates::FaultAnalysis& fa =
      checked_transistor_dictionary(ckt_, fault, "generate_iddq");

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
  last.status = any_aborted ? AtpgStatus::kAborted : AtpgStatus::kUntestable;
  last.pattern.clear();
  return last;
}

AtpgResult PodemEngine::generate_functional_retained(
    const Fault& fault, unsigned cube, bool good_is_one,
    const PodemOptions& opt) const {
  const gates::FaultAnalysis& fa = checked_transistor_dictionary(
      ckt_, fault, "generate_functional_retained");
  Target t;
  t.functional = true;
  t.func_gate = fault.gate;
  t.dictionary = &fa;
  t.cube_gate = fault.gate;
  t.cube = cube;
  t.retained = good_is_one ? LogicV::k0 : LogicV::k1;
  return Solver(*this, t, opt).run();
}

AtpgResult PodemEngine::justify_net_value(logic::NetId net,
                                          logic::LogicV value,
                                          const PodemOptions& opt) const {
  return justify_net_values({{net, value}}, opt);
}

AtpgResult PodemEngine::justify_net_values(
    const std::vector<std::pair<logic::NetId, logic::LogicV>>& goals,
    const PodemOptions& opt) const {
  if (goals.empty())
    throw std::invalid_argument("justify_net_values: no goals");
  for (const auto& [net, value] : goals) {
    if (net < 0 || net >= ckt_.net_count())
      throw std::invalid_argument("justify_net_values: bad net id");
    if (!is_binary(value))
      throw std::invalid_argument("justify_net_values: value must be binary");
  }
  Target t;
  t.justify_only = true;
  t.justify_nets = goals;
  return Solver(*this, t, opt).run();
}

AtpgResult PodemEngine::justify_gate_cube(int gate, unsigned cube,
                                          const PodemOptions& opt) const {
  if (gate < 0 || gate >= ckt_.gate_count())
    throw std::invalid_argument("justify_gate_cube: bad gate id");
  Target t;
  t.justify_only = true;
  t.cube_gate = gate;
  t.cube = cube;
  return Solver(*this, t, opt).run();
}

}  // namespace cpsinw::atpg
