#include "faults/bridge.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "faults/word_fold.hpp"

namespace cpsinw::faults {

using logic::LogicV;
using logic::Pattern;

const char* to_string(BridgeBehavior behavior) {
  switch (behavior) {
    case BridgeBehavior::kWiredAnd: return "wired-AND";
    case BridgeBehavior::kWiredOr: return "wired-OR";
    case BridgeBehavior::kDominantA: return "dominant-A";
    case BridgeBehavior::kDominantB: return "dominant-B";
  }
  return "?";
}

std::vector<BridgeFault> enumerate_adjacent_bridges(
    const logic::Circuit& ckt) {
  std::set<std::pair<logic::NetId, logic::NetId>> pairs;
  for (const logic::GateInst& g : ckt.gates()) {
    // Input-input pairs of the same gate.
    for (int i = 0; i < g.input_count(); ++i) {
      for (int j = i + 1; j < g.input_count(); ++j) {
        const logic::NetId a = g.in[static_cast<std::size_t>(i)];
        const logic::NetId b = g.in[static_cast<std::size_t>(j)];
        if (a != b) pairs.insert({std::min(a, b), std::max(a, b)});
      }
    }
    // Output-input pairs of the same gate.
    for (int i = 0; i < g.input_count(); ++i) {
      const logic::NetId a = g.in[static_cast<std::size_t>(i)];
      if (a != g.out) pairs.insert({std::min(a, g.out), std::max(a, g.out)});
    }
  }
  std::vector<BridgeFault> out;
  for (const auto& [a, b] : pairs) {
    if (is_binary(ckt.constant_of(a)) || is_binary(ckt.constant_of(b)))
      continue;  // bridges to rails are the stuck-at universe
    for (const BridgeBehavior beh :
         {BridgeBehavior::kWiredAnd, BridgeBehavior::kWiredOr,
          BridgeBehavior::kDominantA, BridgeBehavior::kDominantB})
      out.push_back({a, b, beh});
  }
  return out;
}

namespace {

/// Wired resolution of the two bridged net values.
std::pair<LogicV, LogicV> resolve(BridgeBehavior behavior, LogicV a,
                                  LogicV b) {
  const auto and2 = [](LogicV x, LogicV y) {
    if (x == LogicV::k0 || y == LogicV::k0) return LogicV::k0;
    if (x == LogicV::k1 && y == LogicV::k1) return LogicV::k1;
    return LogicV::kX;
  };
  const auto or2 = [](LogicV x, LogicV y) {
    if (x == LogicV::k1 || y == LogicV::k1) return LogicV::k1;
    if (x == LogicV::k0 && y == LogicV::k0) return LogicV::k0;
    return LogicV::kX;
  };
  switch (behavior) {
    case BridgeBehavior::kWiredAnd: {
      const LogicV w = and2(a, b);
      return {w, w};
    }
    case BridgeBehavior::kWiredOr: {
      const LogicV w = or2(a, b);
      return {w, w};
    }
    case BridgeBehavior::kDominantA: return {a, a};
    case BridgeBehavior::kDominantB: return {b, b};
  }
  return {LogicV::kX, LogicV::kX};
}

}  // namespace

logic::CompiledCircuit::Bridge checked_bridge(const logic::Circuit& ckt,
                                             const BridgeFault& fault) {
  // The unsigned casts reject negative ids and ids past the circuit in
  // one compare.
  const auto n_nets = static_cast<std::size_t>(ckt.net_count());
  if (static_cast<std::size_t>(fault.a) >= n_nets ||
      static_cast<std::size_t>(fault.b) >= n_nets || fault.a == fault.b)
    throw std::invalid_argument("bridge: bad net pair");
  using Wire = logic::CompiledCircuit::Bridge::Wire;
  Wire wire = Wire::kAnd;
  switch (fault.behavior) {
    case BridgeBehavior::kWiredAnd: wire = Wire::kAnd; break;
    case BridgeBehavior::kWiredOr: wire = Wire::kOr; break;
    case BridgeBehavior::kDominantA: wire = Wire::kDominantA; break;
    case BridgeBehavior::kDominantB: wire = Wire::kDominantB; break;
  }
  return {fault.a, fault.b, wire};
}

namespace {

/// simulate_bridge's bounded feedback fixpoint from the good machine's
/// net values `good` (the pair is already validated).
std::vector<LogicV> bridge_fixpoint(const logic::Circuit& ckt,
                                    const BridgeFault& fault,
                                    const std::vector<LogicV>& good) {
  // Fixpoint iteration over levelized evaluation with the wired values
  // substituted after each pass; a bridge inside a (now closed) loop that
  // keeps flipping resolves to X.
  std::vector<LogicV> values = good;
  for (int round = 0; round < 4; ++round) {
    // Apply the bridge to the driver values.
    const auto [wa, wb] =
        resolve(fault.behavior, values[static_cast<std::size_t>(fault.a)],
                values[static_cast<std::size_t>(fault.b)]);
    std::vector<LogicV> next = values;
    next[static_cast<std::size_t>(fault.a)] = wa;
    next[static_cast<std::size_t>(fault.b)] = wb;
    // Re-evaluate downstream logic with the wired values pinned; the
    // bridged nets' own drivers keep their computed values (the short
    // overrides them electrically).
    for (const int gid : ckt.topo_order()) {
      const logic::GateInst& g = ckt.gate(gid);
      if (g.out == fault.a || g.out == fault.b) continue;
      const auto in_at = [&](int i) {
        return g.in[static_cast<std::size_t>(i)] >= 0
                   ? next[static_cast<std::size_t>(
                         g.in[static_cast<std::size_t>(i)])]
                   : LogicV::kX;
      };
      next[static_cast<std::size_t>(g.out)] =
          logic::eval_cell_x(g.kind, in_at(0), in_at(1), in_at(2));
    }
    // Recompute the *driver* values of the bridged nets from the updated
    // fanin (feedback handling), then check for a fixpoint.
    std::vector<LogicV> driver_values = next;
    for (const int gid : ckt.topo_order()) {
      const logic::GateInst& g = ckt.gate(gid);
      if (g.out != fault.a && g.out != fault.b) continue;
      const auto in_at = [&](int i) {
        return g.in[static_cast<std::size_t>(i)] >= 0
                   ? next[static_cast<std::size_t>(
                         g.in[static_cast<std::size_t>(i)])]
                   : LogicV::kX;
      };
      driver_values[static_cast<std::size_t>(g.out)] =
          logic::eval_cell_x(g.kind, in_at(0), in_at(1), in_at(2));
    }
    if (driver_values == values) return next;
    values = std::move(driver_values);
  }
  // Oscillating feedback bridge: the looped nets are unknown.
  std::vector<LogicV> conservative = good;
  conservative[static_cast<std::size_t>(fault.a)] = LogicV::kX;
  conservative[static_cast<std::size_t>(fault.b)] = LogicV::kX;
  for (const int gid : ckt.topo_order()) {
    const logic::GateInst& g = ckt.gate(gid);
    if (g.out == fault.a || g.out == fault.b) continue;
    const auto in_at = [&](int i) {
      return g.in[static_cast<std::size_t>(i)] >= 0
                 ? conservative[static_cast<std::size_t>(
                       g.in[static_cast<std::size_t>(i)])]
                 : LogicV::kX;
    };
    conservative[static_cast<std::size_t>(g.out)] =
        logic::eval_cell_x(g.kind, in_at(0), in_at(1), in_at(2));
  }
  return conservative;
}

/// The per-pattern scalar loop of X-bearing contexts: simulate_bridge's
/// fixpoint per pattern, seeded from the context's scalar good machine.
DetectionRecord serial_bridge(const EvalContext& ctx,
                              const BridgeFault& bridge,
                              const FaultSimOptions& options) {
  const logic::Circuit& ckt = ctx.circuit();
  DetectionRecord rec;
  for (std::size_t pi = 0; pi < ctx.pattern_count(); ++pi) {
    bool hit = false;
    if (!rec.detected_output) {
      const std::vector<LogicV> bad =
          bridge_fixpoint(ckt, bridge, ctx.good(pi).net_values);
      for (const logic::NetId po : ckt.primary_outputs()) {
        const LogicV g = ctx.good_value(pi, po);
        const LogicV b = bad[static_cast<std::size_t>(po)];
        if (is_binary(g) && is_binary(b) && g != b) {
          rec.detected_output = true;
          hit = true;
          break;
        }
      }
    }
    if (options.observe_iddq) {
      const LogicV va = ctx.good_value(pi, bridge.a);
      const LogicV vb = ctx.good_value(pi, bridge.b);
      if (is_binary(va) && is_binary(vb) && va != vb) {
        rec.detected_iddq = true;
        hit = true;
      }
    }
    if (hit && rec.first_pattern < 0)
      rec.first_pattern = static_cast<int>(pi);
    if (rec.first_pattern >= 0 &&
        options.detection_mode == DetectionMode::kFirstOnly)
      break;  // first-only semantics: stop at the first counted detection
    if (rec.detected_output && (rec.detected_iddq || !options.observe_iddq))
      break;  // nothing left to learn about this bridge
  }
  return rec;
}

}  // namespace

std::vector<DetectionRecord> simulate_bridges(
    const EvalContext& ctx, const std::vector<BridgeFault>& bridges,
    const FaultSimOptions& options, LineBatchStats* stats) {
  std::vector<logic::CompiledCircuit::Bridge> checked;
  checked.reserve(bridges.size());
  for (const BridgeFault& b : bridges)
    checked.push_back(checked_bridge(ctx.circuit(), b));
  std::vector<DetectionRecord> records(bridges.size());
  if (!ctx.packed()) {
    for (std::size_t i = 0; i < bridges.size(); ++i)
      records[i] = serial_bridge(ctx, bridges[i], options);
    if (stats != nullptr) stats->bridge_serial += bridges.size();
    return records;
  }

  // Strip-mined walk per bridge, like the transistor walks: a full-mode
  // walk stops once a PO flip and (when observed) an IDDQ excitation have
  // both been seen, a first-only walk at its first counted hit.
  const logic::CompiledCircuit& cc = ctx.compiled();
  const bool first_only = options.detection_mode == DetectionMode::kFirstOnly;
  const std::size_t n_words = ctx.word_count();
  std::vector<std::uint64_t> detect(kWideStrip);
  std::vector<std::uint64_t> contention(kWideStrip);
  std::vector<std::uint64_t> lanes;
  std::vector<std::uint64_t> n1_lanes;
  for (std::size_t i = 0; i < checked.size(); ++i) {
    WordFold fold{options.observe_iddq, first_only};
    std::size_t w0 = 0;
    std::size_t strip = kFirstStrip;
    while (w0 < n_words) {
      const std::size_t nw = std::min(strip, n_words - w0);
      strip = kWideStrip;
      cc.eval_packed_bridge_planes(ctx.good_planes() + w0, ctx.plane_stride(),
                                   nw, checked[i], detect.data(),
                                   contention.data(), lanes, n1_lanes);
      if (fold.fold(w0, nw, detect.data(), nullptr, contention.data(),
                    ctx.active_words().data()))
        break;
      w0 += nw;
      if (!first_only && fold.any_d != 0 &&
          (fold.any_c != 0 || !options.observe_iddq))
        break;
    }
    records[i] = fold.record();
  }
  return records;
}

std::vector<LogicV> simulate_bridge(const logic::Circuit& ckt,
                                    const BridgeFault& fault,
                                    const Pattern& pattern) {
  (void)checked_bridge(ckt, fault);
  const logic::Simulator sim(ckt);
  return bridge_fixpoint(ckt, fault, sim.simulate(pattern).net_values);
}

bool bridge_detected_by_output(const logic::Circuit& ckt,
                               const BridgeFault& fault,
                               const Pattern& pattern) {
  return simulate_bridges(EvalContext(ckt, {pattern}), {fault}, {})[0]
      .detected_output;
}

bool bridge_excited_for_iddq(const logic::Circuit& ckt,
                             const BridgeFault& fault,
                             const Pattern& pattern) {
  (void)checked_bridge(ckt, fault);
  const logic::Simulator sim(ckt);
  const logic::SimResult r = sim.simulate(pattern);
  const LogicV va = r.value(fault.a);
  const LogicV vb = r.value(fault.b);
  return is_binary(va) && is_binary(vb) && va != vb;
}

}  // namespace cpsinw::faults
