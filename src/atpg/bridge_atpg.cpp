#include "atpg/bridge_atpg.hpp"

#include <algorithm>

namespace cpsinw::atpg {

using faults::BridgeFault;
using logic::LogicV;

namespace {

/// generate_bridge_iddq_test against a caller-owned engine.
BridgeTestResult bridge_iddq_test(const PodemEngine& engine,
                                  const BridgeFault& fault,
                                  const PodemOptions& opt) {
  BridgeTestResult result;
  bool aborted = false;
  for (const LogicV va : {LogicV::k0, LogicV::k1}) {
    const AtpgResult r = engine.justify_net_values(
        {{fault.a, va}, {fault.b, logic_not(va)}}, opt);
    if (r.status == AtpgStatus::kDetected) {
      result.status = AtpgStatus::kDetected;
      result.pattern = r.pattern;
      return result;
    }
    if (r.status == AtpgStatus::kAborted) aborted = true;
  }
  result.status =
      aborted ? AtpgStatus::kAborted : AtpgStatus::kUntestable;
  return result;
}

}  // namespace

BridgeTestResult generate_bridge_iddq_test(const logic::Circuit& ckt,
                                           const BridgeFault& fault,
                                           const PodemOptions& opt) {
  return bridge_iddq_test(PodemEngine(ckt), fault, opt);
}

BridgeCoverage generate_all_bridge_tests(const logic::Circuit& ckt,
                                         const PodemOptions& opt) {
  BridgeCoverage cov;
  const PodemEngine engine(ckt);
  const std::vector<BridgeFault> universe =
      faults::enumerate_adjacent_bridges(ckt);
  cov.total = static_cast<int>(universe.size());
  // The universe lists each net pair's four behaviours back to back.  The
  // IDDQ excitation does not depend on the behaviour model, so each pair is
  // justified once and credits all four; one context over the engine's
  // compile scores their voltage detection.
  for (auto it = universe.begin(); it != universe.end();) {
    const auto next = std::find_if(it, universe.end(), [&](const auto& g) {
      return g.a != it->a || g.b != it->b;
    });
    const std::vector<BridgeFault> pair(it, next);
    it = next;
    const BridgeTestResult r = bridge_iddq_test(engine, pair.front(), opt);
    if (r.status != AtpgStatus::kDetected) continue;
    cov.iddq_patterns.push_back(*r.pattern);
    cov.iddq_covered += static_cast<int>(pair.size());
    const faults::EvalContext ctx(engine.compiled(), {*r.pattern});
    for (const faults::DetectionRecord& rec :
         faults::simulate_bridges(ctx, pair, {}))
      if (rec.detected_output) ++cov.also_output_detectable;
  }
  return cov;
}

}  // namespace cpsinw::atpg
