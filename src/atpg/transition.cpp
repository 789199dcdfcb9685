#include "atpg/transition.hpp"

#include <stdexcept>

#include "faults/fault_sim.hpp"

namespace cpsinw::atpg {

using logic::LogicV;
using logic::Pattern;

std::vector<TransitionFault> enumerate_transition_faults(
    const logic::Circuit& ckt) {
  std::vector<TransitionFault> out;
  for (logic::NetId n = 0; n < ckt.net_count(); ++n) {
    if (is_binary(ckt.constant_of(n))) continue;  // constants never switch
    out.push_back({n, true});
    out.push_back({n, false});
  }
  return out;
}

namespace {

/// transition_detected on a (launch, capture) context.
bool transition_detected_on(const faults::EvalContext& ctx,
                            const TransitionFault& fault) {
  const LogicV old_v = fault.old_value();
  // Launch must establish the pre-transition value...
  if (ctx.good_value(0, fault.net) != old_v) return false;
  // ...and capture must create the transition.
  if (ctx.good_value(1, fault.net) != logic_not(old_v)) return false;

  // Gross delay: the late net still holds the old value at capture time —
  // a temporary stuck-at that must reach a primary output.
  return faults::FaultSimulator(ctx.circuit())
      .line_fault_detected(
          ctx, faults::Fault::net_stuck(fault.net, old_v == LogicV::k1), 1);
}

}  // namespace

bool transition_detected(const logic::Circuit& ckt,
                         const TransitionFault& fault,
                         const Pattern& launch, const Pattern& capture) {
  if (fault.net < 0 || fault.net >= ckt.net_count())
    throw std::invalid_argument("transition_detected: bad net");
  return transition_detected_on(faults::EvalContext(ckt, {launch, capture}),
                                fault);
}

TransitionResult generate_transition_test(const logic::Circuit& ckt,
                                          const TransitionFault& fault,
                                          const PodemOptions& opt) {
  const PodemEngine engine(ckt);
  return generate_transition_test(engine, fault, opt);
}

TransitionResult generate_transition_test(const PodemEngine& engine,
                                          const TransitionFault& fault,
                                          const PodemOptions& opt) {
  const logic::Circuit& ckt = engine.circuit();
  if (fault.net < 0 || fault.net >= ckt.net_count())
    throw std::invalid_argument("generate_transition_test: bad net");
  TransitionResult result;

  // Capture: a stuck-at-(old value) test — it drives the net to the new
  // value in the good machine and propagates the old one.
  const LogicV old_v = fault.old_value();
  const AtpgResult capture = engine.generate_line(
      faults::Fault::net_stuck(fault.net, old_v == LogicV::k1), opt);
  if (capture.status != AtpgStatus::kDetected) {
    result.status = capture.status;
    return result;
  }
  // Launch: justify the pre-transition value.
  const AtpgResult launch = engine.justify_net_value(fault.net, old_v, opt);
  if (launch.status != AtpgStatus::kDetected) {
    result.status = launch.status;
    return result;
  }

  if (!transition_detected_on(
          faults::EvalContext(engine.compiled(),
                              {launch.pattern, capture.pattern}),
          fault)) {
    result.status = AtpgStatus::kUntestable;
    return result;
  }
  result.status = AtpgStatus::kDetected;
  result.test = TransitionTest{fault, launch.pattern, capture.pattern};
  return result;
}

TransitionCoverage generate_all_transition_tests(const logic::Circuit& ckt,
                                                 const PodemOptions& opt) {
  TransitionCoverage cov;
  // One engine for the whole sweep: the circuit is compiled and SCOAP
  // computed once, not once per transition fault.
  const PodemEngine engine(ckt);
  for (const TransitionFault& f : enumerate_transition_faults(ckt)) {
    ++cov.total;
    TransitionResult r = generate_transition_test(engine, f, opt);
    switch (r.status) {
      case AtpgStatus::kDetected:
        ++cov.detected;
        cov.tests.push_back(std::move(*r.test));
        break;
      case AtpgStatus::kUntestable: ++cov.untestable; break;
      case AtpgStatus::kAborted: ++cov.aborted; break;
    }
  }
  return cov;
}

}  // namespace cpsinw::atpg
