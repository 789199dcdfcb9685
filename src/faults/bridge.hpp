// Inter-net bridging faults (paper Table I, metallization step: "bridge
// among interconnects"; Sec. II: bridge faults are classically diagnosed
// by IDDQ testing).
//
// Classic four-way model: wired-AND, wired-OR and the two dominant
// bridges.  Voltage detection uses the resolved wired value; IDDQ
// detection only needs the two nets driven to opposite values — the
// shorted drivers then fight and the supply current rises by orders of
// magnitude, exactly like the paper's polarity-bridge observation.
//
// simulate_bridges is the one entry point for bridge records over a
// pattern set.  On fully specified patterns it runs the word-parallel
// plane kernel (CompiledCircuit::eval_packed_bridge_planes), which
// reproduces simulate_bridge's bounded feedback fixpoint bit for bit; on
// X-bearing patterns it runs that fixpoint per pattern from the context's
// good machine.  simulate_bridge itself remains the scalar definition and
// the differential tests' oracle.
#pragma once

#include <vector>

#include "faults/eval_context.hpp"
#include "faults/fault_sim.hpp"
#include "logic/compiled_circuit.hpp"
#include "logic/logic_sim.hpp"

namespace cpsinw::faults {

/// Electrical behaviour of a bridge.
enum class BridgeBehavior {
  kWiredAnd,   ///< both nets read a AND b
  kWiredOr,    ///< both nets read a OR b
  kDominantA,  ///< net a wins: b reads a
  kDominantB,  ///< net b wins: a reads b
};

/// Readable behaviour name.
[[nodiscard]] const char* to_string(BridgeBehavior behavior);

/// A bridge between two distinct nets.
struct BridgeFault {
  logic::NetId a = -1;
  logic::NetId b = -1;
  BridgeBehavior behavior = BridgeBehavior::kWiredAnd;

  [[nodiscard]] bool operator==(const BridgeFault&) const = default;
};

/// Enumerates a layout-plausible bridge universe without layout data:
/// pairs of nets entering the same gate plus each gate's output with each
/// of its inputs (the nets guaranteed to be routed adjacently), with all
/// four behaviours per pair.
[[nodiscard]] std::vector<BridgeFault> enumerate_adjacent_bridges(
    const logic::Circuit& ckt);

/// Validates a bridge against the circuit and converts it to the
/// compiled-kernel descriptor.  Net ids may come from untrusted shard_io
/// documents, and the kernels index planes with them unchecked.
/// @throws std::invalid_argument when a or b is outside the circuit or
///   a == b
[[nodiscard]] logic::CompiledCircuit::Bridge checked_bridge(
    const logic::Circuit& ckt, const BridgeFault& fault);

/// Detection records of `bridges` over the context's pattern set, parallel
/// to the list, with the same hit rules as the transistor walks (no
/// potential flag: a bridge's X never counts).  Every bridge is validated
/// before any is simulated, also on an empty pattern set.  Packed contexts
/// run the plane kernel with one scratch set for the whole list (the cone
/// cache then serves a pair's four behaviours listed back to back);
/// X-bearing contexts run simulate_bridge's fixpoint per pattern from the
/// context's scalar good machine and count each bridge into
/// `stats->bridge_serial` when `stats` is non-null.
/// @throws std::invalid_argument on a bad pair (see checked_bridge)
[[nodiscard]] std::vector<DetectionRecord> simulate_bridges(
    const EvalContext& ctx, const std::vector<BridgeFault>& bridges,
    const FaultSimOptions& options, LineBatchStats* stats = nullptr);

/// Simulates the bridged circuit for one pattern.  Bridges that close a
/// feedback loop over the pair are evaluated to a fixpoint; oscillation
/// resolves to X.
/// @returns faulty net values
/// @throws std::invalid_argument on a bad pair (see checked_bridge)
[[nodiscard]] std::vector<logic::LogicV> simulate_bridge(
    const logic::Circuit& ckt, const BridgeFault& fault,
    const logic::Pattern& pattern);

/// Voltage detection: some PO differs between good and bridged machines
/// (simulate_bridges over a local one-pattern context).
/// @throws std::invalid_argument on a bad pair (see checked_bridge)
[[nodiscard]] bool bridge_detected_by_output(const logic::Circuit& ckt,
                                             const BridgeFault& fault,
                                             const logic::Pattern& pattern);

/// IDDQ excitation: the two nets are driven to opposite values.
/// @throws std::invalid_argument on a bad pair (see checked_bridge)
[[nodiscard]] bool bridge_excited_for_iddq(const logic::Circuit& ckt,
                                           const BridgeFault& fault,
                                           const logic::Pattern& pattern);

}  // namespace cpsinw::faults
