// Interpreted logic-level reference evaluators for the differential
// suites: the seed's single-word packed walks over GateInst records in
// Circuit::topo_order(), with no compilation.  The library evaluates
// packed patterns only through CompiledCircuit's plane kernels; these
// walks are the independent oracles those kernels are pinned to.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "gates/cell.hpp"
#include "logic/circuit.hpp"
#include "logic/compiled_circuit.hpp"
#include "logic/logic_sim.hpp"

namespace cpsinw::logic::reference {

/// Word-level evaluation of one cell function on binary words.
inline std::uint64_t eval_cell_packed(gates::CellKind kind, std::uint64_t a,
                                      std::uint64_t b, std::uint64_t c) {
  using gates::CellKind;
  switch (kind) {
    case CellKind::kInv: return ~a;
    case CellKind::kBuf: return a;
    case CellKind::kNand2: return ~(a & b);
    case CellKind::kNor2: return ~(a | b);
    case CellKind::kXor2: return a ^ b;
    case CellKind::kXor3: return a ^ b ^ c;
    case CellKind::kMaj3: return (a & b) | (b & c) | (a & c);
  }
  return 0;
}

/// Local input vector seen by a gate given net values; bit i = pin i.
/// nullopt when any pin is non-binary.
inline std::optional<unsigned> local_input(const GateInst& gate,
                                           const std::vector<LogicV>& values) {
  unsigned bits = 0;
  for (int i = 0; i < gate.input_count(); ++i) {
    const LogicV v =
        values[static_cast<std::size_t>(gate.in[static_cast<std::size_t>(i)])];
    if (!is_binary(v)) return std::nullopt;
    if (v == LogicV::k1) bits |= 1u << i;
  }
  return bits;
}

/// Packs up to 64 fully specified patterns (bit k = pattern index k).
/// @throws std::invalid_argument for more than 64 patterns, an arity
///   mismatch or an X input
inline std::vector<std::uint64_t> pack_patterns(
    const Circuit& ckt, const std::vector<Pattern>& patterns) {
  if (patterns.size() > 64)
    throw std::invalid_argument("pack_patterns: more than 64 patterns");
  const std::size_t n_pi = ckt.primary_inputs().size();
  std::vector<std::uint64_t> words(n_pi, 0);
  for (std::size_t k = 0; k < patterns.size(); ++k) {
    const Pattern& p = patterns[k];
    if (p.size() != n_pi)
      throw std::invalid_argument("pack_patterns: pattern arity mismatch");
    for (std::size_t i = 0; i < n_pi; ++i) {
      if (!is_binary(p[i]))
        throw std::invalid_argument("pack_patterns: X in packed pattern");
      if (p[i] == LogicV::k1) words[i] |= 1ull << k;
    }
  }
  return words;
}

/// Per-net words of one packed pass with one line stuck: a stem
/// (`fault.net` >= 0) holds the forced word everywhere, a branch
/// (`fault.gate`, `fault.pin`) feeds it to one pin of one gate.  The
/// default descriptor forces nothing, which is the good machine.
inline std::vector<std::uint64_t> packed_line(
    const Circuit& ckt, const std::vector<std::uint64_t>& pi_words,
    const CompiledCircuit::LineFault& fault) {
  std::vector<std::uint64_t> values(
      static_cast<std::size_t>(ckt.net_count()), 0);
  for (NetId n = 0; n < ckt.net_count(); ++n)
    if (ckt.constant_of(n) == LogicV::k1)
      values[static_cast<std::size_t>(n)] = ~0ull;
  for (std::size_t i = 0; i < pi_words.size(); ++i)
    values[static_cast<std::size_t>(ckt.primary_inputs()[i])] = pi_words[i];

  const std::uint64_t forced = fault.stuck_one ? ~0ull : 0ull;
  if (fault.net >= 0) values[static_cast<std::size_t>(fault.net)] = forced;

  for (const int gid : ckt.topo_order()) {
    const GateInst& g = ckt.gate(gid);
    std::uint64_t in[3] = {0, 0, 0};
    for (int i = 0; i < g.input_count(); ++i) {
      in[i] =
          values[static_cast<std::size_t>(g.in[static_cast<std::size_t>(i)])];
      if (fault.gate == gid && fault.pin == i) in[i] = forced;
    }
    std::uint64_t out = eval_cell_packed(g.kind, in[0], in[1], in[2]);
    if (fault.net >= 0 && g.out == fault.net) out = forced;
    values[static_cast<std::size_t>(g.out)] = out;
  }
  return values;
}

/// Per-net good-machine words of up to 64 packed patterns.
inline std::vector<std::uint64_t> simulate_packed(
    const Circuit& ckt, const std::vector<std::uint64_t>& pi_words) {
  return packed_line(ckt, pi_words, {});
}

}  // namespace cpsinw::logic::reference
