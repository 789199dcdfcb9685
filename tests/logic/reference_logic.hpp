// Reference evaluators for the differential suites: the seed's
// interpreted single-word packed walks over GateInst records in
// Circuit::topo_order(), with no compilation, and the static-cone stem
// walk that the event-driven stem kernels replaced.  The library
// evaluates packed patterns only through CompiledCircuit's plane kernels;
// these walks are the independent oracles those kernels are pinned to.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "gates/cell.hpp"
#include "logic/circuit.hpp"
#include "logic/compiled_circuit.hpp"
#include "logic/logic_sim.hpp"
#include "logic/packed_kernels.hpp"

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

/// The static-cone stem walk, on the portable vector only: the
/// observability row of `stem`, binary (kX false) or X (kX true), as
/// CompiledCircuit::eval_packed_stem_planes and eval_packed_stem_x_planes
/// define it.  It discovers the stem's whole fan-out cone once — every
/// gate after the stem's driver with an input in the cone, and which of
/// its pins read the cone — then walks every cone gate in every strip,
/// whether or not the flip (or X) reaches it there, and ORs the PO lanes
/// of the cone into the row.
/// @returns the gate evaluations: the cone's length times the strips
template <bool kX>
std::size_t static_cone_stem_row(const CompiledCircuit& cc,
                                 const std::uint64_t* good,
                                 std::size_t stride, std::size_t n_words,
                                 NetId stem, std::uint64_t* obs) {
  using V = kernels::U64x4;
  constexpr std::size_t kW = CompiledCircuit::kSimdWords;
  constexpr std::size_t kRow = kW * kernels::kConeGroups;
  const Circuit& ckt = cc.circuit();
  const auto& gates = cc.gates();
  const std::size_t s = static_cast<std::size_t>(stem);

  std::vector<char> in_cone(static_cast<std::size_t>(ckt.net_count()), 0);
  in_cone[s] = 1;
  std::vector<std::size_t> cone;  // (position << 3) | lane-read pin mask
  const int driver = ckt.driver_of(stem);
  for (std::size_t k = driver < 0 ? 0 : cc.position_of(driver) + 1;
       k < gates.size(); ++k) {
    const CompiledCircuit::GateRec& g = gates[k];
    std::size_t mask = 0;
    for (std::size_t i = 0; i < 3; ++i)
      if (in_cone[static_cast<std::size_t>(g.in[i])] != 0) mask |= 1u << i;
    if (mask == 0) continue;
    in_cone[static_cast<std::size_t>(g.out)] = 1;
    cone.push_back((k << 3) | mask);
  }
  std::vector<std::size_t> pos_in_cone;
  for (const NetId po : ckt.primary_outputs())
    if (in_cone[static_cast<std::size_t>(po)] != 0)
      pos_in_cone.push_back(static_cast<std::size_t>(po));

  std::vector<std::uint64_t> lanes(
      static_cast<std::size_t>(ckt.net_count()) * kRow, 0);
  std::size_t strips = 0;
  const auto strip = [&]<std::size_t NW>(std::size_t wg) {
    ++strips;
    for (std::size_t gi = 0; gi < NW; ++gi)
      V::store(lanes.data() + s * kRow + gi * kW,
               kX ? V::splat(~0ull)
                  : ~V::load(good + s * stride + wg + gi * kW));
    for (const std::size_t e : cone) {
      const CompiledCircuit::GateRec& g = gates[e >> 3];
      for (std::size_t gi = 0; gi < NW; ++gi) {
        const std::size_t l = gi * kW;
        const auto pin = [&](std::size_t i) {
          const std::size_t n = static_cast<std::size_t>(g.in[i]);
          if (((e >> i) & 1u) != 0) return V::load(lanes.data() + n * kRow + l);
          return kX ? V::splat(0) : V::load(good + n * stride + wg + l);
        };
        V out;
        if constexpr (kX) {
          const auto value = [&](std::size_t i, const V& x) {
            return V::load(good + static_cast<std::size_t>(g.in[i]) * stride +
                           wg + l) &
                   ~x;
          };
          const V ax = pin(0), bx = pin(1), cx = pin(2);
          V v;
          kernels::eval_cell_dual(g.kind, value(0, ax), ax, value(1, bx), bx,
                                  value(2, cx), cx, v, out);
        } else {
          out = kernels::eval_cell_vec(g.kind, pin(0), pin(1), pin(2));
        }
        V::store(lanes.data() + static_cast<std::size_t>(g.out) * kRow + l,
                 out);
      }
    }
    for (std::size_t gi = 0; gi < NW; ++gi) {
      const std::size_t l = gi * kW;
      V d = V::splat(0);
      for (const std::size_t n : pos_in_cone) {
        const V lane = V::load(lanes.data() + n * kRow + l);
        d = d | (kX ? lane : lane ^ V::load(good + n * stride + wg + l));
      }
      kernels::store_clamped(obs, wg + l, n_words, d);
    }
  };
  kernels::for_each_strip(n_words, strip);
  return cone.size() * strips;
}

/// Per-net good-machine words of up to 64 packed patterns.
inline std::vector<std::uint64_t> simulate_packed(
    const Circuit& ckt, const std::vector<std::uint64_t>& pi_words) {
  return packed_line(ckt, pi_words, {});
}

}  // namespace cpsinw::logic::reference
