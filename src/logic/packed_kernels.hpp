// Internal: the SoA plane kernels behind CompiledCircuit's packed
// evaluation, written once as templates over a 4x64-bit vector type.
// Each SIMD backend is one KernelTable of their instantiations over its
// vector type: U64x4 (portable, always built) and U64x2x2 (NEON, aarch64
// only) in compiled_circuit.cpp, and M256, the one __m256i wrapper
// below, in compiled_circuit_avx2.cpp (the only TU compiled with -mavx2)
// and compiled_circuit_avx512.cpp (the only TU compiled with -mavx512f
// -mavx512vl, whose eval_cell_vec overload collapses every cell to one
// ternary-logic instruction).
//
// The vector concept: load/store/splat, the four bitwise ops and one
// cross-lane test, any (some bit set in some lane).  Kernels never read a
// single lane: per-word results leave through stores, and any is the one
// question a kernel asks of a whole vector (whether a gate's lanes left
// the good machine, so its readers must be walked).
//
// Not installed API: include only from compiled_circuit*.cpp, simd.cpp
// (which reads table()) and the kernel tests, which pin eval_cell_dual
// against eval_cell_x and every supported table against the portable one.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "logic/compiled_circuit.hpp"
#include "logic/simd.hpp"

#if defined(__aarch64__)
#include <arm_neon.h>
#endif
#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace cpsinw::logic::kernels {

// ---- portable vector ------------------------------------------------------

/// The vector concept's reference model: 4x64 bits as a plain struct,
/// every op a 4-iteration loop the compiler unrolls (and, where the
/// baseline ISA allows, auto-vectorizes).  Always built; the backend the
/// SIMD instantiations are pinned bit-identical against.
struct U64x4 {
  std::uint64_t w[4];

  static U64x4 load(const std::uint64_t* p) {
    return U64x4{{p[0], p[1], p[2], p[3]}};
  }
  static void store(std::uint64_t* p, const U64x4& v) {
    p[0] = v.w[0];
    p[1] = v.w[1];
    p[2] = v.w[2];
    p[3] = v.w[3];
  }
  static U64x4 splat(std::uint64_t x) { return U64x4{{x, x, x, x}}; }

  friend U64x4 operator&(const U64x4& a, const U64x4& b) {
    return U64x4{{a.w[0] & b.w[0], a.w[1] & b.w[1], a.w[2] & b.w[2],
                  a.w[3] & b.w[3]}};
  }
  friend U64x4 operator|(const U64x4& a, const U64x4& b) {
    return U64x4{{a.w[0] | b.w[0], a.w[1] | b.w[1], a.w[2] | b.w[2],
                  a.w[3] | b.w[3]}};
  }
  friend U64x4 operator^(const U64x4& a, const U64x4& b) {
    return U64x4{{a.w[0] ^ b.w[0], a.w[1] ^ b.w[1], a.w[2] ^ b.w[2],
                  a.w[3] ^ b.w[3]}};
  }
  friend U64x4 operator~(const U64x4& a) {
    return U64x4{{~a.w[0], ~a.w[1], ~a.w[2], ~a.w[3]}};
  }
  friend bool any(const U64x4& a) {
    return (a.w[0] | a.w[1] | a.w[2] | a.w[3]) != 0;
  }
};

#if defined(__aarch64__)

/// The NEON shape of the vector concept: two uint64x2_t q registers.
struct U64x2x2 {
  uint64x2_t v[2];

  static U64x2x2 load(const std::uint64_t* p) {
    return U64x2x2{{vld1q_u64(p), vld1q_u64(p + 2)}};
  }
  static void store(std::uint64_t* p, const U64x2x2& x) {
    vst1q_u64(p, x.v[0]);
    vst1q_u64(p + 2, x.v[1]);
  }
  static U64x2x2 splat(std::uint64_t x) {
    const uint64x2_t s = vdupq_n_u64(x);
    return U64x2x2{{s, s}};
  }

  friend U64x2x2 operator&(const U64x2x2& a, const U64x2x2& b) {
    return U64x2x2{{vandq_u64(a.v[0], b.v[0]), vandq_u64(a.v[1], b.v[1])}};
  }
  friend U64x2x2 operator|(const U64x2x2& a, const U64x2x2& b) {
    return U64x2x2{{vorrq_u64(a.v[0], b.v[0]), vorrq_u64(a.v[1], b.v[1])}};
  }
  friend U64x2x2 operator^(const U64x2x2& a, const U64x2x2& b) {
    return U64x2x2{{veorq_u64(a.v[0], b.v[0]), veorq_u64(a.v[1], b.v[1])}};
  }
  friend U64x2x2 operator~(const U64x2x2& a) {
    const uint64x2_t ones = vdupq_n_u64(~0ull);
    return U64x2x2{{veorq_u64(a.v[0], ones), veorq_u64(a.v[1], ones)}};
  }
  friend bool any(const U64x2x2& a) {
    const uint64x2_t o = vorrq_u64(a.v[0], a.v[1]);
    return (vgetq_lane_u64(o, 0) | vgetq_lane_u64(o, 1)) != 0;
  }
};

#endif  // __aarch64__

#if defined(__AVX2__)

namespace {

/// The __m256i shape of the vector concept, seen only by the -mavx2 and
/// -mavx512f units (both flags define __AVX2__).  The unnamed namespace
/// makes it a distinct type in each, so each unit's instantiations stay
/// local to it and the linker cannot merge them across ISAs.
struct M256 {
  __m256i v;

  static M256 load(const std::uint64_t* p) {
    return M256{_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))};
  }
  static void store(std::uint64_t* p, const M256& x) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), x.v);
  }
  static M256 splat(std::uint64_t x) {
    return M256{_mm256_set1_epi64x(static_cast<long long>(x))};
  }

  friend M256 operator&(const M256& a, const M256& b) {
    return M256{_mm256_and_si256(a.v, b.v)};
  }
  friend M256 operator|(const M256& a, const M256& b) {
    return M256{_mm256_or_si256(a.v, b.v)};
  }
  friend M256 operator^(const M256& a, const M256& b) {
    return M256{_mm256_xor_si256(a.v, b.v)};
  }
  friend M256 operator~(const M256& a) {
    return M256{_mm256_xor_si256(a.v, _mm256_set1_epi64x(-1))};
  }
  friend bool any(const M256& a) { return _mm256_testz_si256(a.v, a.v) == 0; }
};

}  // namespace

#endif  // __AVX2__

// ---- shared kernel bodies -------------------------------------------------

/// Word-parallel cell functions: on binary planes the 4-valued tables
/// collapse to these bitwise forms (pinned against the interpreted walk of
/// tests/logic/reference_logic.hpp by tests/logic/compiled_batch_test.cpp).
template <class V>
inline V eval_cell_vec(gates::CellKind kind, const V& a, const V& b,
                       const V& c) {
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
  return V::splat(0);
}

/// Good-machine pass over SoA planes, kSimdWords words per step.
template <class V>
void eval_planes_t(const CompiledCircuit& cc, std::uint64_t* planes,
                   std::size_t stride) {
  const auto& gates = cc.gates();
  for (std::size_t wg = 0; wg < stride; wg += CompiledCircuit::kSimdWords) {
    for (const CompiledCircuit::GateRec& g : gates) {
      const V a = V::load(planes + static_cast<std::size_t>(g.in[0]) * stride +
                          wg);
      const V b = V::load(planes + static_cast<std::size_t>(g.in[1]) * stride +
                          wg);
      const V c = V::load(planes + static_cast<std::size_t>(g.in[2]) * stride +
                          wg);
      V::store(planes + static_cast<std::size_t>(g.out) * stride + wg,
               eval_cell_vec(g.kind, a, b, c));
    }
  }
}

/// Word groups walked together per strip by the cone kernels.  Strip
/// widening: independent word-group chains walked together hide the
/// gate-to-gate latency (a single chain is serial through each cone gate)
/// and amortize the per-call scalar costs.
inline constexpr std::size_t kConeGroups = 4;

/// The lane scratch the stem and bridge kernels share, carved out of the
/// caller's vector.  Every kernel sizes it identically, so walks of any
/// kind interleaving on one scratch skip the re-zeroing.
///
/// Layout: [lanes: n_net * kW * kConeGroups][marks: n_net][counter]
///         [cone key][cone length][cone: n_gates][po count][po list: n_po]
///         [dirty: n_gates / 64 + 1]
struct LaneScratch {
  /// Lane storage: word j of a strip for net n lives at
  /// lanes[n * kSimdWords * kConeGroups + j].
  std::uint64_t* lanes = nullptr;
  /// Per net: the counter value of the discovery or strip that last
  /// marked it; the counter only grows, so a stale mark never matches.
  std::uint64_t* marks = nullptr;
  std::uint64_t* counter = nullptr;
  /// The bridge cone cache: the key of the pair it holds (0 when none),
  /// its gate list and its PO list.
  std::uint64_t* cone_key = nullptr;
  std::uint64_t* cone_len = nullptr;
  std::uint64_t* cone = nullptr;
  std::uint64_t* po_len = nullptr;
  std::uint64_t* po_list = nullptr;
  /// The stem walks' event queue, one bit per gate position (and at least
  /// one word), all zero between walks.
  std::uint64_t* dirty = nullptr;
};

/// Sizes `scratch` (zeroing it only when its size changes) and returns
/// its parts.
inline LaneScratch lane_layout(const CompiledCircuit& cc,
                               std::vector<std::uint64_t>& scratch) {
  constexpr std::size_t kW = CompiledCircuit::kSimdWords;
  const Circuit& ckt = cc.circuit();
  const std::size_t n_net = static_cast<std::size_t>(ckt.net_count());
  const std::size_t n_po = ckt.primary_outputs().size();
  const std::size_t n_gates = cc.gates().size();
  const std::size_t lanes_sz = n_net * kW * kConeGroups;
  const std::size_t need =
      lanes_sz + n_net + 4 + n_gates + n_po + n_gates / 64 + 1;
  if (scratch.size() != need) scratch.assign(need, 0);
  LaneScratch sc;
  sc.lanes = scratch.data();
  sc.marks = sc.lanes + lanes_sz;
  sc.counter = sc.marks + n_net;
  sc.cone_key = sc.counter + 1;
  sc.cone_len = sc.counter + 2;
  sc.cone = sc.counter + 3;
  sc.po_len = sc.cone + n_gates;
  sc.po_list = sc.po_len + 1;
  sc.dirty = sc.po_list + n_po;
  return sc;
}

/// The cached fan-out cone of a bridged net pair.
struct FaultCone {
  std::uint64_t* lanes = nullptr;  ///< LaneScratch::lanes
  /// Cone gates in topological order: (position << 3) | mask, where mask
  /// bit i says pin i reads lane storage instead of the good planes.
  const std::uint64_t* gates = nullptr;
  std::size_t gate_count = 0;
  const std::uint64_t* po_nets = nullptr;  ///< PO nets inside the cone
  std::size_t po_count = 0;
  const std::uint64_t* marks = nullptr;  ///< per net: == mark when in the cone
  std::uint64_t mark = 0;

  /// The lane-read mask of a gate outside the cone list (a seed's driver).
  [[nodiscard]] unsigned lane_pins(const CompiledCircuit::GateRec& g) const {
    return (marks[static_cast<std::size_t>(g.in[0])] == mark ? 1u : 0u) |
           (marks[static_cast<std::size_t>(g.in[1])] == mark ? 2u : 0u) |
           (marks[static_cast<std::size_t>(g.in[2])] == mark ? 4u : 0u);
  }
};

/// Sizes the shared lane scratch and returns the fan-out cone of the
/// bridged nets a and b, rediscovering it only when the pair changed since
/// the last call.  A seed's own driver is skipped: the seed is forced, so
/// its driver's value never reaches the cone.  The cone — which gates
/// diverge, which of their inputs read lanes vs. good planes, which POs
/// can differ — is a property of the graph, not of the pattern words, so
/// it is discovered once (versioned marks) and reused by every strip and
/// by a pair's four behaviours, which the universe lists back to back.
/// The key is the unordered pair with the top bit set, so it is never 0,
/// the key a stem walk leaves behind when its marks overwrite the cone's.
inline FaultCone seeded_cone(const CompiledCircuit& cc, NetId a, NetId b,
                             std::vector<std::uint64_t>& scratch) {
  const auto& gates = cc.gates();
  const LaneScratch sc = lane_layout(cc, scratch);
  std::uint64_t* const marks = sc.marks;
  const std::uint64_t lo = static_cast<std::uint64_t>(std::min(a, b));
  const std::uint64_t hi = static_cast<std::uint64_t>(std::max(a, b));
  const std::uint64_t key = (1ull << 63) | (hi << 31) | lo;

  if (*sc.cone_key != key) {
    const std::uint64_t cur = ++*sc.counter;
    marks[static_cast<std::size_t>(a)] = cur;
    marks[static_cast<std::size_t>(b)] = cur;
    std::uint64_t len = 0;
    for (std::size_t k = 0; k < gates.size(); ++k) {
      const CompiledCircuit::GateRec& g = gates[k];
      const std::uint64_t dmask =
          (marks[static_cast<std::size_t>(g.in[0])] == cur ? 1u : 0u) |
          (marks[static_cast<std::size_t>(g.in[1])] == cur ? 2u : 0u) |
          (marks[static_cast<std::size_t>(g.in[2])] == cur ? 4u : 0u);
      if (dmask == 0) continue;  // outside the seeds' cone
      // Each net has one driver, so an output marked before its driver is
      // reached is a seed, whose driver stays out of the walk.
      if (marks[static_cast<std::size_t>(g.out)] == cur) continue;
      marks[static_cast<std::size_t>(g.out)] = cur;
      sc.cone[len++] = (static_cast<std::uint64_t>(k) << 3) | dmask;
    }
    *sc.cone_len = len;
    std::uint64_t plen = 0;
    for (const NetId po : cc.circuit().primary_outputs())
      if (marks[static_cast<std::size_t>(po)] == cur)
        sc.po_list[plen++] = static_cast<std::uint64_t>(po);
    *sc.po_len = plen;
    *sc.cone_key = key;
  }
  return FaultCone{sc.lanes,
                   sc.cone,
                   static_cast<std::size_t>(*sc.cone_len),
                   sc.po_list,
                   static_cast<std::size_t>(*sc.po_len),
                   marks,
                   *sc.counter};
}

/// Clamped group store: full groups go straight to the output array
/// (shallow cones spend more time extracting than walking, so a scalar
/// roundtrip here would be the kernel's largest fixed cost); only the
/// ragged tail takes the buffered path.
template <class V>
inline void store_clamped(std::uint64_t* dst, std::size_t base,
                          std::size_t n_words, const V& v) {
  constexpr std::size_t kW = CompiledCircuit::kSimdWords;
  if (base >= n_words) return;
  if (n_words - base >= kW) {
    V::store(dst + base, v);
    return;
  }
  alignas(32) std::uint64_t buf[kW];
  V::store(buf, v);
  const std::size_t lim = n_words - base;
  for (std::size_t j = 0; j < lim; ++j) dst[base + j] = buf[j];
}

/// Dispatches a strip body over [0, n_words) in strips of up to
/// kConeGroups word groups: `strip.template operator()<NW>(wg)` walks NW
/// groups starting at word wg.  Only groups whose first word is in range
/// are walked, so loads stay inside the kSimdWords-padded plane stride
/// even when the last group is partial (the stores clamp what is
/// written back).
template <class Strip>
inline void for_each_strip(std::size_t n_words, const Strip& strip) {
  constexpr std::size_t kW = CompiledCircuit::kSimdWords;
  static_assert(kConeGroups == 4, "strip dispatch below covers 1..4");
  for (std::size_t wg = 0; wg < n_words; wg += kW * kConeGroups) {
    switch (std::min(kConeGroups, (n_words - wg + kW - 1) / kW)) {
      case 4: strip.template operator()<4>(wg); break;
      case 3: strip.template operator()<3>(wg); break;
      case 2: strip.template operator()<2>(wg); break;
      default: strip.template operator()<1>(wg); break;
    }
  }
}

/// Dual-rail cell evaluation: each pin is a (value, X) plane pair in
/// canonical form (value = 0 wherever X = 1), and so is the result.
/// X-exact against eval_cell_x: an output bit is binary exactly when
/// every binary completion of the X pins agrees.  Only the cell's own
/// pins are read — pins past its arity alias slot 0, which carries X
/// whenever net 0 lies in the walked cone.
template <class V>
inline void eval_cell_dual(gates::CellKind kind, const V& a, const V& ax,
                           const V& b, const V& bx, const V& c, const V& cx,
                           V& v, V& x) {
  using gates::CellKind;
  switch (kind) {
    case CellKind::kInv:
      v = ~(a | ax);
      x = ax;
      return;
    case CellKind::kBuf:
      v = a;
      x = ax;
      return;
    case CellKind::kNand2:  // 1 if either pin is 0, 0 if both are 1
      v = ~((a | ax) & (b | bx));
      x = ~(v | (a & b));
      return;
    case CellKind::kNor2:  // 1 if both pins are 0, 0 if either is 1
      v = ~(a | ax | b | bx);
      x = ~(v | a | b);
      return;
    case CellKind::kXor2:
      x = ax | bx;
      v = (a ^ b) & ~x;
      return;
    case CellKind::kXor3:
      x = ax | bx | cx;
      v = (a ^ b ^ c) & ~x;
      return;
    case CellKind::kMaj3: {  // binary once two pins agree on a value
      const V a0 = ~(a | ax);
      const V b0 = ~(b | bx);
      const V c0 = ~(c | cx);
      v = (a & b) | (b & c) | (a & c);
      x = ~(v | (a0 & b0) | (b0 & c0) | (a0 & c0));
      return;
    }
  }
  v = V::splat(0);
  x = V::splat(0);
}

/// An all-zero lane row: the X plane of a net the X walk has not reached.
alignas(32) inline constexpr std::uint64_t kZeroRow[
    CompiledCircuit::kSimdWords * kConeGroups] = {};

/// Calls `f.template operator()<K>()` with `kind` as the compile-time
/// constant K, so a kernel's loop over word groups inside f dispatches on
/// the cell kind once per gate instead of once per group.
template <class F>
inline decltype(auto) dispatch_kind(gates::CellKind kind, const F& f) {
  using gates::CellKind;
  switch (kind) {
    case CellKind::kInv: return f.template operator()<CellKind::kInv>();
    case CellKind::kBuf: return f.template operator()<CellKind::kBuf>();
    case CellKind::kNand2: return f.template operator()<CellKind::kNand2>();
    case CellKind::kNor2: return f.template operator()<CellKind::kNor2>();
    case CellKind::kXor2: return f.template operator()<CellKind::kXor2>();
    case CellKind::kXor3: return f.template operator()<CellKind::kXor3>();
    case CellKind::kMaj3: return f.template operator()<CellKind::kMaj3>();
  }
  return f.template operator()<CellKind::kInv>();
}

/// Stem kernel: the observability row of one net, binary (kX false) or X
/// (kX true), walked event-driven.  The binary walk flips the net in every
/// pattern word; `obs` receives, per word (unmasked), the OR of the PO
/// differences — bit k is set when flipping the net under that pattern
/// flips some PO.  The X walk seeds the net with X instead and walks in
/// dual rail keeping only the X plane in the lanes: X on one net is sound,
/// so a net that stays binary holds its good value and its value rail is
/// good & ~X.  `obs` then receives the OR of the PO X planes — bit k is
/// set when an X on the net under that pattern reaches some PO as X.
///
/// Per strip, the stem's readers are marked on a bitmap over gate
/// positions, which one ascending sweep drains (fan-out always sits later
/// in levelized order, so a gate marked during the sweep is still ahead of
/// it).  A gate reads lanes only for the inputs that diverged in this
/// strip and good words for the rest; its output diverges when its lanes
/// differ from the good words (or carry an X) in some pattern word, and
/// only then are its readers marked and, for a PO, its difference ORed
/// into the row.  The seed keeps its good value in the padding words past
/// n_words, so padding lanes equal the good machine throughout and a gate
/// diverges only where a real pattern does.  A PO stem's row comes out
/// all ones.
/// @returns the gate evaluations, summed over strips
template <class V, bool kX>
std::size_t eval_stem_planes_t(const CompiledCircuit& cc,
                               const std::uint64_t* good, std::size_t stride,
                               std::size_t n_words, NetId stem,
                               std::uint64_t* obs,
                               std::vector<std::uint64_t>& lane_scratch) {
  constexpr std::size_t kW = CompiledCircuit::kSimdWords;
  constexpr std::size_t kRow = kW * kConeGroups;  // lane words per net
  const auto& gates = cc.gates();
  const LaneScratch sc = lane_layout(cc, lane_scratch);
  std::uint64_t* const lv = sc.lanes;
  std::uint64_t* const marks = sc.marks;
  std::uint64_t* const dirty = sc.dirty;
  *sc.cone_key = 0;  // the marks below overwrite any cached bridge cone's
  const std::size_t s = static_cast<std::size_t>(stem);
  const bool stem_po = cc.is_po(stem);
  const std::span<const std::uint32_t> stem_readers = cc.fanout(stem);
  std::size_t evaluated = 0;

  // One strip: NW word groups walked together.  The sweep's state (the
  // bitmap word being drained, the last word marked, the gate count) lives
  // in locals that no lambda captures, so the lane stores, which may alias
  // any word, do not force it out of registers.
  const auto strip = [&]<std::size_t NW>(std::size_t wg) {
    const std::uint64_t cur = ++*sc.counter;
    alignas(32) std::uint64_t live[kRow];
    for (std::size_t j = 0; j < NW * kW; ++j)
      live[j] = wg + j < n_words ? ~0ull : 0;
    V row[NW];
    for (std::size_t gi = 0; gi < NW; ++gi) {
      const std::size_t l = gi * kW;
      const V seed = V::load(live + l);
      V::store(lv + s * kRow + l,
               kX ? seed : seed ^ V::load(good + s * stride + wg + l));
      row[gi] = stem_po ? seed : V::splat(0);
    }
    marks[s] = cur;

    std::size_t last = 0;  // the highest bitmap word marked so far
    std::size_t count = 0;
    for (const std::uint32_t pos : stem_readers) {
      dirty[pos >> 6] |= 1ull << (pos & 63);
      last = pos >> 6;
    }
    for (std::size_t w = stem_readers.empty() ? 0 : stem_readers.front() >> 6;
         w <= last; ++w) {
      // Readers always sit at later positions, so those marked into word w
      // while it drains land above the bit just taken.
      std::uint64_t word = dirty[w];
      while (word != 0) {
        const std::size_t pos =
            w * 64 + static_cast<std::size_t>(__builtin_ctzll(word));
        word &= word - 1;
        ++count;
        const CompiledCircuit::GateRec& g = gates[pos];
        const std::size_t n0 = static_cast<std::size_t>(g.in[0]);
        const std::size_t n1 = static_cast<std::size_t>(g.in[1]);
        const std::size_t n2 = static_cast<std::size_t>(g.in[2]);
        const std::size_t o = static_cast<std::size_t>(g.out);
        // A diverged pin reads its lane; any other its good word (binary
        // walk) or no X (X walk), picked once per gate so the group loop
        // below does not branch.
        const auto src = [&](std::size_t n) -> const std::uint64_t* {
          if (marks[n] == cur) return lv + n * kRow;
          return kX ? kZeroRow : good + n * stride + wg;
        };
        const std::uint64_t* const p0 = src(n0);
        const std::uint64_t* const p1 = src(n1);
        const std::uint64_t* const p2 = src(n2);
        // Every word group of the gate under one compile-time cell kind;
        // returns where its output left the good machine.
        const V diff = dispatch_kind(g.kind, [&]<gates::CellKind K>() {
          V d = V::splat(0);
          for (std::size_t gi = 0; gi < NW; ++gi) {
            const std::size_t l = gi * kW;
            const V a = V::load(p0 + l), b = V::load(p1 + l),
                    c = V::load(p2 + l);
            V out;
            if constexpr (kX) {
              const auto dual = [&](std::size_t n, const V& x) {
                return V::load(good + n * stride + wg + l) & ~x;
              };
              V v;
              eval_cell_dual(K, dual(n0, a), a, dual(n1, b), b, dual(n2, c),
                             c, v, out);
              d = d | out;
            } else {
              out = eval_cell_vec(K, a, b, c);
              d = d | (out ^ V::load(good + o * stride + wg + l));
            }
            V::store(lv + o * kRow + l, out);
          }
          return d;
        });
        if (!any(diff)) [[unlikely]]
          continue;  // the flip (or X) stops here
        marks[o] = cur;
        if (cc.is_po(g.out))
          for (std::size_t gi = 0; gi < NW; ++gi) {
            const std::size_t l = gi * kW;
            const V lane = V::load(lv + o * kRow + l);
            row[gi] = row[gi] |
                      (kX ? lane : lane ^ V::load(good + o * stride + wg + l));
          }
        const std::span<const std::uint32_t> readers = cc.fanout(g.out);
        if (readers.empty()) continue;
        last = std::max(last, static_cast<std::size_t>(readers.back() >> 6));
        for (const std::uint32_t r : readers) {
          const std::uint64_t bit = 1ull << (r & 63);
          dirty[r >> 6] |= bit;
          word |= (r >> 6) == w ? bit : 0;
        }
      }
      dirty[w] = 0;
    }
    evaluated += count;
    for (std::size_t gi = 0; gi < NW; ++gi)
      store_clamped(obs, wg + gi * kW, n_words, row[gi]);
  };

  for_each_strip(n_words, strip);
  return evaluated;
}

/// Wired value of a bridge, per pattern bit, from its two driver values.
template <class V>
inline V wired_value(CompiledCircuit::Bridge::Wire wire, const V& va,
                     const V& vb) {
  using Wire = CompiledCircuit::Bridge::Wire;
  switch (wire) {
    case Wire::kAnd: return va & vb;
    case Wire::kOr: return va | vb;
    case Wire::kDominantA: return va;
    case Wire::kDominantB: return vb;
  }
  return va;
}

/// Plane-wide bridge kernel (see CompiledCircuit::eval_packed_bridge_planes
/// for the fixpoint it reproduces).  Per strip, one walk of the bridge
/// cone computes N0 into the value lanes and N1 into `n1_scratch`; the
/// drivers of a and b read both, and the rest is word operations.
template <class V>
void eval_bridge_planes_t(const CompiledCircuit& cc, const std::uint64_t* good,
                          std::size_t stride, std::size_t n_words,
                          const CompiledCircuit::Bridge& br,
                          std::uint64_t* detect, std::uint64_t* contention,
                          std::vector<std::uint64_t>& lane_scratch,
                          std::vector<std::uint64_t>& n1_scratch) {
  constexpr std::size_t kW = CompiledCircuit::kSimdWords;
  constexpr std::size_t kRow = kW * kConeGroups;  // lane words per net
  const auto& gates = cc.gates();
  const Circuit& ckt = cc.circuit();
  const FaultCone fc = seeded_cone(cc, br.a, br.b, lane_scratch);
  const std::size_t lanes_sz =
      static_cast<std::size_t>(ckt.net_count()) * kRow;
  if (n1_scratch.size() != lanes_sz) n1_scratch.assign(lanes_sz, 0);
  std::uint64_t* const lo = fc.lanes;         // N0
  std::uint64_t* const hi = n1_scratch.data();  // N1
  const std::size_t net_a = static_cast<std::size_t>(br.a);
  const std::size_t net_b = static_cast<std::size_t>(br.b);
  const int da = ckt.driver_of(br.a);
  const int db = ckt.driver_of(br.b);
  const CompiledCircuit::GateRec* const drv_a =
      da < 0 ? nullptr : &gates[cc.position_of(da)];
  const CompiledCircuit::GateRec* const drv_b =
      db < 0 ? nullptr : &gates[cc.position_of(db)];
  const unsigned pins_a = drv_a == nullptr ? 0 : fc.lane_pins(*drv_a);
  const unsigned pins_b = drv_b == nullptr ? 0 : fc.lane_pins(*drv_b);

  const auto strip = [&]<std::size_t NW>(std::size_t wg) {
    for (std::size_t gi = 0; gi < NW; ++gi) {
      const std::size_t l = gi * kW;
      V::store(lo + net_a * kRow + l, V::splat(0));
      V::store(hi + net_a * kRow + l, V::splat(~0ull));
      V::store(lo + net_b * kRow + l, V::splat(0));
      V::store(hi + net_b * kRow + l, V::splat(~0ull));
    }

    // N0 and N1 in one walk.
    for (std::size_t idx = 0; idx < fc.gate_count; ++idx) {
      const std::uint64_t e = fc.gates[idx];
      const CompiledCircuit::GateRec& g = gates[e >> 3];
      const std::size_t n0 = static_cast<std::size_t>(g.in[0]);
      const std::size_t n1 = static_cast<std::size_t>(g.in[1]);
      const std::size_t n2 = static_cast<std::size_t>(g.in[2]);
      const bool l0 = (e & 1) != 0, l1 = (e & 2) != 0, l2 = (e & 4) != 0;
      for (std::size_t gi = 0; gi < NW; ++gi) {
        const std::size_t l = gi * kW;
        // A pin outside the cone reads the same good word in both passes.
        const V a0 = l0 ? V::load(lo + n0 * kRow + l)
                        : V::load(good + n0 * stride + wg + l);
        const V a1 = l0 ? V::load(hi + n0 * kRow + l) : a0;
        const V b0 = l1 ? V::load(lo + n1 * kRow + l)
                        : V::load(good + n1 * stride + wg + l);
        const V b1 = l1 ? V::load(hi + n1 * kRow + l) : b0;
        const V c0 = l2 ? V::load(lo + n2 * kRow + l)
                        : V::load(good + n2 * stride + wg + l);
        const V c1 = l2 ? V::load(hi + n2 * kRow + l) : c0;
        const std::size_t o = static_cast<std::size_t>(g.out) * kRow + l;
        V::store(lo + o, eval_cell_vec(g.kind, a0, b0, c0));
        V::store(hi + o, eval_cell_vec(g.kind, a1, b1, c1));
      }
    }

    // A bridged net's driver value under N0 or N1: its pins read the
    // chosen lane set where the cone reaches them, the good planes
    // elsewhere.  A net without a driver (a PI or a constant) reads the
    // wired value, i.e. its own seed word.
    const auto driver = [&](const CompiledCircuit::GateRec* g, unsigned pins,
                            std::size_t net, const std::uint64_t* lanes,
                            std::size_t l) {
      if (g == nullptr) return V::load(lanes + net * kRow + l);
      const auto pin = [&](unsigned i) {
        const std::size_t n = static_cast<std::size_t>(g->in[i]);
        return ((pins >> i) & 1u) != 0 ? V::load(lanes + n * kRow + l)
                                       : V::load(good + n * stride + wg + l);
      };
      return eval_cell_vec(g->kind, pin(0), pin(1), pin(2));
    };

    // The fixpoint per bit.  Round r of simulate_bridge pins a = b = w_r,
    // so its driver values are those of N_{w_r} and the next round's
    // wired value is w_{r+1} = G(w_r), G(w) = wire(driver_a(N_w),
    // driver_b(N_w)), from w_0 = wire(good a, good b).
    //  * G is one of the four maps of {0, 1}: constant, identity or
    //    negation.  A constant or the identity converges; the negation
    //    flips w, and with it the driver values, every round, so the
    //    scalar path gives up after four rounds and sets a = b = X.
    //  * A converged bit settles on w_0.  At most one of a and b feeds
    //    the other's driver (the circuit is acyclic), and a net without a
    //    driver reads w, so a = b = v gives both nets their good driver
    //    values for v = good a or v = good b, unless both are undriven (G
    //    is then the identity).  So w_0 = G(v) for some v: a constant G
    //    equals w_0, and the identity keeps it.  The bit reads N_{w_0}.
    //  * An oscillating bit never flips a PO.  Its POs come from a = b = X
    //    propagated three-valued, which is sound: a binary PO takes that
    //    value under every binary a and b, including the good machine's.
    for (std::size_t gi = 0; gi < NW; ++gi) {
      const std::size_t l = gi * kW;
      const V good_a = V::load(good + net_a * stride + wg + l);
      const V good_b = V::load(good + net_b * stride + wg + l);
      store_clamped(contention, wg + l, n_words, good_a ^ good_b);
      const V g0 = wired_value(br.wire, driver(drv_a, pins_a, net_a, lo, l),
                               driver(drv_b, pins_b, net_b, lo, l));
      const V g1 = wired_value(br.wire, driver(drv_a, pins_a, net_a, hi, l),
                               driver(drv_b, pins_b, net_b, hi, l));
      const V w0 = wired_value(br.wire, good_a, good_b);
      V d = V::splat(0);
      for (std::size_t i = 0; i < fc.po_count; ++i) {
        const std::size_t n = static_cast<std::size_t>(fc.po_nets[i]);
        const V f = (w0 & V::load(hi + n * kRow + l)) |
                    (~w0 & V::load(lo + n * kRow + l));
        d = d | (f ^ V::load(good + n * stride + wg + l));
      }
      store_clamped(detect, wg + l, n_words, d & ~(g0 & ~g1));
    }
  };

  for_each_strip(n_words, strip);
}

// ---- kernel tables ---------------------------------------------------------

/// The four plane kernels of one backend, each with the signature of its
/// template above: the good machine, the binary and X stem walks behind
/// the two kinds of observability row that line and transistor faults
/// read, and the bridge fixpoint.  CompiledCircuit's eval_packed_* methods
/// call through the active backend's table, so adding or deleting a
/// kernel is one member here and one entry in kKernels.
struct KernelTable {
  using Scratch = std::vector<std::uint64_t>;
  using StemWalk = std::size_t (*)(const CompiledCircuit&,
                                   const std::uint64_t*, std::size_t,
                                   std::size_t, NetId, std::uint64_t*,
                                   Scratch&);
  void (*planes)(const CompiledCircuit&, std::uint64_t*, std::size_t);
  StemWalk stem_planes;
  StemWalk stem_x_planes;
  void (*bridge_planes)(const CompiledCircuit&, const std::uint64_t*,
                        std::size_t, std::size_t,
                        const CompiledCircuit::Bridge&, std::uint64_t*,
                        std::uint64_t*, Scratch&, Scratch&);
};

/// The table of the kernels instantiated over vector type V.  Name it
/// only in the unit that owns V's ISA: the portable and NEON tables in
/// compiled_circuit.cpp, the M256 tables in the -m units.
template <class V>
inline constexpr KernelTable kKernels = {
    &eval_planes_t<V>, &eval_stem_planes_t<V, false>,
    &eval_stem_planes_t<V, true>, &eval_bridge_planes_t<V>};

// The M256 tables, defined in compiled_circuit_avx2.cpp and (with the
// VPTERNLOGQ eval_cell_vec) compiled_circuit_avx512.cpp.
#if defined(CPSINW_SIMD_AVX2)
extern const KernelTable kAvx2Kernels;
#endif
#if defined(CPSINW_SIMD_AVX512)
extern const KernelTable kAvx512Kernels;
#endif

/// The kernel table of backend `b`, or nullptr when this build or this CPU
/// cannot run it.  This is the one list of backends: simd::supported(b)
/// is `table(b) != nullptr`.
[[nodiscard]] const KernelTable* table(simd::Backend b);

}  // namespace cpsinw::logic::kernels
