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
// The vector concept: load/store/splat, the four bitwise ops, and scalar
// lane access.  Lane access is deliberately rare — it appears only at
// fault-injection events and when extracting per-word detection results,
// never in the per-gate walk.
//
// Not installed API: include only from compiled_circuit*.cpp, simd.cpp
// (which reads table()) and the kernel tests, which pin eval_cell_dual
// against eval_cell_x and every supported table against the portable one.
#pragma once

#include <algorithm>
#include <cstdint>
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
  void set_lane(std::size_t i, std::uint64_t x) { w[i] = x; }
  [[nodiscard]] std::uint64_t lane(std::size_t i) const { return w[i]; }

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
};

#if defined(__aarch64__)

/// The NEON shape of the vector concept: two uint64x2_t q registers.
/// Lane ops need immediate indices, hence the switches (cold paths only).
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
  void set_lane(std::size_t i, std::uint64_t x) {
    switch (i) {
      case 0: v[0] = vsetq_lane_u64(x, v[0], 0); break;
      case 1: v[0] = vsetq_lane_u64(x, v[0], 1); break;
      case 2: v[1] = vsetq_lane_u64(x, v[1], 0); break;
      default: v[1] = vsetq_lane_u64(x, v[1], 1); break;
    }
  }
  [[nodiscard]] std::uint64_t lane(std::size_t i) const {
    switch (i) {
      case 0: return vgetq_lane_u64(v[0], 0);
      case 1: return vgetq_lane_u64(v[0], 1);
      case 2: return vgetq_lane_u64(v[1], 0);
      default: return vgetq_lane_u64(v[1], 1);
    }
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
};

#endif  // __aarch64__

#if defined(__AVX2__)

namespace {

/// The __m256i shape of the vector concept, seen only by the -mavx2 and
/// -mavx512f units (both flags define __AVX2__).  The unnamed namespace
/// makes it a distinct type in each, so each unit's instantiations stay
/// local to it and the linker cannot merge them across ISAs.  Lane access
/// goes through memory (the intrinsics want immediate indices); it only
/// appears at fault-injection events and result extraction.
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
  void set_lane(std::size_t i, std::uint64_t x) {
    alignas(32) std::uint64_t tmp[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), v);
    tmp[i] = x;
    v = _mm256_load_si256(reinterpret_cast<const __m256i*>(tmp));
  }
  [[nodiscard]] std::uint64_t lane(std::size_t i) const {
    alignas(32) std::uint64_t tmp[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), v);
    return tmp[i];
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

/// Batched line-fault kernel: kBatchLanes faults, one per SIMD lane, one
/// forward walk per pattern word starting at the earliest injection
/// position.  See CompiledCircuit::eval_packed_line_batch for the
/// contract; this body is shared verbatim by every backend, so the
/// backends are bit-identical by construction.
template <class V>
std::size_t eval_line_batch_t(const CompiledCircuit& cc,
                              const std::uint64_t* good, std::size_t stride,
                              std::size_t n_words, const std::uint64_t* active,
                              const CompiledCircuit::LineFault* faults,
                              std::size_t n_faults, std::uint64_t* det,
                              std::vector<std::uint64_t>& lane_scratch) {
  constexpr std::size_t kLanes = CompiledCircuit::kBatchLanes;
  // Words walked together per strip: the walk keeps one lane vector per
  // word, so a strip carries up to kGroups independent dependency chains —
  // on the cone-restricted suffixes the single-word walk is latency-bound
  // on its gate-to-gate chain, and the extra chains fill the idle ALU
  // slots while the scalar epoch bookkeeping is paid once per strip.  The
  // first strip stays narrow: most line faults detect within the first
  // couple of words, and a wide first strip would evaluate words the
  // word-granular early exit never needed.  Survivors get full-width
  // strips, where the ILP is worth the coarser exit.
  constexpr std::size_t kGroups = 4;
  constexpr std::size_t kFirstStrip = 2;
  const auto& gates = cc.gates();
  const Circuit& ckt = cc.circuit();
  const std::size_t n_net = static_cast<std::size_t>(ckt.net_count());
  // Lane storage plus a per-net epoch tail and a running epoch counter: a
  // net's lanes are only valid when its epoch equals the current strip's;
  // every other net reads straight from the good planes.  This keeps the
  // per-word cost proportional to the walked suffix, not to net_count (a
  // full per-word broadcast of the good machine would cost as much as
  // seeding a whole single-fault pass and cancel the batching win).  The
  // counter persists across calls sharing the scratch, so the epochs are
  // zeroed once per scratch lifetime, not once per kernel call.
  const std::size_t need = n_net * (kLanes * kGroups + 1) + 1;
  if (lane_scratch.size() != need) lane_scratch.assign(need, 0);
  std::uint64_t* const lanes = lane_scratch.data();
  std::uint64_t* const epoch = lane_scratch.data() + n_net * kLanes * kGroups;
  std::uint64_t& counter = lane_scratch[need - 1];
  std::fill_n(det, n_faults * n_words, 0ull);

  // Injection plan.  A stem fault forces its net's lane at seed time and
  // re-forces it right after the driver's write (a post event); a branch
  // fault overrides one pin of one gate's local inputs (a pre event).
  // Gates before the earliest event position would recompute the good
  // machine, so the walk skips them — their values come from `good`.
  struct Seed {
    NetId net;
    std::size_t lane;
    std::uint64_t word;
  };
  struct Event {
    std::size_t pos;
    std::size_t lane;
    int pin;  ///< >= 0: pre-compute pin override; < 0: post-compute re-force
    std::uint64_t word;
  };
  Seed seeds[kLanes];
  Event events[kLanes];
  std::size_t n_seed = 0;
  std::size_t n_ev = 0;
  std::size_t min_pos = gates.size();
  for (std::size_t f = 0; f < n_faults; ++f) {
    const CompiledCircuit::LineFault& lf = faults[f];
    const std::uint64_t forced = lf.stuck_one ? ~0ull : 0ull;
    if (lf.net >= 0) {
      seeds[n_seed++] = {lf.net, f, forced};
      const int driver = ckt.driver_of(lf.net);
      if (driver < 0) {
        min_pos = 0;  // a PI/constant stem: every reader must see the force
      } else {
        const std::size_t pos = cc.position_of(driver);
        events[n_ev++] = {pos, f, -1, forced};
        min_pos = std::min(min_pos, pos);
      }
    } else {
      const std::size_t pos = cc.position_of(lf.gate);
      events[n_ev++] = {pos, f, lf.pin, forced};
      min_pos = std::min(min_pos, pos);
    }
  }
  // Insertion sort by position: at most kLanes events, and the walk only
  // needs same-position events adjacent (they touch disjoint lanes, so
  // their relative order is immaterial).
  for (std::size_t i = 1; i < n_ev; ++i) {
    const Event e = events[i];
    std::size_t j = i;
    for (; j > 0 && events[j - 1].pos > e.pos; --j) events[j] = events[j - 1];
    events[j] = e;
  }

  std::uint64_t undetected = (1ull << n_faults) - 1ull;

  // One strip: NW consecutive pattern words walked together (NW is a
  // compile-time constant so the per-word loops fully unroll and the NW
  // dependency chains stay in registers).
  const auto strip = [&]<std::size_t NW>(std::size_t w, std::uint64_t cur) {
    // Lanes diverge from the good machine only at seeded nets and walked
    // gate outputs; everything else reads the good plane lazily below.
    for (std::size_t s = 0; s < n_seed; ++s) {
      const std::size_t n = static_cast<std::size_t>(seeds[s].net);
      if (epoch[n] != cur) {
        for (std::size_t gi = 0; gi < NW; ++gi)
          V::store(lanes + n * kLanes * kGroups + gi * kLanes,
                   V::splat(good[n * stride + w + gi]));
        epoch[n] = cur;
      }
      for (std::size_t gi = 0; gi < NW; ++gi)
        lanes[n * kLanes * kGroups + gi * kLanes + seeds[s].lane] =
            seeds[s].word;
    }

    std::size_t ei = 0;
    for (std::size_t k = min_pos; k < gates.size(); ++k) {
      const CompiledCircuit::GateRec& g = gates[k];
      const std::size_t n0 = static_cast<std::size_t>(g.in[0]);
      const std::size_t n1 = static_cast<std::size_t>(g.in[1]);
      const std::size_t n2 = static_cast<std::size_t>(g.in[2]);
      const bool d0 = epoch[n0] == cur;
      const bool d1 = epoch[n1] == cur;
      const bool d2 = epoch[n2] == cur;
      // Cone restriction: a gate with no diverged input and no injection
      // event computes exactly the good machine — skip it, leaving its
      // output epoch stale so downstream readers take the good plane.
      if (!d0 && !d1 && !d2 && !(ei < n_ev && events[ei].pos == k)) continue;
      V a[NW], b[NW], c[NW];
      for (std::size_t gi = 0; gi < NW; ++gi) {
        a[gi] = d0 ? V::load(lanes + n0 * kLanes * kGroups + gi * kLanes)
                   : V::splat(good[n0 * stride + w + gi]);
        b[gi] = d1 ? V::load(lanes + n1 * kLanes * kGroups + gi * kLanes)
                   : V::splat(good[n1 * stride + w + gi]);
        c[gi] = d2 ? V::load(lanes + n2 * kLanes * kGroups + gi * kLanes)
                   : V::splat(good[n2 * stride + w + gi]);
      }
      std::size_t post_n = 0;
      Seed post[kLanes];
      while (ei < n_ev && events[ei].pos == k) {
        const Event& e = events[ei++];
        if (e.pin < 0) {
          post[post_n++] = {g.out, e.lane, e.word};
        } else {
          V* const dst = e.pin == 0 ? a : e.pin == 1 ? b : c;
          for (std::size_t gi = 0; gi < NW; ++gi)
            dst[gi].set_lane(e.lane, e.word);
        }
      }
      for (std::size_t gi = 0; gi < NW; ++gi)
        V::store(lanes + static_cast<std::size_t>(g.out) * kLanes * kGroups +
                     gi * kLanes,
                 eval_cell_vec(g.kind, a[gi], b[gi], c[gi]));
      epoch[static_cast<std::size_t>(g.out)] = cur;
      for (std::size_t p = 0; p < post_n; ++p)
        for (std::size_t gi = 0; gi < NW; ++gi)
          lanes[static_cast<std::size_t>(post[p].net) * kLanes * kGroups +
                gi * kLanes + post[p].lane] = post[p].word;
    }

    // A PO the walk never wrote still equals the good machine in every
    // lane — zero contribution, skipped.
    V diff[NW];
    for (std::size_t gi = 0; gi < NW; ++gi) diff[gi] = V::splat(0);
    for (const NetId po : ckt.primary_outputs()) {
      const std::size_t n = static_cast<std::size_t>(po);
      if (epoch[n] != cur) continue;
      for (std::size_t gi = 0; gi < NW; ++gi)
        diff[gi] = diff[gi] | (V::load(lanes + n * kLanes * kGroups +
                                       gi * kLanes) ^
                               V::splat(good[n * stride + w + gi]));
    }
    // One vector store, then scalar reads: per-lane extract instructions
    // would round-trip through memory once per lane on AVX2.
    for (std::size_t gi = 0; gi < NW; ++gi) {
      alignas(32) std::uint64_t dbuf[kLanes];
      V::store(dbuf, diff[gi]);
      const std::uint64_t act = active[w + gi];
      for (std::size_t f = 0; f < n_faults; ++f) {
        const std::uint64_t d = dbuf[f] & act;
        det[f * n_words + w + gi] = d;
        if (d != 0) undetected &= ~(1ull << f);
      }
    }
  };

  std::size_t w = 0;
  bool first = true;
  while (w < n_words && undetected != 0) {
    const std::uint64_t cur = ++counter;  // never reused: epochs stay valid
    const std::size_t rem = n_words - w;
    if (!first && rem >= kGroups) {
      strip.template operator()<kGroups>(w, cur);
      w += kGroups;
    } else if (rem >= kFirstStrip) {
      strip.template operator()<kFirstStrip>(w, cur);
      w += kFirstStrip;
      first = false;
    } else {
      strip.template operator()<1>(w, cur);
      w += 1;
      first = false;
    }
  }
  return w;
}

/// Word groups walked together per strip by both transistor plane
/// kernels.  Strip widening: independent word-group chains walked
/// together hide the gate-to-gate latency (a single chain is serial
/// through each cone gate) and amortize the per-fault scalar costs.
/// Wider than the line kernel's strips because these kernels have no
/// early exit to lose.
inline constexpr std::size_t kConeGroups = 4;

/// The cached fan-out cone of one faulted gate or one bridged net pair, as
/// laid out in the lane scratch that the transistor and bridge kernels
/// share.
struct FaultCone {
  /// Lane storage: word j of a strip for net n lives at
  /// lanes[n * kSimdWords * kConeGroups + j].
  std::uint64_t* lanes = nullptr;
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

/// Sizes the shared lane scratch and returns the fan-out cone of the seed
/// nets s0 and s1 (equal for a single seed) over the gates from position
/// `from` on, rediscovering it only when `key` changed since the last
/// call.  A seed's own driver is skipped: the seed is forced, so its
/// driver's value never reaches the cone.  The cone — which gates
/// diverge, which of their inputs read lanes vs. good planes, which POs
/// can differ — is a property of the graph, not of the pattern words, so
/// it is discovered once (versioned marks + persistent counter) and reused
/// by every strip and by consecutive faults with the same key (fault lists
/// enumerate several transistor faults per gate back to back, bridge
/// universes a pair's four behaviours).  Every kernel sizes the scratch
/// identically, so faults of any kind interleaving in one range keep the
/// cache (and skip the re-zeroing).
///
/// Layout: [lanes: n_net * kW * kConeGroups][marks: n_net][counter]
///         [cone key][cone length][cone: n_gates][po count][po list]
inline FaultCone seeded_cone(const CompiledCircuit& cc, std::uint64_t key,
                             NetId s0, NetId s1, std::size_t from,
                             std::vector<std::uint64_t>& lane_scratch) {
  constexpr std::size_t kW = CompiledCircuit::kSimdWords;
  const auto& gates = cc.gates();
  const Circuit& ckt = cc.circuit();
  const std::size_t n_net = static_cast<std::size_t>(ckt.net_count());
  const std::size_t n_po = ckt.primary_outputs().size();
  const std::size_t n_gates = gates.size();
  const std::size_t lanes_sz = n_net * kW * kConeGroups;
  const std::size_t need = lanes_sz + n_net + 4 + n_gates + n_po;
  if (lane_scratch.size() != need) lane_scratch.assign(need, 0);
  std::uint64_t* const lv = lane_scratch.data();
  std::uint64_t* const marks = lv + lanes_sz;
  std::uint64_t& counter = lv[lanes_sz + n_net];
  std::uint64_t& cone_key = lv[lanes_sz + n_net + 1];
  std::uint64_t& cone_len = lv[lanes_sz + n_net + 2];
  std::uint64_t* const cone = lv + lanes_sz + n_net + 3;
  std::uint64_t& po_len = cone[n_gates];
  std::uint64_t* const po_list = cone + n_gates + 1;

  if (cone_key != key) {
    const std::uint64_t cur = ++counter;  // never reused: marks stay valid
    marks[static_cast<std::size_t>(s0)] = cur;
    marks[static_cast<std::size_t>(s1)] = cur;
    std::uint64_t len = 0;
    for (std::size_t k = from; k < n_gates; ++k) {
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
      cone[len++] = (static_cast<std::uint64_t>(k) << 3) | dmask;
    }
    cone_len = len;
    std::uint64_t plen = 0;
    for (const NetId po : ckt.primary_outputs())
      if (marks[static_cast<std::size_t>(po)] == cur)
        po_list[plen++] = static_cast<std::uint64_t>(po);
    po_len = plen;
    cone_key = key;
  }
  return FaultCone{lv,      cone,  static_cast<std::size_t>(cone_len),
                   po_list, static_cast<std::size_t>(po_len),
                   marks,   counter};
}

/// The fan-out cone of `fault_gate`'s output, keyed by the gate.
inline FaultCone fault_cone(const CompiledCircuit& cc, int fault_gate,
                            std::vector<std::uint64_t>& lane_scratch) {
  const std::size_t pos = cc.position_of(fault_gate);
  const NetId out = cc.gates()[pos].out;
  return seeded_cone(cc, static_cast<std::uint64_t>(fault_gate) + 1, out, out,
                     pos + 1, lane_scratch);
}

/// The fan-out cone of a bridged pair, keyed by the unordered pair (the
/// top bit keeps pair keys apart from gate keys).
inline FaultCone bridge_cone(const CompiledCircuit& cc, NetId a, NetId b,
                             std::vector<std::uint64_t>& lane_scratch) {
  const std::uint64_t lo = static_cast<std::uint64_t>(std::min(a, b));
  const std::uint64_t hi = static_cast<std::uint64_t>(std::max(a, b));
  return seeded_cone(cc, (1ull << 63) | (hi << 31) | lo, a, b, 0,
                     lane_scratch);
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

/// Plane-wide transistor kernel: minterm expansion of the compiled
/// truth/contention masks over kSimdWords words per step.
template <class V>
void eval_faulty_planes_t(const CompiledCircuit& cc, const std::uint64_t* good,
                          std::size_t stride, std::size_t n_words,
                          int fault_gate, const gates::FaultAnalysis& fa,
                          std::uint64_t* diff, std::uint64_t* contention,
                          std::vector<std::uint64_t>& lane_scratch) {
  constexpr std::size_t kW = CompiledCircuit::kSimdWords;
  constexpr std::size_t kGroups = kConeGroups;
  const auto& gates = cc.gates();
  // With the cone precomputed the strip walk is branch-free vector work.
  const FaultCone fc = fault_cone(cc, fault_gate, lane_scratch);
  std::uint64_t* const lv = fc.lanes;
  const std::uint64_t* const cone = fc.gates;
  const std::size_t cone_len = fc.gate_count;
  const std::uint64_t* const po_list = fc.po_nets;
  const std::size_t po_len = fc.po_count;
  const CompiledCircuit::GateRec& fg = gates[cc.position_of(fault_gate)];
  const unsigned combos = 1u << fg.n_in;
  const unsigned rows = fa.compiled_truth | fa.compiled_contention;

  // One strip: NW word groups (NW * kW pattern words) walked together.
  // No vector value stays live across the sub-loops (contention is final
  // at expansion time, PO diffs accumulate per group), so wide strips add
  // independent chains without spilling registers.
  const auto strip = [&]<std::size_t NW>(std::size_t wg) {
    // Faulted gate: its local inputs equal the good machine's (single
    // faulted gate, acyclic circuit — they cannot be in its own cone), so
    // the contention accumulation is the per-pattern IDDQ excitation mask.
    for (std::size_t gi = 0; gi < NW; ++gi) {
      const V in[3] = {
          V::load(good + static_cast<std::size_t>(fg.in[0]) * stride + wg +
                  gi * kW),
          V::load(good + static_cast<std::size_t>(fg.in[1]) * stride + wg +
                  gi * kW),
          V::load(good + static_cast<std::size_t>(fg.in[2]) * stride + wg +
                  gi * kW)};
      V out = V::splat(0);
      V cont = V::splat(0);
      for (unsigned vec = 0; vec < combos; ++vec) {
        if (((rows >> vec) & 1u) == 0) continue;
        V minterm = V::splat(~0ull);
        for (unsigned i = 0; i < fg.n_in; ++i)
          minterm = minterm & (((vec >> i) & 1u) != 0 ? in[i] : ~in[i]);
        if (((fa.compiled_truth >> vec) & 1u) != 0) out = out | minterm;
        if (((fa.compiled_contention >> vec) & 1u) != 0)
          cont = cont | minterm;
      }
      V::store(lv + static_cast<std::size_t>(fg.out) * kW * kGroups + gi * kW,
               out);
      store_clamped(contention, wg + gi * kW, n_words, cont);
    }

    // Cone walk: topological order guarantees every lane slot read below
    // was stored earlier in this strip (by the faulted gate or a cone
    // predecessor), so no per-gate validity checks remain.
    for (std::size_t idx = 0; idx < cone_len; ++idx) {
      const std::uint64_t e = cone[idx];
      const CompiledCircuit::GateRec& g = gates[e >> 3];
      const std::size_t n0 = static_cast<std::size_t>(g.in[0]);
      const std::size_t n1 = static_cast<std::size_t>(g.in[1]);
      const std::size_t n2 = static_cast<std::size_t>(g.in[2]);
      for (std::size_t gi = 0; gi < NW; ++gi) {
        const V a = (e & 1) != 0 ? V::load(lv + n0 * kW * kGroups + gi * kW)
                                 : V::load(good + n0 * stride + wg + gi * kW);
        const V b = (e & 2) != 0 ? V::load(lv + n1 * kW * kGroups + gi * kW)
                                 : V::load(good + n1 * stride + wg + gi * kW);
        const V c = (e & 4) != 0 ? V::load(lv + n2 * kW * kGroups + gi * kW)
                                 : V::load(good + n2 * stride + wg + gi * kW);
        V::store(
            lv + static_cast<std::size_t>(g.out) * kW * kGroups + gi * kW,
            eval_cell_vec(g.kind, a, b, c));
      }
    }

    for (std::size_t gi = 0; gi < NW; ++gi) {
      V d = V::splat(0);
      for (std::size_t i = 0; i < po_len; ++i) {
        const std::size_t n = static_cast<std::size_t>(po_list[i]);
        d = d | (V::load(lv + n * kW * kGroups + gi * kW) ^
                 V::load(good + n * stride + wg + gi * kW));
      }
      store_clamped(diff, wg + gi * kW, n_words, d);
    }
  };

  for_each_strip(n_words, strip);
}

/// Dual-rail cell evaluation: each pin is a (value, X) plane pair in
/// canonical form (value = 0 wherever X = 1), and so is the result.
/// X-exact against eval_cell_x: an output bit is binary exactly when
/// every binary completion of the X pins agrees.  Only the cell's own
/// pins are read — pins past its arity alias slot 0, which carries X
/// whenever net 0 lies in the faulted cone.
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

/// Faulted output of one pattern word under a retained-state dictionary.
/// The faulted gate's local inputs are fault-free (single faulted gate,
/// acyclic circuit), so each pattern's row is a minterm of the good
/// planes: truth rows give 1, marginal rows X, floating rows the previous
/// pattern's faulted (value, X) — exactly what eval_scalar_faulty reads
/// from previous_state.  The floating runs are filled forward by a
/// log-step segmented scan; a run with no earlier defined pattern in the
/// word takes `carry`, the state after the previous word.  Without
/// retention floating rows read X.  Writes the canonical dual-rail output
/// to `v`/`x`, advances `carry` to this word's last pattern, and returns
/// the contention (IDDQ excitation) word.
inline std::uint64_t retained_row(const gates::FaultAnalysis& fa,
                                  unsigned n_in, const std::uint64_t* in,
                                  bool retain,
                                  CompiledCircuit::RetainedCarry& carry,
                                  std::uint64_t& v, std::uint64_t& x) {
  std::uint64_t one = 0, unknown = 0, floating = 0, cont = 0;
  for (unsigned vec = 0; vec < (1u << n_in); ++vec) {
    std::uint64_t minterm = ~0ull;
    for (unsigned i = 0; i < n_in; ++i)
      minterm &= ((vec >> i) & 1u) != 0 ? in[i] : ~in[i];
    switch (fa.compiled_logic[vec]) {
      case 1: one |= minterm; break;
      case -1: unknown |= minterm; break;
      case -2: floating |= minterm; break;
      default: break;
    }
    if (((fa.compiled_contention >> vec) & 1u) != 0) cont |= minterm;
  }
  if (!retain) {
    unknown |= floating;
    floating = 0;
  }
  // After the step with shift s, a still-pending bit p has only floating
  // patterns in (p - 2s, p]; bits below the word count as floating, so a
  // run reaching bit 0 stays pending and takes the carry at the end.
  std::uint64_t pending = floating;
  for (unsigned s = 1; s < 64 && pending != 0; s <<= 1) {
    one |= (one << s) & pending;
    unknown |= (unknown << s) & pending;
    pending &= (pending << s) | ((1ull << s) - 1);
  }
  one |= carry.value ? pending : 0;
  unknown |= carry.x ? pending : 0;
  carry.value = (one >> 63) != 0;
  carry.x = (unknown >> 63) != 0;
  v = one;
  x = unknown;
  return cont;
}

/// Plane-wide retained-state transistor kernel: the faulted gate's
/// dual-rail output per word comes from retained_row, in pattern order so
/// the carry crosses word and strip boundaries, then propagates down the
/// shared fan-out cone (fault_cone) with eval_cell_dual.  X lanes live in
/// `x_scratch`, parallel to the value lanes of `lane_scratch`.  Writes,
/// per word, detect (some cone PO is binary and differs from good),
/// potential (some cone PO is X) and contention, all unmasked.
template <class V>
void eval_retained_planes_t(const CompiledCircuit& cc,
                            const std::uint64_t* good, std::size_t stride,
                            std::size_t n_words, int fault_gate,
                            const gates::FaultAnalysis& fa, bool retain,
                            CompiledCircuit::RetainedCarry& carry,
                            std::uint64_t* detect, std::uint64_t* potential,
                            std::uint64_t* contention,
                            std::vector<std::uint64_t>& lane_scratch,
                            std::vector<std::uint64_t>& x_scratch) {
  constexpr std::size_t kW = CompiledCircuit::kSimdWords;
  constexpr std::size_t kRow = kW * kConeGroups;  // lane words per net
  const auto& gates = cc.gates();
  const FaultCone fc = fault_cone(cc, fault_gate, lane_scratch);
  const std::size_t lanes_sz =
      static_cast<std::size_t>(cc.circuit().net_count()) * kRow;
  if (x_scratch.size() != lanes_sz) x_scratch.assign(lanes_sz, 0);
  std::uint64_t* const lv = fc.lanes;
  std::uint64_t* const xv = x_scratch.data();
  const CompiledCircuit::GateRec& fg = gates[cc.position_of(fault_gate)];
  const std::size_t fo = static_cast<std::size_t>(fg.out) * kRow;

  const auto strip = [&]<std::size_t NW>(std::size_t wg) {
    // Faulted gate, one word at a time.  Words past n_words belong to the
    // caller's next call (or are padding): they get a binary 0 and leave
    // the carry alone.
    for (std::size_t j = 0; j < NW * kW; ++j) {
      const std::size_t w = wg + j;
      std::uint64_t v = 0, x = 0;
      if (w < n_words) {
        const std::uint64_t in[3] = {
            good[static_cast<std::size_t>(fg.in[0]) * stride + w],
            good[static_cast<std::size_t>(fg.in[1]) * stride + w],
            good[static_cast<std::size_t>(fg.in[2]) * stride + w]};
        contention[w] = retained_row(fa, fg.n_in, in, retain, carry, v, x);
      }
      lv[fo + j] = v;
      xv[fo + j] = x;
    }

    // Cone walk in dual rail; pins outside the cone read the good planes
    // with a zero X plane.
    const V zero = V::splat(0);
    for (std::size_t idx = 0; idx < fc.gate_count; ++idx) {
      const std::uint64_t e = fc.gates[idx];
      const CompiledCircuit::GateRec& g = gates[e >> 3];
      const std::size_t n0 = static_cast<std::size_t>(g.in[0]);
      const std::size_t n1 = static_cast<std::size_t>(g.in[1]);
      const std::size_t n2 = static_cast<std::size_t>(g.in[2]);
      const bool l0 = (e & 1) != 0, l1 = (e & 2) != 0, l2 = (e & 4) != 0;
      for (std::size_t gi = 0; gi < NW; ++gi) {
        const std::size_t l = gi * kW;
        const V a = l0 ? V::load(lv + n0 * kRow + l)
                       : V::load(good + n0 * stride + wg + l);
        const V ax = l0 ? V::load(xv + n0 * kRow + l) : zero;
        const V b = l1 ? V::load(lv + n1 * kRow + l)
                       : V::load(good + n1 * stride + wg + l);
        const V bx = l1 ? V::load(xv + n1 * kRow + l) : zero;
        const V c = l2 ? V::load(lv + n2 * kRow + l)
                       : V::load(good + n2 * stride + wg + l);
        const V cx = l2 ? V::load(xv + n2 * kRow + l) : zero;
        V v, x;
        eval_cell_dual(g.kind, a, ax, b, bx, c, cx, v, x);
        const std::size_t o = static_cast<std::size_t>(g.out) * kRow + l;
        V::store(lv + o, v);
        V::store(xv + o, x);
      }
    }

    for (std::size_t gi = 0; gi < NW; ++gi) {
      const std::size_t l = gi * kW;
      V d = zero;
      V p = zero;
      for (std::size_t i = 0; i < fc.po_count; ++i) {
        const std::size_t n = static_cast<std::size_t>(fc.po_nets[i]);
        const V x = V::load(xv + n * kRow + l);
        d = d | ((V::load(lv + n * kRow + l) ^
                  V::load(good + n * stride + wg + l)) &
                 ~x);
        p = p | x;
      }
      store_clamped(detect, wg + l, n_words, d);
      store_clamped(potential, wg + l, n_words, p);
    }
  };

  for_each_strip(n_words, strip);
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
  const FaultCone fc = bridge_cone(cc, br.a, br.b, lane_scratch);
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

/// The five plane kernels of one backend, each with the signature of its
/// template above.  CompiledCircuit's eval_packed_* methods call through
/// the active backend's table, so adding or deleting a kernel is one
/// member here and one entry in kKernels.
struct KernelTable {
  using Scratch = std::vector<std::uint64_t>;
  void (*planes)(const CompiledCircuit&, std::uint64_t*, std::size_t);
  std::size_t (*line_batch)(const CompiledCircuit&, const std::uint64_t*,
                            std::size_t, std::size_t, const std::uint64_t*,
                            const CompiledCircuit::LineFault*, std::size_t,
                            std::uint64_t*, Scratch&);
  void (*faulty_planes)(const CompiledCircuit&, const std::uint64_t*,
                        std::size_t, std::size_t, int,
                        const gates::FaultAnalysis&, std::uint64_t*,
                        std::uint64_t*, Scratch&);
  void (*retained_planes)(const CompiledCircuit&, const std::uint64_t*,
                          std::size_t, std::size_t, int,
                          const gates::FaultAnalysis&, bool,
                          CompiledCircuit::RetainedCarry&, std::uint64_t*,
                          std::uint64_t*, std::uint64_t*, Scratch&, Scratch&);
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
    &eval_planes_t<V>, &eval_line_batch_t<V>, &eval_faulty_planes_t<V>,
    &eval_retained_planes_t<V>, &eval_bridge_planes_t<V>};

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
