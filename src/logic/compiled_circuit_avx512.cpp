// AVX-512VL instantiations of the SoA plane kernels.  Same 256-bit shape
// as the AVX2 TU (so plane layout, batch lanes, and strip logic are
// untouched), but every gate evaluation lowers to one VPTERNLOGQ — the
// 3-input truth-table instruction — instead of the 2–5 bitwise ops the
// generic template needs (maj3 alone is five).  This is the only TU
// compiled with -mavx512f -mavx512vl (see the CPSINW_SIMD block in
// CMakeLists.txt); when the build disables or cannot use AVX-512 the
// macro is absent and the TU compiles empty.  The entry points are
// reached only after simd::active_backend() confirmed the running CPU
// has AVX512F + AVX512VL.
#if defined(CPSINW_SIMD_AVX512)

#include <immintrin.h>

#include "logic/packed_kernels.hpp"

namespace cpsinw::logic::kernels {

namespace {

/// __m256i wrapper satisfying the packed-kernel vector concept; identical
/// to the AVX2 wrapper except that eval_cell_vec is overloaded below to
/// use ternary-logic instructions.
struct M256T {
  __m256i v;

  static M256T load(const std::uint64_t* p) {
    return M256T{_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))};
  }
  static void store(std::uint64_t* p, const M256T& x) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), x.v);
  }
  static M256T splat(std::uint64_t x) {
    return M256T{_mm256_set1_epi64x(static_cast<long long>(x))};
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

  friend M256T operator&(const M256T& a, const M256T& b) {
    return M256T{_mm256_and_si256(a.v, b.v)};
  }
  friend M256T operator|(const M256T& a, const M256T& b) {
    return M256T{_mm256_or_si256(a.v, b.v)};
  }
  friend M256T operator^(const M256T& a, const M256T& b) {
    return M256T{_mm256_xor_si256(a.v, b.v)};
  }
  friend M256T operator~(const M256T& a) {
    return M256T{_mm256_xor_si256(a.v, _mm256_set1_epi64x(-1))};
  }
};

/// One VPTERNLOGQ per gate: imm8 bit ((a<<2)|(b<<1)|c) is the cell's
/// output for that input combination — the same truth tables the
/// interpreted evaluator collapses to on binary planes, so this stays
/// bit-identical to every other backend by construction.
inline M256T eval_cell_vec(gates::CellKind kind, const M256T& a,
                           const M256T& b, const M256T& c) {
  using gates::CellKind;
  switch (kind) {
    case CellKind::kInv:
      return M256T{_mm256_ternarylogic_epi64(a.v, b.v, c.v, 0x0F)};
    case CellKind::kBuf:
      return M256T{_mm256_ternarylogic_epi64(a.v, b.v, c.v, 0xF0)};
    case CellKind::kNand2:
      return M256T{_mm256_ternarylogic_epi64(a.v, b.v, c.v, 0x3F)};
    case CellKind::kNor2:
      return M256T{_mm256_ternarylogic_epi64(a.v, b.v, c.v, 0x03)};
    case CellKind::kXor2:
      return M256T{_mm256_ternarylogic_epi64(a.v, b.v, c.v, 0x3C)};
    case CellKind::kXor3:
      return M256T{_mm256_ternarylogic_epi64(a.v, b.v, c.v, 0x96)};
    case CellKind::kMaj3:
      return M256T{_mm256_ternarylogic_epi64(a.v, b.v, c.v, 0xE8)};
  }
  return M256T::splat(0);
}

}  // namespace

void eval_planes_avx512(const CompiledCircuit& cc, std::uint64_t* planes,
                        std::size_t stride) {
  eval_planes_t<M256T>(cc, planes, stride);
}

std::size_t eval_line_batch_avx512(
    const CompiledCircuit& cc, const std::uint64_t* good, std::size_t stride,
    std::size_t n_words, const std::uint64_t* active,
    const CompiledCircuit::LineFault* faults, std::size_t n_faults,
    std::uint64_t* det, std::vector<std::uint64_t>& lane_scratch) {
  return eval_line_batch_t<M256T>(cc, good, stride, n_words, active, faults,
                                  n_faults, det, lane_scratch);
}

void eval_faulty_planes_avx512(const CompiledCircuit& cc,
                               const std::uint64_t* good, std::size_t stride,
                               std::size_t n_words, int fault_gate,
                               const gates::FaultAnalysis& fa,
                               std::uint64_t* diff, std::uint64_t* contention,
                               std::vector<std::uint64_t>& lane_scratch) {
  eval_faulty_planes_t<M256T>(cc, good, stride, n_words, fault_gate, fa, diff,
                              contention, lane_scratch);
}

void eval_retained_planes_avx512(
    const CompiledCircuit& cc, const std::uint64_t* good, std::size_t stride,
    std::size_t n_words, int fault_gate, const gates::FaultAnalysis& fa,
    bool retain, CompiledCircuit::RetainedCarry& carry, std::uint64_t* detect,
    std::uint64_t* potential, std::uint64_t* contention,
    std::vector<std::uint64_t>& lane_scratch,
    std::vector<std::uint64_t>& x_scratch) {
  eval_retained_planes_t<M256T>(cc, good, stride, n_words, fault_gate, fa,
                                retain, carry, detect, potential, contention,
                                lane_scratch, x_scratch);
}

void eval_bridge_planes_avx512(
    const CompiledCircuit& cc, const std::uint64_t* good, std::size_t stride,
    std::size_t n_words, const CompiledCircuit::Bridge& bridge,
    std::uint64_t* detect, std::uint64_t* contention,
    std::vector<std::uint64_t>& lane_scratch,
    std::vector<std::uint64_t>& n1_scratch) {
  eval_bridge_planes_t<M256T>(cc, good, stride, n_words, bridge, detect,
                              contention, lane_scratch, n1_scratch);
}

}  // namespace cpsinw::logic::kernels

#endif  // CPSINW_SIMD_AVX512
