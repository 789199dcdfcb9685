// AVX2 instantiations of the SoA plane kernels.  This is the only TU in
// the library compiled with -mavx2 (see the CPSINW_SIMD block in
// CMakeLists.txt); when the build disables or cannot use AVX2 the macro is
// absent and the TU compiles empty.  The entry points are reached only
// after simd::active_backend() confirmed the running CPU has AVX2.
#if defined(CPSINW_SIMD_AVX2)

#include <immintrin.h>

#include "logic/packed_kernels.hpp"

namespace cpsinw::logic::kernels {

namespace {

/// __m256i wrapper satisfying the packed-kernel vector concept.  Lane
/// access goes through memory (the intrinsics want immediate indices);
/// it only appears at fault-injection events and result extraction.
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

void eval_planes_avx2(const CompiledCircuit& cc, std::uint64_t* planes,
                      std::size_t stride) {
  eval_planes_t<M256>(cc, planes, stride);
}

std::size_t eval_line_batch_avx2(const CompiledCircuit& cc,
                                 const std::uint64_t* good, std::size_t stride,
                                 std::size_t n_words,
                                 const std::uint64_t* active,
                                 const CompiledCircuit::LineFault* faults,
                                 std::size_t n_faults, std::uint64_t* det,
                                 std::vector<std::uint64_t>& lane_scratch) {
  return eval_line_batch_t<M256>(cc, good, stride, n_words, active, faults,
                                 n_faults, det, lane_scratch);
}

void eval_faulty_planes_avx2(const CompiledCircuit& cc,
                             const std::uint64_t* good, std::size_t stride,
                             std::size_t n_words, int fault_gate,
                             const gates::FaultAnalysis& fa,
                             std::uint64_t* diff, std::uint64_t* contention,
                             std::vector<std::uint64_t>& lane_scratch) {
  eval_faulty_planes_t<M256>(cc, good, stride, n_words, fault_gate, fa, diff,
                             contention, lane_scratch);
}

void eval_retained_planes_avx2(
    const CompiledCircuit& cc, const std::uint64_t* good, std::size_t stride,
    std::size_t n_words, int fault_gate, const gates::FaultAnalysis& fa,
    bool retain, CompiledCircuit::RetainedCarry& carry, std::uint64_t* detect,
    std::uint64_t* potential, std::uint64_t* contention,
    std::vector<std::uint64_t>& lane_scratch,
    std::vector<std::uint64_t>& x_scratch) {
  eval_retained_planes_t<M256>(cc, good, stride, n_words, fault_gate, fa,
                               retain, carry, detect, potential, contention,
                               lane_scratch, x_scratch);
}

void eval_bridge_planes_avx2(const CompiledCircuit& cc,
                             const std::uint64_t* good, std::size_t stride,
                             std::size_t n_words,
                             const CompiledCircuit::Bridge& bridge,
                             std::uint64_t* detect, std::uint64_t* contention,
                             std::vector<std::uint64_t>& lane_scratch,
                             std::vector<std::uint64_t>& n1_scratch) {
  eval_bridge_planes_t<M256>(cc, good, stride, n_words, bridge, detect,
                             contention, lane_scratch, n1_scratch);
}

}  // namespace cpsinw::logic::kernels

#endif  // CPSINW_SIMD_AVX2
