// The AVX-512VL kernel table.  Same M256 planes as the AVX2 table (so
// plane layout, batch lanes, and strip logic are untouched), but every
// gate evaluation lowers to one VPTERNLOGQ — the 3-input truth-table
// instruction — instead of the 2–5 bitwise ops the generic template
// needs (maj3 alone is five).  This is the only TU compiled with
// -mavx512f -mavx512vl (see the CPSINW_SIMD block in CMakeLists.txt);
// when the build disables or cannot use AVX-512 the macro is absent and
// the TU compiles empty.  kernels::table hands the table out only when
// the running CPU reports AVX512F + AVX512VL.
#if defined(CPSINW_SIMD_AVX512)

#include "logic/packed_kernels.hpp"

namespace cpsinw::logic::kernels {

namespace {

/// One VPTERNLOGQ per gate: imm8 bit ((a<<2)|(b<<1)|c) is the cell's
/// output for that input combination — the same truth tables the
/// interpreted evaluator collapses to on binary planes, so this stays
/// bit-identical to every other backend by construction.  Declared in
/// M256's namespace before the table, so argument-dependent lookup in the
/// kernel templates finds it and prefers it to the generic template.
inline M256 eval_cell_vec(gates::CellKind kind, const M256& a, const M256& b,
                          const M256& c) {
  using gates::CellKind;
  switch (kind) {
    case CellKind::kInv:
      return M256{_mm256_ternarylogic_epi64(a.v, b.v, c.v, 0x0F)};
    case CellKind::kBuf:
      return M256{_mm256_ternarylogic_epi64(a.v, b.v, c.v, 0xF0)};
    case CellKind::kNand2:
      return M256{_mm256_ternarylogic_epi64(a.v, b.v, c.v, 0x3F)};
    case CellKind::kNor2:
      return M256{_mm256_ternarylogic_epi64(a.v, b.v, c.v, 0x03)};
    case CellKind::kXor2:
      return M256{_mm256_ternarylogic_epi64(a.v, b.v, c.v, 0x3C)};
    case CellKind::kXor3:
      return M256{_mm256_ternarylogic_epi64(a.v, b.v, c.v, 0x96)};
    case CellKind::kMaj3:
      return M256{_mm256_ternarylogic_epi64(a.v, b.v, c.v, 0xE8)};
  }
  return M256::splat(0);
}

}  // namespace

constinit const KernelTable kAvx512Kernels = kKernels<M256>;

}  // namespace cpsinw::logic::kernels

#endif  // CPSINW_SIMD_AVX512
