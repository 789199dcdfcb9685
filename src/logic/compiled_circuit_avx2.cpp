// The AVX2 kernel table: the plane kernels instantiated over M256.  This
// is the only TU in the library compiled with -mavx2 (see the CPSINW_SIMD
// block in CMakeLists.txt); when the build disables or cannot use AVX2
// the macro is absent and the TU compiles empty.  kernels::table hands the
// table out only when the running CPU reports AVX2.
#if defined(CPSINW_SIMD_AVX2)

#include "logic/packed_kernels.hpp"

namespace cpsinw::logic::kernels {

constinit const KernelTable kAvx2Kernels = kKernels<M256>;

}  // namespace cpsinw::logic::kernels

#endif  // CPSINW_SIMD_AVX2
