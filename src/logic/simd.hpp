// SIMD backend selection for the packed evaluation kernels.
//
// Each backend is one kernels::KernelTable of the plane kernels in
// logic/packed_kernels.hpp, instantiated over its 4x64-bit vector type:
//
//   * kPortable — a plain `struct { uint64_t w[4]; }` the compiler
//     auto-vectorizes as far as the baseline ISA allows.  Always built,
//     always correct, and the bit-identical reference the SIMD tables are
//     pinned against.
//   * kAvx2 — the M256 (__m256i) table of logic/compiled_circuit_avx2.cpp,
//     the only TU built with -mavx2; supported when the compiler accepts
//     the flag on x86-64 and the running CPU reports AVX2.
//   * kAvx512 — the same M256 planes (so plane layout and batch shape are
//     identical), but every gate evaluation is one VPTERNLOGQ 3-input
//     truth-table instruction (logic/compiled_circuit_avx512.cpp, the only
//     TU built with -mavx512f -mavx512vl); supported when the running CPU
//     reports AVX512F + AVX512VL.
//   * kNeon — the uint64x2_t-pair table on aarch64 (NEON is baseline
//     there, no flag or runtime probe needed).
//
// Build-time control: configure with -DCPSINW_SIMD=off to support the
// portable backend only (the CI `simd-off` leg); `auto` (default)
// compiles whatever the toolchain supports and dispatches at runtime.
// Run-time control: force_portable(true) pins the portable backend from
// code — the bench and the bit-identity tests use it to compare backends
// inside one process.
#pragma once

namespace cpsinw::logic::simd {

enum class Backend {
  kPortable,
  kAvx2,
  kAvx512,
  kNeon,
};

/// Whether this build and this CPU can run backend `b`, i.e. whether
/// kernels::table(b), the one list of backends, hands out a table:
/// portable always; AVX2 and AVX-512 when their TU is compiled in and the
/// CPU reports the extensions; NEON on aarch64 unless the build sets
/// CPSINW_SIMD_OFF.
[[nodiscard]] bool supported(Backend b);

/// The widest supported backend, in the order AVX-512, AVX2, NEON,
/// portable (ignores the force_portable override; cached after the first
/// call).
[[nodiscard]] Backend compiled_backend();

/// The backend the kernels will actually dispatch to right now:
/// compiled_backend(), unless force_portable(true) is in effect.
[[nodiscard]] Backend active_backend();

/// Short stable name for reports/telemetry: "portable", "avx2",
/// "avx512", "neon".
[[nodiscard]] const char* backend_name(Backend b);

/// Pins every subsequent kernel dispatch to the portable backend (process
/// wide).  Test/bench hook — the kernels are bit-identical across
/// backends, so flipping this mid-run changes speed, never results.
void force_portable(bool on);

}  // namespace cpsinw::logic::simd
