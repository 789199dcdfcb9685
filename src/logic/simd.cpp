#include "logic/simd.hpp"

#include <atomic>

#include "logic/packed_kernels.hpp"

namespace cpsinw::logic::simd {

namespace {

std::atomic<bool> g_force_portable{false};

}  // namespace

bool supported(Backend b) { return kernels::table(b) != nullptr; }

Backend compiled_backend() {
  static const Backend widest = [] {
    for (const Backend b : {Backend::kAvx512, Backend::kAvx2, Backend::kNeon})
      if (supported(b)) return b;
    return Backend::kPortable;
  }();
  return widest;
}

Backend active_backend() {
  return g_force_portable.load(std::memory_order_relaxed)
             ? Backend::kPortable
             : compiled_backend();
}

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kPortable:
      return "portable";
    case Backend::kAvx2:
      return "avx2";
    case Backend::kAvx512:
      return "avx512";
    case Backend::kNeon:
      return "neon";
  }
  return "portable";
}

void force_portable(bool on) {
  g_force_portable.store(on, std::memory_order_relaxed);
}

}  // namespace cpsinw::logic::simd
