// Internal: the strip widths and the per-word record fold shared by the
// plane-kernel fault walks (fault_sim.cpp for transistor faults,
// bridge.cpp for bridges).  Not installed API.
#pragma once

#include <cstddef>
#include <cstdint>

#include "faults/fault_sim.hpp"
#include "logic/compiled_circuit.hpp"

namespace cpsinw::faults {

/// Strip widths of the strip-mined fault walks, in pattern words: the
/// first strip is narrow (an early exit usually lands there), survivors
/// widen.
constexpr std::size_t kFirstStrip = logic::CompiledCircuit::kSimdWords;
constexpr std::size_t kWideStrip = 4 * logic::CompiledCircuit::kSimdWords;

/// Folds the per-word outputs of the transistor and bridge plane kernels,
/// strip by strip in pattern order, into a DetectionRecord under the
/// serial paths' rules: first_pattern is the first counted hit (a PO flip, or an IDDQ
/// excitation when observed), and in first-only mode the word holding it
/// counts only up to and including the hit bit, for every flag — exactly
/// the prefix the serial path sees before its break.
struct WordFold {
  bool observe_iddq;
  bool first_only;
  int first_pattern = -1;
  std::uint64_t any_d = 0;
  std::uint64_t any_p = 0;
  std::uint64_t any_c = 0;

  /// Folds words [w0, w0 + nw) (the kernel outputs are indexed from w0;
  /// `potential` may be null).  @returns true once a first-only run has
  /// folded its hit: no later word may count.
  bool fold(std::size_t w0, std::size_t nw, const std::uint64_t* detect,
            const std::uint64_t* potential, const std::uint64_t* contention,
            const std::uint64_t* active) {
    for (std::size_t w = 0; w < nw; ++w) {
      const std::uint64_t act = active[w0 + w];
      const std::uint64_t d = detect[w] & act;
      const std::uint64_t p = potential != nullptr ? potential[w] & act : 0;
      const std::uint64_t c = contention[w] & act;
      const std::uint64_t hit = d | (observe_iddq ? c : 0);
      if (first_pattern < 0 && hit != 0) {
        const int b = __builtin_ctzll(hit);
        first_pattern = static_cast<int>((w0 + w) * 64) + b;
        if (first_only) {
          const std::uint64_t mask = b == 63 ? ~0ull : ((1ull << (b + 1)) - 1);
          any_d |= d & mask;
          any_p |= p & mask;
          any_c |= c & mask;
          return true;
        }
      }
      any_d |= d;
      any_p |= p;
      any_c |= c;
    }
    return false;
  }

  [[nodiscard]] DetectionRecord record() const {
    DetectionRecord rec;
    rec.detected_output = any_d != 0;
    rec.detected_iddq = observe_iddq && any_c != 0;
    rec.potential = any_p != 0;
    rec.first_pattern = first_pattern;
    return rec;
  }
};

}  // namespace cpsinw::faults
