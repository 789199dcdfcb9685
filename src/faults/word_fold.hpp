// Internal: the strip widths and the per-word record fold shared by the
// plane-kernel fault walks (fault_sim.cpp, bridge.cpp), and the one-gate
// local step shared by the faults that read observability rows
// (fault_sim.cpp) and the rows' fan-out-free links (eval_context.cpp).
// Not installed API.
#pragma once

#include <cstddef>
#include <cstdint>

#include "faults/eval_context.hpp"
#include "faults/fault_sim.hpp"
#include "gates/cell.hpp"
#include "logic/compiled_circuit.hpp"

namespace cpsinw::faults {

/// The good truth table of `g`'s cell with its local input vector remapped
/// by `remap`: bit v is gates::good_output at remap(v) (bit i of a vector
/// is pin i).  A branch stuck-at forces one pin, a fan-out-free link
/// inverts one.
template <class Remap>
unsigned substituted_truth(const logic::CompiledCircuit::GateRec& g,
                           const Remap& remap) {
  unsigned truth = 0;
  for (unsigned v = 0; v < (1u << g.n_in); ++v)
    truth |= static_cast<unsigned>(gates::good_output(g.kind, remap(v))) << v;
  return truth;
}

/// The local step at gate `g` over pattern word `w`: g's cell replaced by
/// the truth table `truth` (bit v: output at local input vector v),
/// minterm-expanded over the good input words and XORed with the good
/// output, so bit k is set where the substitution flips g's output under
/// pattern 64 * w + k.  The rows of `contention` (a dictionary's IDDQ
/// rows; 0 for line faults and links) expand the same way into `cont`.
inline std::uint64_t local_step(const EvalContext& ctx,
                                const logic::CompiledCircuit::GateRec& g,
                                unsigned truth, unsigned contention,
                                std::size_t w, std::uint64_t& cont) {
  const std::uint64_t in[3] = {ctx.good_plane(g.in[0])[w],
                               ctx.good_plane(g.in[1])[w],
                               ctx.good_plane(g.in[2])[w]};
  const unsigned rows = truth | contention;
  std::uint64_t out = 0;
  cont = 0;
  for (unsigned v = 0; v < (1u << g.n_in); ++v) {
    if (((rows >> v) & 1u) == 0) continue;
    std::uint64_t minterm = ~0ull;
    for (unsigned i = 0; i < g.n_in; ++i)
      minterm &= ((v >> i) & 1u) != 0 ? in[i] : ~in[i];
    if (((truth >> v) & 1u) != 0) out |= minterm;
    if (((contention >> v) & 1u) != 0) cont |= minterm;
  }
  return out ^ ctx.good_plane(g.out)[w];
}

/// Strip widths of the strip-mined fault walks, in pattern words: the
/// first strip is narrow (an early exit usually lands there), survivors
/// widen.
constexpr std::size_t kFirstStrip = logic::CompiledCircuit::kSimdWords;
constexpr std::size_t kWideStrip = 4 * logic::CompiledCircuit::kSimdWords;

/// Folds per-word detect, potential and contention words — of the
/// retained and bridge kernels strip by strip, of the row-reading faults
/// word by word — in pattern order into a DetectionRecord under the serial
/// paths' rules: first_pattern is the first counted hit (a PO flip, or an
/// IDDQ excitation when observed), and in first-only mode the word holding
/// it counts only up to and including the hit bit, for every flag —
/// exactly the prefix the serial path sees before its break.
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
