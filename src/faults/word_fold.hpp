// Internal: the per-word record fold shared by the fault walks
// (fault_sim.cpp, bridge.cpp) with the bridge kernel's strip widths, and
// the one-gate steps of the faults that read observability rows: the local
// step of line faults, also the rows' fan-out-free links
// (eval_context.cpp), and the retained row of transistor faults
// (fault_sim.cpp).  Not installed API.
#pragma once

#include <cstddef>
#include <cstdint>

#include "faults/eval_context.hpp"
#include "faults/fault_sim.hpp"
#include "gates/cell.hpp"
#include "gates/fault_dictionary.hpp"
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

/// Faulted-output state threaded along the pattern axis from word to word
/// by retained_row: the (value, X) of the last pattern already evaluated.
/// The default, X, is the state before pattern 0.
struct RetainedCarry {
  bool value = false;
  bool x = true;
};

/// The faulted output of gate `g` under transistor dictionary `fa` over
/// pattern word `w`, bit-identical per pattern to
/// CompiledCircuit::eval_scalar_faulty threaded with its previous state.
/// The gate's local inputs are fault-free (single faulted gate, acyclic
/// circuit), so each pattern's row is a minterm of the good input words:
/// truth rows give 1, marginal rows X, floating rows the previous
/// pattern's faulted (value, X) when `retain` is set and X when not.  The
/// floating runs are filled forward by a log-step segmented scan; a run
/// with no earlier defined pattern in the word takes `carry`, which then
/// advances to the word's last pattern, so consecutive words in pattern
/// order thread the whole sequence.  Writes the canonical dual-rail output
/// to `v`/`x` (v = 0 wherever x = 1) and returns the contention (IDDQ
/// excitation) word.  Rows that output 0 and do not contend are skipped,
/// so a binary dictionary (no X, no floating row) costs one local_step.
inline std::uint64_t retained_row(const EvalContext& ctx,
                                  const logic::CompiledCircuit::GateRec& g,
                                  const gates::FaultAnalysis& fa, bool retain,
                                  std::size_t w, RetainedCarry& carry,
                                  std::uint64_t& v, std::uint64_t& x) {
  const std::uint64_t in[3] = {ctx.good_plane(g.in[0])[w],
                               ctx.good_plane(g.in[1])[w],
                               ctx.good_plane(g.in[2])[w]};
  std::uint64_t one = 0, unknown = 0, floating = 0, cont = 0;
  for (unsigned vec = 0; vec < (1u << g.n_in); ++vec) {
    const int out = fa.compiled_logic[vec];
    const bool contends = ((fa.compiled_contention >> vec) & 1u) != 0;
    if (out == 0 && !contends) continue;
    std::uint64_t minterm = ~0ull;
    for (unsigned i = 0; i < g.n_in; ++i)
      minterm &= ((vec >> i) & 1u) != 0 ? in[i] : ~in[i];
    switch (out) {
      case 1: one |= minterm; break;
      case -1: unknown |= minterm; break;
      case -2: floating |= minterm; break;
      default: break;
    }
    if (contends) cont |= minterm;
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

/// Strip widths of the bridge kernel's strip-mined walk, in pattern words:
/// the first strip is narrow (an early exit usually lands there),
/// survivors widen.
constexpr std::size_t kFirstStrip = logic::CompiledCircuit::kSimdWords;
constexpr std::size_t kWideStrip = 4 * logic::CompiledCircuit::kSimdWords;

/// Folds per-word detect, potential and contention words — of the bridge
/// kernel strip by strip, of line and transistor faults word by word — in
/// pattern order into a DetectionRecord under the serial
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
