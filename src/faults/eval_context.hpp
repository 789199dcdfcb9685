// Shared evaluation context: everything about one (circuit, pattern set)
// pair that is independent of any particular fault, computed once and
// reused across the whole fault universe.  The seed hot loop re-simulated
// the good machine and re-packed patterns for *every single fault*
// (O(faults x patterns) good-machine work); an EvalContext makes that
// O(patterns).  It holds the good machine once: as SoA bit planes when
// every pattern is fully specified (packed()), as per-pattern scalar
// SimResults otherwise; plus a memoized fault-dictionary cache.
//
// Ownership and lifetime rules:
//   * the circuit is held by reference and must outlive the context;
//   * the circuit compilation is owned (the Circuit constructor compiles)
//     or borrowed (the CompiledCircuit constructor) and then must outlive
//     the context, so a job compiles once and its other contexts borrow;
//   * the pattern set is owned (copied/moved in), so a context can be
//     shared across shards and threads without aliasing the builder's
//     buffers;
//   * the context is immutable after construction — concurrent readers
//     need no synchronization;
//   * the dictionary cache is borrowed (default: the process-wide
//     gates::DictionaryCache::global()) and must outlive the context.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "gates/dictionary_cache.hpp"
#include "logic/logic_sim.hpp"

namespace cpsinw::faults {

class EvalContext {
 public:
  /// Compiles the circuit (the context owns that compile) and builds the
  /// good machine: SoA planes when every pattern is fully specified
  /// (binary), per-pattern scalar results otherwise.  Only the line-fault
  /// path requires packability.
  /// @param ckt finalized circuit; must outlive the context
  /// @param cache borrowed dictionary cache; nullptr selects global()
  /// @throws std::invalid_argument for an unfinalized circuit or a pattern
  ///   whose length is not the circuit's primary-input count
  EvalContext(const logic::Circuit& ckt, std::vector<logic::Pattern> patterns,
              gates::DictionaryCache* cache = nullptr);

  /// As above over a borrowed compilation of `compiled.circuit()`: builds
  /// the good machine without compiling the circuit again.
  /// @param compiled borrowed; must outlive the context
  /// @throws std::invalid_argument for a pattern of the wrong length
  EvalContext(const logic::CompiledCircuit& compiled,
              std::vector<logic::Pattern> patterns,
              gates::DictionaryCache* cache = nullptr);

  [[nodiscard]] const logic::Circuit& circuit() const {
    return cc_->circuit();
  }
  [[nodiscard]] const std::vector<logic::Pattern>& patterns() const {
    return patterns_;
  }
  [[nodiscard]] std::size_t pattern_count() const { return patterns_.size(); }

  /// True when every pattern is fully specified and the good machine was
  /// built as SoA bit planes (false: as per-pattern scalar results).
  [[nodiscard]] bool packed() const { return packed_; }

  // ---- SoA bit-planes (built only when packed()) ---------------------------

  /// Pattern words: ceil(pattern_count() / 64) (0 when !packed()).
  [[nodiscard]] std::size_t word_count() const { return n_words_; }
  /// Row stride of the plane buffers, in words: word_count() padded to a
  /// multiple of CompiledCircuit::kSimdWords (padding words are computed
  /// but masked off by active_words()).
  [[nodiscard]] std::size_t plane_stride() const { return stride_; }
  /// Good-machine plane base: word `w` of net `n` is
  /// good_planes()[n * plane_stride() + w].
  [[nodiscard]] const std::uint64_t* good_planes() const {
    return good_planes_.data();
  }
  /// Row of good-machine words for one net.
  [[nodiscard]] const std::uint64_t* good_plane(logic::NetId net) const {
    return good_planes_.data() + static_cast<std::size_t>(net) * stride_;
  }
  /// Per pattern word `w`: the valid-pattern mask (bit k set when pattern
  /// 64 * w + k exists).
  [[nodiscard]] const std::vector<std::uint64_t>& active_words() const {
    return active_words_;
  }

  /// Fault-free value of `net` under pattern `pattern`: a plane bit on
  /// packed contexts, the scalar result otherwise.
  [[nodiscard]] logic::LogicV good_value(std::size_t pattern,
                                         logic::NetId net) const {
    assert(pattern < patterns_.size());
    assert(net >= 0 && net < circuit().net_count());
    if (!packed_) return good_[pattern].value(net);
    const std::uint64_t word = good_plane(net)[pattern / 64];
    return logic::from_bool(((word >> (pattern % 64)) & 1u) != 0);
  }

  /// Fault-free scalar simulation of pattern `index`.  X-bearing contexts
  /// only (!packed()): a packed context keeps its good machine in the
  /// planes alone.
  [[nodiscard]] const logic::SimResult& good(std::size_t index) const {
    assert(!packed_);
    assert(index < good_.size());
    return good_[index];
  }

  /// Memoized switch-level dictionary of (kind, fault).
  [[nodiscard]] const gates::FaultAnalysis& dictionary(
      gates::CellKind kind, const gates::CellFault& fault) const {
    return cache_->lookup(kind, fault);
  }

  [[nodiscard]] gates::DictionaryCache& cache() const { return *cache_; }

  /// The compilation, owned or borrowed, that built the good machine and
  /// that every fault walk over the context reads.
  [[nodiscard]] const logic::CompiledCircuit& compiled() const { return *cc_; }

 private:
  /// The body both constructors share: validates the patterns and builds
  /// the good machine off *cc_.
  void build();

  gates::DictionaryCache* cache_;
  std::vector<logic::Pattern> patterns_;
  std::unique_ptr<const logic::CompiledCircuit> owned_;  ///< null: borrowed
  const logic::CompiledCircuit* cc_;
  std::vector<logic::SimResult> good_;  ///< X-bearing contexts only
  std::size_t n_words_ = 0;
  std::size_t stride_ = 0;
  std::vector<std::uint64_t> good_planes_;  ///< [net][stride_] good words
  std::vector<std::uint64_t> active_words_;
  bool packed_ = false;
};

}  // namespace cpsinw::faults
