// Shared evaluation context: everything about one (circuit, pattern set)
// pair that is independent of any particular fault, computed once and
// reused across the whole fault universe.  The seed hot loop re-simulated
// the good machine and re-packed patterns for *every single fault*
// (O(faults x patterns) good-machine work); an EvalContext makes that
// O(patterns): packed PI words and packed good-machine words per
// 64-pattern batch, the per-pattern scalar good SimResult sequence, and a
// memoized fault-dictionary cache.
//
// Ownership and lifetime rules:
//   * the circuit is held by reference and must outlive the context;
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
#include <vector>

#include "gates/dictionary_cache.hpp"
#include "logic/logic_sim.hpp"

namespace cpsinw::faults {

class EvalContext {
 public:
  /// One 64-pattern slice.  The good-machine words that used to live here
  /// (`net_words`) moved to the context-wide SoA planes (good_plane()):
  /// one contiguous row of words per net instead of one vector per batch,
  /// which is what the multi-word SIMD kernels walk.
  struct Batch {
    std::size_t base = 0;        ///< index of the first pattern
    std::size_t count = 0;       ///< patterns in this batch (<= 64)
    std::uint64_t active = 0;    ///< low `count` bits set
    std::vector<std::uint64_t> pi_words;   ///< per PI (pack_patterns order)
  };

  /// Builds the context: per-pattern scalar good simulation always; packed
  /// batches only when every pattern is fully specified (binary).  X-bearing
  /// pattern sets still work for the serial transistor paths — only the
  /// packed line/batch paths require packability.
  /// @param ckt finalized circuit; must outlive the context
  /// @param cache borrowed dictionary cache; nullptr selects global()
  EvalContext(const logic::Circuit& ckt, std::vector<logic::Pattern> patterns,
              gates::DictionaryCache* cache = nullptr);

  [[nodiscard]] const logic::Circuit& circuit() const { return *ckt_; }
  [[nodiscard]] const std::vector<logic::Pattern>& patterns() const {
    return patterns_;
  }
  [[nodiscard]] std::size_t pattern_count() const { return patterns_.size(); }

  /// True when every pattern is fully specified and the packed batches
  /// (and their good-machine planes) were built.
  [[nodiscard]] bool packed() const { return packed_; }
  [[nodiscard]] const std::vector<Batch>& batches() const { return batches_; }

  // ---- SoA bit-planes (built only when packed()) ---------------------------

  /// Pattern words (= batches().size()).
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
  /// Packed-PI plane base, same layout with one row per primary input.
  [[nodiscard]] const std::uint64_t* pi_planes() const {
    return pi_planes_.data();
  }
  /// Per pattern word: the valid-pattern mask (batches()[w].active).
  [[nodiscard]] const std::vector<std::uint64_t>& active_words() const {
    return active_words_;
  }

  /// Fault-free scalar simulation of pattern `index` (precomputed).
  [[nodiscard]] const logic::SimResult& good(std::size_t index) const {
    assert(index < good_.size());
    return good_[index];
  }

  /// Memoized switch-level dictionary of (kind, fault).
  [[nodiscard]] const gates::FaultAnalysis& dictionary(
      gates::CellKind kind, const gates::CellFault& fault) const {
    return cache_->lookup(kind, fault);
  }

  [[nodiscard]] gates::DictionaryCache& cache() const { return *cache_; }

  /// The circuit compilation the context's good machine was produced by
  /// (one compile per context; shared by every shard of a job).
  [[nodiscard]] const logic::CompiledCircuit& compiled() const {
    return sim_.compiled();
  }

 private:
  const logic::Circuit* ckt_;
  gates::DictionaryCache* cache_;
  std::vector<logic::Pattern> patterns_;
  logic::Simulator sim_;
  std::vector<logic::SimResult> good_;
  std::vector<Batch> batches_;
  std::size_t n_words_ = 0;
  std::size_t stride_ = 0;
  std::vector<std::uint64_t> pi_planes_;    ///< [pi][stride_] PI words
  std::vector<std::uint64_t> good_planes_;  ///< [net][stride_] good words
  std::vector<std::uint64_t> active_words_;
  bool packed_ = false;
};

}  // namespace cpsinw::faults
