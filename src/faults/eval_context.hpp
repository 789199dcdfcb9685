// Shared evaluation context: everything about one (circuit, pattern set)
// pair that is independent of any particular fault, computed once and
// reused across the whole fault universe.  The seed hot loop re-simulated
// the good machine and re-packed patterns for *every single fault*
// (O(faults x patterns) good-machine work); an EvalContext makes that
// O(patterns).  It holds the good machine once: as SoA bit planes when
// every pattern is fully specified (packed()), as per-pattern scalar
// SimResults otherwise; and, on packed contexts, the per-net
// observability rows every fault that changes one net shares: where a
// flip of the net reaches a PO (obs_row) and where an X on it reaches a
// PO as X (xobs_row).
//
// Ownership and lifetime rules:
//   * the circuit is held by reference and must outlive the context;
//   * the circuit compilation is owned (the Circuit constructor compiles)
//     or borrowed (the CompiledCircuit constructor) and then must outlive
//     the context, so a job compiles once and its other contexts borrow;
//   * the pattern set is owned (copied/moved in), so a context can be
//     shared across shards and threads without aliasing the builder's
//     buffers;
//   * the good machine is immutable after construction — concurrent
//     readers need no synchronization;
//   * the observability rows are a memo, logically const: each row is a
//     pure function of the compile and the good planes, filled once, on
//     first request, under a lock of its kind, and never written again,
//     so any thread may ask for any row at any time and every thread sees
//     the same words.  Each kind's buffer is allocated on
//     the first request for a row of that kind: a context no fault asks a
//     row of pays nothing for it, and one whose faults never put an X on a
//     net (line faults, binary dictionaries) never allocates an X row;
//   * the context holds no dictionaries: every fault reads the library's
//     one table, gates::dictionary(), which lives as long as the process.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "gates/fault_dictionary.hpp"
#include "logic/logic_sim.hpp"

namespace cpsinw::faults {

class EvalContext {
 public:
  /// Compiles the circuit (the context owns that compile) and builds the
  /// good machine: SoA planes when every pattern is fully specified
  /// (binary), per-pattern scalar results otherwise.  Only the line-fault
  /// path requires packability.
  /// @param ckt finalized circuit; must outlive the context
  /// @throws std::invalid_argument for an unfinalized circuit or a pattern
  ///   whose length is not the circuit's primary-input count
  EvalContext(const logic::Circuit& ckt, std::vector<logic::Pattern> patterns);

  /// As above over a borrowed compilation of `compiled.circuit()`: builds
  /// the good machine without compiling the circuit again.
  /// @param compiled borrowed; must outlive the context
  /// @throws std::invalid_argument for a pattern of the wrong length
  EvalContext(const logic::CompiledCircuit& compiled,
              std::vector<logic::Pattern> patterns);

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

  /// gates::dictionary(kind, fault), for callers that hold a context.
  [[nodiscard]] const gates::FaultAnalysis& dictionary(
      gates::CellKind kind, const gates::CellFault& fault) const {
    return gates::dictionary(kind, fault);
  }

  /// The compilation, owned or borrowed, that built the good machine and
  /// that every fault walk over the context reads.
  [[nodiscard]] const logic::CompiledCircuit& compiled() const { return *cc_; }

  // ---- Observability rows (packed contexts only) ---------------------------

  /// Observability row of `net`, plane_stride() words: bit k of word w is
  /// set when flipping the net under pattern 64 * w + k flips some primary
  /// output (words past word_count() and bits past the last pattern are
  /// not meaningful — mask with active_words()).  Every fault that changes
  /// only this net shares the row.  A PO's row is all ones; a net nothing
  /// reads is all zeros; a net read by exactly one pin (g, p) takes
  /// sens(g, p) & obs(g's output), where sens marks the patterns in which
  /// flipping that pin flips g's output; a stem — a non-PO net with two or
  /// more reader pins, on one gate or several — takes one
  /// CompiledCircuit::eval_packed_stem_planes walk.  Rows are filled on
  /// first request, each once, from any thread (see the ownership rules
  /// above); a chain of single-reader nets is filled iteratively from its
  /// far end, so no chain depth can exhaust the stack.
  /// @param lane_scratch the caller's stem-walk scratch (lanes, marks and
  ///   the event bitmap of the walks); only a stem fill touches it
  [[nodiscard]] const std::uint64_t* obs_row(
      logic::NetId net, std::vector<std::uint64_t>& lane_scratch) const;

  /// X observability row of `net`, laid out and masked like obs_row: bit k
  /// of word w is set when an X on the net under pattern 64 * w + k
  /// reaches some primary output as X.  A transistor fault whose output
  /// goes X (a marginal row, or a floating row with nothing to retain)
  /// reads it.  Same recurrence as obs_row: a PO's row is all ones, a net
  /// nothing reads is all zeros, a net read by exactly one pin (g, p)
  /// takes sens(g, p) & xobs(g's output) (one X pin among binary ones
  /// makes g's output X exactly where flipping the pin flips it), and a
  /// stem takes one CompiledCircuit::eval_packed_stem_x_planes walk.
  [[nodiscard]] const std::uint64_t* xobs_row(
      logic::NetId net, std::vector<std::uint64_t>& lane_scratch) const;

  /// Stem walks this context has run to fill its binary rows: each stem is
  /// walked at most once per context, whichever thread asks first.
  [[nodiscard]] std::uint64_t stem_walks() const {
    return rows_ ? rows_->obs.walks.load(std::memory_order_relaxed) : 0;
  }

  /// X walks this context has run to fill its X rows, at most one per stem.
  [[nodiscard]] std::uint64_t x_walks() const {
    return rows_ ? rows_->xobs.walks.load(std::memory_order_relaxed) : 0;
  }

  /// Gate evaluations of the stem walks behind the binary rows, summed
  /// over walks and strips: the gates each flip reached.
  [[nodiscard]] std::uint64_t stem_gates() const {
    return rows_ ? rows_->obs.gates.load(std::memory_order_relaxed) : 0;
  }

  /// Gate evaluations of the X walks behind the X rows: the gates each X
  /// reached.
  [[nodiscard]] std::uint64_t x_gates() const {
    return rows_ ? rows_->xobs.gates.load(std::memory_order_relaxed) : 0;
  }

  /// Bytes of row storage allocated so far, both kinds (0 until a row is
  /// first requested; an X-free context never adds the X kind's).
  [[nodiscard]] std::size_t row_bytes() const {
    if (!rows_) return 0;
    const std::size_t kinds = (rows_->obs.allocated.load() ? 1 : 0) +
                              (rows_->xobs.allocated.load() ? 1 : 0);
    return kinds * static_cast<std::size_t>(circuit().net_count()) *
           stride_ * sizeof(std::uint64_t);
  }

 private:
  /// The body both constructors share: validates the patterns and builds
  /// the good machine off *cc_.
  void build();

  /// One kind of observability row (packed contexts only).  `rows`,
  /// `ready` and `fill_locks` are allocated under `alloc_lock` on the first
  /// request for a row of this kind; row n is written once under
  /// fill_locks[n % kFillLocks], and ready[n] publishes it to every later
  /// request, which then takes no lock.
  struct RowMemo {
    static constexpr std::size_t kFillLocks = 64;
    std::mutex alloc_lock;
    std::atomic<bool> allocated{false};
    std::unique_ptr<std::uint64_t[]> rows;  ///< [net][stride_]
    std::unique_ptr<std::atomic<bool>[]> ready;  ///< per net
    std::unique_ptr<std::mutex[]> fill_locks;
    std::atomic<std::uint64_t> walks{0};
    std::atomic<std::uint64_t> gates{0};  ///< gate evaluations of the walks
  };
  /// Both kinds behind one allocation: binary rows (obs_row) and X rows
  /// (xobs_row).
  struct RowMemos {
    RowMemo obs;
    RowMemo xobs;
  };

  /// obs_row and xobs_row over `memo`, whose stems walk in X when `x`.
  const std::uint64_t* row(RowMemo& memo, bool x, logic::NetId net,
                           std::vector<std::uint64_t>& lane_scratch) const;

  /// Writes row `net` of `memo`, whose successor on its chain (if it has
  /// one) is ready: the PO, readerless, single-reader and stem cases.
  void fill_row(RowMemo& memo, bool x, logic::NetId net,
                std::vector<std::uint64_t>& lane_scratch) const;

  std::vector<logic::Pattern> patterns_;
  std::unique_ptr<const logic::CompiledCircuit> owned_;  ///< null: borrowed
  const logic::CompiledCircuit* cc_;
  std::vector<logic::SimResult> good_;  ///< X-bearing contexts only
  std::size_t n_words_ = 0;
  std::size_t stride_ = 0;
  std::vector<std::uint64_t> good_planes_;  ///< [net][stride_] good words
  std::vector<std::uint64_t> active_words_;
  bool packed_ = false;
  std::unique_ptr<RowMemos> rows_;  ///< packed contexts only
};

}  // namespace cpsinw::faults
