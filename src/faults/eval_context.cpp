#include "faults/eval_context.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "faults/word_fold.hpp"

namespace cpsinw::faults {

namespace {

/// Runs `fill` unless `done` is set, then sets it: double-checked under
/// `lock`, so a finished fill costs readers one acquire load and an
/// unfinished one an uncontended lock.  (std::call_once makes a futex
/// system call on every first run in glibc, which cost a two-pattern
/// check more than its whole fault walk.)
template <class Fill>
void fill_once(std::atomic<bool>& done, std::mutex& lock, const Fill& fill) {
  if (done.load(std::memory_order_acquire)) return;
  const std::lock_guard<std::mutex> guard(lock);
  if (done.load(std::memory_order_relaxed)) return;
  fill();
  done.store(true, std::memory_order_release);
}

/// The pin through which `net`'s one reader reads it when the net is a
/// fan-out-free link — not a PO, and read by exactly one pin — or -1.  The
/// fan-out table lists a gate once however many of its pins read the net,
/// so the pins of a lone reader are counted here.
int link_pin(const logic::CompiledCircuit& cc, logic::NetId net) {
  const std::span<const std::uint32_t> readers = cc.fanout(net);
  if (cc.is_po(net) || readers.size() != 1) return -1;
  const logic::CompiledCircuit::GateRec& g = cc.gates()[readers[0]];
  int pin = -1;
  for (int i = 0; i < g.n_in; ++i) {
    if (g.in[static_cast<std::size_t>(i)] != net) continue;
    if (pin >= 0) return -1;
    pin = i;
  }
  return pin;
}

}  // namespace

EvalContext::EvalContext(const logic::Circuit& ckt,
                         std::vector<logic::Pattern> patterns)
    : patterns_(std::move(patterns)),
      owned_(std::make_unique<const logic::CompiledCircuit>(ckt)),
      cc_(owned_.get()) {
  build();
}

EvalContext::EvalContext(const logic::CompiledCircuit& compiled,
                         std::vector<logic::Pattern> patterns)
    : patterns_(std::move(patterns)),
      cc_(&compiled) {
  build();
}

void EvalContext::build() {
  // Every pattern must fit the circuit, whichever good machine is built:
  // patterns may come off the wire (shard_io), and the plane fill below
  // indexes them unchecked.  An X anywhere keeps the context scalar-only.
  const std::size_t n_pi = circuit().primary_inputs().size();
  packed_ = true;
  for (const logic::Pattern& p : patterns_) {
    if (p.size() != n_pi)
      throw std::invalid_argument("EvalContext: pattern arity mismatch");
    for (const logic::LogicV v : p) packed_ = packed_ && is_binary(v);
  }

  if (!packed_) {
    // Scalar good machine, once per pattern, for the serial walk and bridges.
    good_.resize(patterns_.size());
    for (std::size_t k = 0; k < patterns_.size(); ++k) {
      cc_->init_scalar(patterns_[k], good_[k].net_values);
      cc_->eval_scalar(good_[k].net_values);
    }
    return;
  }

  // SoA bit-planes: word `w` of net `n` lives at [n * stride + w], so the
  // multi-word kernels stream one net's words contiguously.  The stride
  // pads up to the SIMD group width; padding columns evaluate the
  // all-zero-input pattern and are masked off by active_words().
  n_words_ = (patterns_.size() + 63) / 64;
  stride_ = logic::CompiledCircuit::plane_stride(n_words_);
  std::vector<std::uint64_t> pi_planes(n_pi * stride_, 0);
  active_words_.assign(n_words_, 0);
  for (std::size_t k = 0; k < patterns_.size(); ++k) {
    const std::size_t w = k / 64;
    const std::uint64_t bit = 1ull << (k % 64);
    active_words_[w] |= bit;
    for (std::size_t i = 0; i < n_pi; ++i)
      if (patterns_[k][i] == logic::LogicV::k1)
        pi_planes[i * stride_ + w] |= bit;
  }
  cc_->init_packed_planes(pi_planes.data(), stride_, good_planes_);
  cc_->eval_packed_planes(good_planes_, stride_);
  rows_ = std::make_unique<RowMemos>();
}

const std::uint64_t* EvalContext::obs_row(
    logic::NetId net, std::vector<std::uint64_t>& lane_scratch) const {
  return row(rows_->obs, false, net, lane_scratch);
}

const std::uint64_t* EvalContext::xobs_row(
    logic::NetId net, std::vector<std::uint64_t>& lane_scratch) const {
  return row(rows_->xobs, true, net, lane_scratch);
}

const std::uint64_t* EvalContext::row(
    RowMemo& memo, bool x, logic::NetId net,
    std::vector<std::uint64_t>& lane_scratch) const {
  assert(packed_);
  assert(net >= 0 && net < circuit().net_count());
  const auto at = [](logic::NetId n) { return static_cast<std::size_t>(n); };
  fill_once(memo.allocated, memo.alloc_lock, [&] {
    const std::size_t n_net = at(circuit().net_count());
    memo.rows = std::make_unique<std::uint64_t[]>(n_net * stride_);
    memo.ready = std::make_unique<std::atomic<bool>[]>(n_net);
    memo.fill_locks = std::make_unique<std::mutex[]>(RowMemo::kFillLocks);
  });

  if (!memo.ready[at(net)].load(std::memory_order_acquire)) {
    // Walk the chain of fan-out-free links forward to the first net whose
    // row is ready or stands on its own (a PO, a readerless net, a stem),
    // then fill back from there, each row under its own flag.
    std::vector<logic::NetId> chain;
    for (logic::NetId n = net;
         !memo.ready[at(n)].load(std::memory_order_acquire);) {
      chain.push_back(n);
      if (link_pin(*cc_, n) < 0) break;
      n = cc_->gates()[cc_->fanout(n)[0]].out;
    }
    for (auto it = chain.rbegin(); it != chain.rend(); ++it)
      fill_once(memo.ready[at(*it)],
                memo.fill_locks[at(*it) % RowMemo::kFillLocks],
                [&] { fill_row(memo, x, *it, lane_scratch); });
  }
  return memo.rows.get() + at(net) * stride_;
}

void EvalContext::fill_row(RowMemo& memo, bool x, logic::NetId net,
                           std::vector<std::uint64_t>& lane_scratch) const {
  std::uint64_t* const row =
      memo.rows.get() + static_cast<std::size_t>(net) * stride_;
  const int pin = link_pin(*cc_, net);
  if (cc_->is_po(net)) {
    std::fill_n(row, stride_, ~0ull);
  } else if (pin >= 0) {
    // Fan-out-free link: the flip (or X) reaches only its reader's output,
    // where the reader's own row takes over.
    const logic::CompiledCircuit::GateRec& g =
        cc_->gates()[cc_->fanout(net)[0]];
    const unsigned sens = substituted_truth(
        g, [pin](unsigned v) { return v ^ (1u << pin); });
    const std::uint64_t* const next =
        memo.rows.get() + static_cast<std::size_t>(g.out) * stride_;
    std::uint64_t unused = 0;
    for (std::size_t w = 0; w < n_words_; ++w)
      row[w] = local_step(*this, g, sens, 0, w, unused) & next[w];
  } else if (!cc_->fanout(net).empty()) {
    // A stem: two or more reader pins, on one gate or several.
    const std::size_t gates =
        x ? cc_->eval_packed_stem_x_planes(good_planes_.data(), stride_,
                                           n_words_, net, row, lane_scratch)
          : cc_->eval_packed_stem_planes(good_planes_.data(), stride_,
                                         n_words_, net, row, lane_scratch);
    memo.walks.fetch_add(1, std::memory_order_relaxed);
    memo.gates.fetch_add(gates, std::memory_order_relaxed);
  }
  // A net nothing reads keeps its zero row.
}

}  // namespace cpsinw::faults
