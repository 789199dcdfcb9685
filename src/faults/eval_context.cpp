#include "faults/eval_context.hpp"

#include <algorithm>
#include <stdexcept>

#include "faults/word_fold.hpp"

namespace cpsinw::faults {

EvalContext::EvalContext(const logic::Circuit& ckt,
                         std::vector<logic::Pattern> patterns,
                         gates::DictionaryCache* cache)
    : cache_(cache != nullptr ? cache : &gates::DictionaryCache::global()),
      patterns_(std::move(patterns)),
      owned_(std::make_unique<const logic::CompiledCircuit>(ckt)),
      cc_(owned_.get()) {
  build();
}

EvalContext::EvalContext(const logic::CompiledCircuit& compiled,
                         std::vector<logic::Pattern> patterns,
                         gates::DictionaryCache* cache)
    : cache_(cache != nullptr ? cache : &gates::DictionaryCache::global()),
      patterns_(std::move(patterns)),
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
  obs_ = std::make_unique<ObsRows>();
}

const std::uint64_t* EvalContext::obs_row(
    logic::NetId net, std::vector<std::uint64_t>& lane_scratch) const {
  assert(packed_);
  assert(net >= 0 && net < circuit().net_count());
  const logic::Circuit& ckt = circuit();
  ObsRows& memo = *obs_;
  const auto at = [](logic::NetId n) { return static_cast<std::size_t>(n); };
  std::call_once(memo.alloc, [&] {
    const std::size_t n_net = at(ckt.net_count());
    memo.rows.assign(n_net * stride_, 0);
    memo.is_po.assign(n_net, 0);
    for (const logic::NetId po : ckt.primary_outputs()) memo.is_po[at(po)] = 1;
    memo.filled = std::vector<std::once_flag>(n_net);
    memo.ready = std::vector<std::atomic<bool>>(n_net);
  });

  if (!memo.ready[at(net)].load()) {
    // Walk the chain of single-reader nets forward to the first net whose
    // row is ready or stands on its own (a PO, a readerless net, a stem),
    // then fill back from there, each row under its own flag.
    std::vector<logic::NetId> chain;
    for (logic::NetId n = net; !memo.ready[at(n)].load();) {
      chain.push_back(n);
      const std::vector<int>& readers = ckt.fanout(n);
      if (memo.is_po[at(n)] != 0 || readers.size() != 1) break;
      n = ckt.gate(readers[0]).out;
    }
    for (auto it = chain.rbegin(); it != chain.rend(); ++it)
      std::call_once(memo.filled[at(*it)], [&] {
        fill_row(memo, *it, lane_scratch);
        memo.ready[at(*it)].store(true);
      });
  }
  return memo.rows.data() + at(net) * stride_;
}

void EvalContext::fill_row(ObsRows& memo, logic::NetId net,
                           std::vector<std::uint64_t>& lane_scratch) const {
  const logic::Circuit& ckt = circuit();
  std::uint64_t* const row = memo.rows.data() + static_cast<std::size_t>(net) *
                                                    stride_;
  const std::vector<int>& readers = ckt.fanout(net);
  if (memo.is_po[static_cast<std::size_t>(net)] != 0) {
    std::fill_n(row, stride_, ~0ull);
  } else if (readers.size() == 1) {
    // Fan-out-free link: the flip reaches only its reader's output, where
    // the reader's own row takes over.
    const logic::CompiledCircuit::GateRec& g =
        cc_->gates()[cc_->position_of(readers[0])];
    unsigned pin = 0;
    while (g.in[pin] != net) ++pin;
    const unsigned sens = substituted_truth(
        g, [pin](unsigned v) { return v ^ (1u << pin); });
    const std::uint64_t* const next =
        memo.rows.data() + static_cast<std::size_t>(g.out) * stride_;
    std::uint64_t unused = 0;
    for (std::size_t w = 0; w < n_words_; ++w)
      row[w] = local_step(*this, g, sens, 0, w, unused) & next[w];
  } else if (readers.size() > 1) {
    cc_->eval_packed_stem_planes(good_planes_.data(), stride_, n_words_, net,
                                 row, lane_scratch);
    memo.stem_walks.fetch_add(1, std::memory_order_relaxed);
  }
  // A net nothing reads keeps its zero row.
}

}  // namespace cpsinw::faults
