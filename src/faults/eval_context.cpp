#include "faults/eval_context.hpp"

#include <stdexcept>

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
}

}  // namespace cpsinw::faults
