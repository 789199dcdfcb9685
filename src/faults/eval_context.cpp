#include "faults/eval_context.hpp"

#include <stdexcept>

namespace cpsinw::faults {

namespace {

const logic::Circuit& require_finalized(const logic::Circuit& ckt) {
  if (!ckt.finalized())
    throw std::invalid_argument("EvalContext: circuit not finalized");
  return ckt;
}

}  // namespace

EvalContext::EvalContext(const logic::Circuit& ckt,
                         std::vector<logic::Pattern> patterns,
                         gates::DictionaryCache* cache)
    : ckt_(&ckt),
      cache_(cache != nullptr ? cache : &gates::DictionaryCache::global()),
      patterns_(std::move(patterns)),
      sim_(require_finalized(ckt)) {
  // Scalar good machine, once per pattern (this also validates arity);
  // the compilation behind sim_ is shared by every pass below.
  good_.reserve(patterns_.size());
  for (const logic::Pattern& p : patterns_) good_.push_back(sim_.simulate(p));

  // Packed batches need fully-specified patterns; an X anywhere keeps the
  // context scalar-only (the serial transistor paths still work).
  packed_ = true;
  for (const logic::Pattern& p : patterns_) {
    for (const logic::LogicV v : p)
      if (!is_binary(v)) {
        packed_ = false;
        break;
      }
    if (!packed_) break;
  }
  if (!packed_) return;

  // SoA bit-planes: word `w` of net `n` lives at [n * stride + w], so the
  // multi-word kernels stream one net's words contiguously.  The stride
  // pads up to the SIMD group width; padding columns evaluate the
  // all-zero-input pattern and are masked off by active_words().
  n_words_ = (patterns_.size() + 63) / 64;
  stride_ = logic::CompiledCircuit::plane_stride(n_words_);
  const std::size_t n_pi = ckt.primary_inputs().size();
  pi_planes_.assign(n_pi * stride_, 0);
  for (std::size_t base = 0; base < patterns_.size(); base += 64) {
    const std::size_t count =
        std::min<std::size_t>(64, patterns_.size() - base);
    Batch b;
    b.base = base;
    b.count = count;
    b.active = count == 64 ? ~0ull : ((1ull << count) - 1ull);
    const std::vector<logic::Pattern> slice(
        patterns_.begin() + static_cast<long>(base),
        patterns_.begin() + static_cast<long>(base + count));
    b.pi_words = logic::pack_patterns(ckt, slice);
    const std::size_t w = base / 64;
    for (std::size_t i = 0; i < n_pi; ++i)
      pi_planes_[i * stride_ + w] = b.pi_words[i];
    active_words_.push_back(b.active);
    batches_.push_back(std::move(b));
  }
  sim_.compiled().init_packed_planes(pi_planes_.data(), stride_, good_planes_);
  sim_.compiled().eval_packed_planes(good_planes_, stride_);
}

}  // namespace cpsinw::faults
