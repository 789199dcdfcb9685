#include "logic/compiled_circuit.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "logic/logic_sim.hpp"
#include "logic/packed_kernels.hpp"
#include "logic/simd.hpp"

namespace cpsinw::logic {

namespace {

/// CellKind enumerator count (kInv..kMaj3); checked against
/// all_cell_kinds() when the tables are derived.
constexpr std::size_t kKindCount = 7;

std::atomic<std::uint64_t> g_compiles{0};

}  // namespace

std::uint64_t CompiledCircuit::compile_count() {
  return g_compiles.load(std::memory_order_relaxed);
}

const LogicV* CompiledCircuit::good_table(gates::CellKind kind) {
  // Derived once per process: entry [kind][idx] is the X-aware good output
  // with pin i holding the value decoded from bits (idx >> 2i) & 3.  Codes
  // of pins past the cell's arity are don't-cares (eval_cell_x ignores
  // them), so reading an aliased slot for an unused pin is harmless.
  static const auto tables = [] {
    std::array<std::array<LogicV, 64>, kKindCount> t{};
    const LogicV decode[4] = {LogicV::k0, LogicV::k1, LogicV::kX, LogicV::kX};
    for (const gates::CellKind kind : gates::all_cell_kinds()) {
      const auto ki = static_cast<std::size_t>(kind);
      if (ki >= kKindCount)
        throw std::logic_error("good_table: cell kind out of range");
      for (unsigned idx = 0; idx < 64; ++idx)
        t[ki][idx] = eval_cell_x(kind, decode[idx & 3u],
                                 decode[(idx >> 2) & 3u],
                                 decode[(idx >> 4) & 3u]);
    }
    return t;
  }();
  return tables[static_cast<std::size_t>(kind)].data();
}

CompiledCircuit::CompiledCircuit(const Circuit& ckt) : ckt_(&ckt) {
  if (!ckt.finalized())
    throw std::invalid_argument("CompiledCircuit: circuit not finalized");
  g_compiles.fetch_add(1, std::memory_order_relaxed);

  gates_.reserve(static_cast<std::size_t>(ckt.gate_count()));
  position_.assign(static_cast<std::size_t>(ckt.gate_count()), 0);
  for (const int gid : ckt.topo_order()) {
    const GateInst& g = ckt.gate(gid);
    GateRec r;
    r.table = good_table(g.kind);
    r.kind = g.kind;
    r.n_in = static_cast<std::uint8_t>(g.input_count());
    r.id = gid;
    for (int i = 0; i < 3; ++i)
      r.in[static_cast<std::size_t>(i)] =
          i < g.input_count() ? g.in[static_cast<std::size_t>(i)] : 0;
    r.out = g.out;
    position_[static_cast<std::size_t>(gid)] = gates_.size();
    gates_.push_back(r);
  }

  for (NetId n = 0; n < ckt.net_count(); ++n) {
    const LogicV c = ckt.constant_of(n);
    if (!is_binary(c)) continue;
    const_binary_.emplace_back(n, c);
    if (c == LogicV::k1) const_one_.push_back(n);
  }
}

// ---- scalar kernels -------------------------------------------------------

void CompiledCircuit::init_scalar(const std::vector<LogicV>& pattern,
                                  std::vector<LogicV>& values) const {
  assert(pattern.size() == ckt_->primary_inputs().size());
  values.assign(static_cast<std::size_t>(ckt_->net_count()), LogicV::kX);
  for (const auto& [net, v] : const_binary_)
    values[static_cast<std::size_t>(net)] = v;
  const std::vector<NetId>& pis = ckt_->primary_inputs();
  for (std::size_t i = 0; i < pattern.size(); ++i)
    values[static_cast<std::size_t>(pis[i])] = pattern[i];
}

void CompiledCircuit::eval_scalar_range(LogicV* values, std::size_t from,
                                        std::size_t to) const {
  for (std::size_t k = from; k < to; ++k) {
    const GateRec& g = gates_[k];
    const unsigned idx =
        code(values[g.in[0]]) | (code(values[g.in[1]]) << 2) |
        (code(values[g.in[2]]) << 4);
    values[g.out] = g.table[idx];
  }
}

void CompiledCircuit::eval_scalar(std::vector<LogicV>& values) const {
  assert(values.size() == static_cast<std::size_t>(ckt_->net_count()));
  eval_scalar_range(values.data(), 0, gates_.size());
}

bool CompiledCircuit::eval_scalar_faulty(
    std::vector<LogicV>& values, int fault_gate,
    const gates::FaultAnalysis& fa,
    const std::vector<LogicV>* previous_state) const {
  assert(values.size() == static_cast<std::size_t>(ckt_->net_count()));
  LogicV* const v = values.data();
  const std::size_t pos = position_of(fault_gate);
  eval_scalar_range(v, 0, pos);

  const GateRec& g = gates_[pos];
  bool iddq = false;
  unsigned bits = 0;
  bool binary = true;
  for (unsigned i = 0; i < g.n_in; ++i) {
    const LogicV in_v = v[g.in[i]];
    if (!is_binary(in_v)) {
      binary = false;
      break;
    }
    if (in_v == LogicV::k1) bits |= 1u << i;
  }
  LogicV out = LogicV::kX;
  if (binary) {
    if (((fa.compiled_contention >> bits) & 1u) != 0) iddq = true;
    const int fv = fa.compiled_logic[bits];
    if (fv == 0) {
      out = LogicV::k0;
    } else if (fv == 1) {
      out = LogicV::k1;
    } else if (fv == -2) {
      // Floating output: retain the previous charge when known.
      out = previous_state != nullptr
                ? (*previous_state)[static_cast<std::size_t>(g.out)]
                : LogicV::kX;
      if (out == LogicV::kZ) out = LogicV::kX;
    }
  }
  v[g.out] = out;

  eval_scalar_range(v, pos + 1, gates_.size());
  return iddq;
}

// ---- SoA bit-plane kernels ------------------------------------------------
//
// The bodies live in logic/packed_kernels.hpp as templates over a 4x64-bit
// vector, and each backend is one KernelTable of their instantiations:
// this TU owns the portable (and, on aarch64, the NEON) table, and the
// only TUs built with -mavx2 and -mavx512f -mavx512vl own the M256 ones.
// Dispatch is per call on simd::active_backend(), so the bench and the
// bit-identity tests can flip backends inside one process.

namespace kernels {

// The one list of backends.  The units compiled into this build set the
// macros; the running CPU gets the final say (the binary may land on older
// x86-64).  NEON is architecturally guaranteed on aarch64.
const KernelTable* table(simd::Backend b) {
  switch (b) {
    case simd::Backend::kPortable: return &kKernels<U64x4>;
#if defined(CPSINW_SIMD_AVX2)
    case simd::Backend::kAvx2:
      return __builtin_cpu_supports("avx2") ? &kAvx2Kernels : nullptr;
#endif
#if defined(CPSINW_SIMD_AVX512)
    case simd::Backend::kAvx512:
      return __builtin_cpu_supports("avx512f") &&
                     __builtin_cpu_supports("avx512vl")
                 ? &kAvx512Kernels
                 : nullptr;
#endif
#if defined(__aarch64__) && !defined(CPSINW_SIMD_OFF)
    case simd::Backend::kNeon: return &kKernels<U64x2x2>;
#endif
    default: return nullptr;
  }
}

}  // namespace kernels

namespace {

/// The table of the backend the kernels dispatch to right now.  The
/// widest table is looked up once, so a kernel call probes no CPU flag.
const kernels::KernelTable& active_kernels() {
  static const kernels::KernelTable* const widest =
      kernels::table(simd::compiled_backend());
  return simd::active_backend() == simd::Backend::kPortable
             ? kernels::kKernels<kernels::U64x4>
             : *widest;
}

}  // namespace

void CompiledCircuit::init_packed_planes(
    const std::uint64_t* pi_planes, std::size_t stride,
    std::vector<std::uint64_t>& planes) const {
  assert(stride % kSimdWords == 0);
  const std::size_t n_net = static_cast<std::size_t>(ckt_->net_count());
  planes.assign(n_net * stride, 0);
  // Padding words get the same seeds as real ones, so every backend
  // computes identical plane buffers end to end.
  for (const NetId n : const_one_)
    std::fill_n(planes.begin() +
                    static_cast<std::ptrdiff_t>(
                        static_cast<std::size_t>(n) * stride),
                stride, ~0ull);
  const std::vector<NetId>& pis = ckt_->primary_inputs();
  for (std::size_t i = 0; i < pis.size(); ++i)
    std::copy_n(pi_planes + i * stride, stride,
                planes.begin() +
                    static_cast<std::ptrdiff_t>(
                        static_cast<std::size_t>(pis[i]) * stride));
}

void CompiledCircuit::eval_packed_planes(std::vector<std::uint64_t>& planes,
                                         std::size_t stride) const {
  assert(stride % kSimdWords == 0);
  assert(planes.size() ==
         static_cast<std::size_t>(ckt_->net_count()) * stride);
  active_kernels().planes(*this, planes.data(), stride);
}

void CompiledCircuit::eval_packed_stem_planes(
    const std::uint64_t* good_planes, std::size_t stride, std::size_t n_words,
    NetId stem, std::uint64_t* obs,
    std::vector<std::uint64_t>& lane_scratch) const {
  assert(stem >= 0 && stem < ckt_->net_count());
  assert(n_words <= stride);
  if (n_words == 0) return;
  active_kernels().stem_planes(*this, good_planes, stride, n_words, stem, obs,
                               lane_scratch);
}

void CompiledCircuit::eval_packed_retained_planes(
    const std::uint64_t* good_planes, std::size_t stride, std::size_t n_words,
    int fault_gate, const gates::FaultAnalysis& fa, bool retain,
    RetainedCarry& carry, std::uint64_t* detect, std::uint64_t* potential,
    std::uint64_t* contention, std::vector<std::uint64_t>& lane_scratch,
    std::vector<std::uint64_t>& x_scratch) const {
  assert(!fa.compiled_binary);
  assert(n_words <= stride);
  if (n_words == 0) return;
  active_kernels().retained_planes(*this, good_planes, stride, n_words,
                                  fault_gate, fa, retain, carry, detect,
                                  potential, contention, lane_scratch,
                                  x_scratch);
}

void CompiledCircuit::eval_packed_bridge_planes(
    const std::uint64_t* good_planes, std::size_t stride, std::size_t n_words,
    const Bridge& bridge, std::uint64_t* detect, std::uint64_t* contention,
    std::vector<std::uint64_t>& lane_scratch,
    std::vector<std::uint64_t>& n1_scratch) const {
  assert(bridge.a >= 0 && bridge.a < ckt_->net_count());
  assert(bridge.b >= 0 && bridge.b < ckt_->net_count());
  assert(bridge.a != bridge.b);
  assert(n_words <= stride);
  if (n_words == 0) return;
  active_kernels().bridge_planes(*this, good_planes, stride, n_words,
                                bridge, detect, contention, lane_scratch,
                                n1_scratch);
}

}  // namespace cpsinw::logic
