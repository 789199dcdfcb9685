// Performance microbenchmarks (google-benchmark) for the computational
// kernels: device-model evaluation, MNA operating point, transient step,
// switch-level evaluation, packed fault simulation, and PODEM.
#include <benchmark/benchmark.h>

#include <memory>

#include "atpg/channel_break.hpp"
#include "atpg/podem.hpp"
#include "device/table_model.hpp"
#include "faults/eval_context.hpp"
#include "faults/fault_sim.hpp"
#include "gates/spice_builder.hpp"
#include "gates/switch_level.hpp"
#include "logic/benchmarks.hpp"
#include "logic/compiled_circuit.hpp"
#include "spice/dcop.hpp"
#include "spice/transient.hpp"
#include "util/rng.hpp"

namespace {

using namespace cpsinw;

void BM_DeviceEval(benchmark::State& state) {
  const device::TigModel model((device::TigParams()));
  double v = 0.0;
  for (auto _ : state) {
    v += 1e-4;
    if (v > 1.2) v = 0.0;
    benchmark::DoNotOptimize(model.ids(
        {.vcg = v, .vpgs = 1.2, .vpgd = 1.2, .vs = 0.0, .vd = 1.2}));
  }
}
BENCHMARK(BM_DeviceEval);

void BM_TableModelEval(benchmark::State& state) {
  const device::TigModel model((device::TigParams()));
  const device::TableModel table = device::TableModel::build(model);
  double v = 0.0;
  for (auto _ : state) {
    v += 1e-4;
    if (v > 1.2) v = 0.0;
    benchmark::DoNotOptimize(table.ids(
        {.vcg = v, .vpgs = 1.2, .vpgd = 1.2, .vs = 0.0, .vd = 1.2}));
  }
}
BENCHMARK(BM_TableModelEval);

void BM_XorDcOperatingPoint(benchmark::State& state) {
  gates::CellCircuitSpec spec;
  spec.kind = gates::CellKind::kXor2;
  spec.inputs = gates::dc_inputs(gates::CellKind::kXor2, 0b01u, 1.2);
  gates::CellCircuit cc = gates::build_cell_circuit(spec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(spice::dc_operating_point(cc.ckt));
  }
}
BENCHMARK(BM_XorDcOperatingPoint);

void BM_InverterTransient(benchmark::State& state) {
  gates::CellCircuitSpec spec;
  spec.kind = gates::CellKind::kInv;
  spec.inputs = {spice::Waveform::step(1.2, 0.0, 0.2e-9, 10e-12)};
  gates::CellCircuit cc = gates::build_cell_circuit(spec);
  spice::TranOptions opt;
  opt.t_stop = 1e-9;
  opt.dt = 4e-12;
  for (auto _ : state) {
    benchmark::DoNotOptimize(spice::transient(cc.ckt, opt));
  }
}
BENCHMARK(BM_InverterTransient);

void BM_SwitchLevelEval(benchmark::State& state) {
  unsigned v = 0;
  for (auto _ : state) {
    v = (v + 1) & 7u;
    benchmark::DoNotOptimize(
        gates::eval_switch(gates::CellKind::kMaj3, v,
                           {1, gates::TransistorFault::kStuckAtNType}));
  }
}
BENCHMARK(BM_SwitchLevelEval);

void BM_PackedFaultSim(benchmark::State& state) {
  const logic::Circuit ckt = logic::ripple_adder(8);
  const faults::FaultSimulator fsim(ckt);
  faults::FaultListOptions flo;
  flo.include_transistor_faults = false;
  const auto faults = generate_fault_list(ckt, flo);
  std::vector<logic::Pattern> patterns;
  util::SplitMix64 rng(7);
  for (int k = 0; k < 64; ++k) {
    logic::Pattern p;
    for (std::size_t i = 0; i < ckt.primary_inputs().size(); ++i)
      p.push_back(logic::from_bool(rng.chance(0.5)));
    patterns.push_back(std::move(p));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(fsim.run(faults, patterns));
  }
  state.counters["faults"] = static_cast<double>(faults.size());
}
BENCHMARK(BM_PackedFaultSim);

void BM_ContextTransistorSim(benchmark::State& state) {
  const logic::Circuit ckt = logic::parity_tree(64);
  const faults::FaultSimulator fsim(ckt);
  faults::FaultListOptions flo;
  flo.include_line_stuck_at = false;
  flo.include_transistor_faults = true;
  const auto faults = generate_fault_list(ckt, flo);
  std::vector<logic::Pattern> patterns;
  util::SplitMix64 rng(3);
  for (int k = 0; k < 64; ++k) {
    logic::Pattern p;
    for (std::size_t i = 0; i < ckt.primary_inputs().size(); ++i)
      p.push_back(logic::from_bool(rng.chance(0.5)));
    patterns.push_back(std::move(p));
  }
  const faults::EvalContext ctx(ckt, patterns);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fsim.run(ctx, faults));
  }
  state.counters["faults"] = static_cast<double>(faults.size());
}
BENCHMARK(BM_ContextTransistorSim);

void BM_CompiledScalarSim(benchmark::State& state) {
  // Scalar good-machine throughput of the compiled table-driven kernel
  // (the layer under every ATPG verification loop and serial fault pass).
  const logic::Circuit ckt = logic::alu_slice();
  const logic::Simulator sim(ckt);
  std::vector<logic::Pattern> patterns;
  util::SplitMix64 rng(11);
  for (int k = 0; k < 32; ++k) {
    logic::Pattern p;
    for (std::size_t i = 0; i < ckt.primary_inputs().size(); ++i)
      p.push_back(logic::from_bool(rng.chance(0.5)));
    patterns.push_back(std::move(p));
  }
  std::size_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.simulate(patterns[k]));
    k = (k + 1) % patterns.size();
  }
}
BENCHMARK(BM_CompiledScalarSim);

void BM_CompiledLineFaultSim(benchmark::State& state) {
  // Full line-stuck-at campaign through the compiled packed kernels
  // (scratch-buffer reuse, driver-skip stem faults).
  const logic::Circuit ckt = logic::parity_tree(32);
  const faults::FaultSimulator fsim(ckt);
  faults::FaultListOptions flo;
  flo.include_transistor_faults = false;
  const auto faults = generate_fault_list(ckt, flo);
  std::vector<logic::Pattern> patterns;
  util::SplitMix64 rng(13);
  for (int k = 0; k < 128; ++k) {
    logic::Pattern p;
    for (std::size_t i = 0; i < ckt.primary_inputs().size(); ++i)
      p.push_back(logic::from_bool(rng.chance(0.5)));
    patterns.push_back(std::move(p));
  }
  const faults::EvalContext ctx(ckt, patterns);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fsim.run(ctx, faults));
  }
  state.counters["faults"] = static_cast<double>(faults.size());
}
BENCHMARK(BM_CompiledLineFaultSim);

void BM_LineFaultSimFreshRows(benchmark::State& state) {
  // A line campaign with its observability rows paid every iteration: a
  // fresh context per run, so each run walks every stem its faults reach
  // once and folds every fault's local step against the rows.  A ripple
  // adder has stems (a parity tree has none); the stem_walks counter is
  // the walks per run.
  const logic::Circuit ckt = logic::ripple_adder(16);
  const faults::FaultSimulator fsim(ckt);
  faults::FaultListOptions flo;
  flo.include_transistor_faults = false;
  const auto faults = generate_fault_list(ckt, flo);
  std::vector<logic::Pattern> patterns;
  util::SplitMix64 rng(13);
  for (int k = 0; k < 256; ++k) {
    logic::Pattern p;
    for (std::size_t i = 0; i < ckt.primary_inputs().size(); ++i)
      p.push_back(logic::from_bool(rng.chance(0.5)));
    patterns.push_back(std::move(p));
  }
  const logic::CompiledCircuit cc(ckt);
  std::uint64_t stem_walks = 0;
  for (auto _ : state) {
    const faults::EvalContext ctx(cc, patterns);
    benchmark::DoNotOptimize(fsim.run_range(ctx, faults, 0, faults.size()));
    stem_walks = ctx.stem_walks();
  }
  state.counters["faults"] = static_cast<double>(faults.size());
  state.counters["stem_walks"] = static_cast<double>(stem_walks);
}
BENCHMARK(BM_LineFaultSimFreshRows);

void BM_PodemLineFault(benchmark::State& state) {
  const logic::Circuit ckt = logic::multiplier_2x2();
  const atpg::PodemEngine engine(ckt);
  const faults::Fault f =
      faults::Fault::net_stuck(ckt.find_net("m2"), false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.generate_line(f));
  }
}
BENCHMARK(BM_PodemLineFault);

void BM_ChannelBreakDerivation(benchmark::State& state) {
  int t = 0;
  for (auto _ : state) {
    t = (t + 1) & 3;
    benchmark::DoNotOptimize(
        atpg::derive_cell_test(gates::CellKind::kXor3, t));
  }
}
BENCHMARK(BM_ChannelBreakDerivation);

}  // namespace

BENCHMARK_MAIN();
