#include "engine/shard.hpp"

#include <chrono>
#include <stdexcept>

#include "engine/telemetry.hpp"
#include "logic/logic_sim.hpp"

namespace cpsinw::engine {

const char* to_string(FaultClass cls) {
  switch (cls) {
    case FaultClass::kLineStuckAt: return "line_stuck_at";
    case FaultClass::kPolarity: return "polarity";
    case FaultClass::kStuckOpen: return "stuck_open";
    case FaultClass::kStuckOn: return "stuck_on";
    case FaultClass::kBridge: return "bridge";
  }
  return "?";
}

FaultClass classify(const faults::Fault& fault) {
  if (fault.site != faults::FaultSite::kGateTransistor)
    return FaultClass::kLineStuckAt;
  switch (fault.cell_fault.kind) {
    case gates::TransistorFault::kStuckOpen: return FaultClass::kStuckOpen;
    case gates::TransistorFault::kStuckOn: return FaultClass::kStuckOn;
    case gates::TransistorFault::kStuckAtNType:
    case gates::TransistorFault::kStuckAtPType:
      return FaultClass::kPolarity;
    case gates::TransistorFault::kNone: break;
  }
  throw std::invalid_argument("classify: fault without a kind");
}

std::vector<Shard> make_shards(int job, std::size_t fault_count,
                               std::size_t shard_size,
                               const util::SplitMix64& job_rng) {
  if (shard_size == 0)
    throw std::invalid_argument("make_shards: shard_size must be > 0");
  std::vector<Shard> shards;
  int index = 0;
  for (std::size_t begin = 0; begin < fault_count; begin += shard_size) {
    Shard s;
    s.job = job;
    s.index = index;
    s.begin = begin;
    s.end = std::min(fault_count, begin + shard_size);
    s.rng = job_rng.fork(static_cast<std::uint64_t>(index));
    shards.push_back(s);
    ++index;
  }
  return shards;
}

ShardResult run_shard(const faults::EvalContext& ctx,
                      const std::vector<CampaignFault>& universe,
                      const Shard& shard, const ShardExecOptions& options) {
  // Every backend funnels through here — the in-process executors against
  // the job's shared context, the shard server against a context rebuilt
  // from the wire — so this body is the single definition of what a shard
  // computes.
  if (shard.begin > shard.end || shard.end > universe.size())
    throw std::invalid_argument("run_shard: shard range out of bounds");

  const auto t0 = std::chrono::steady_clock::now();
  ShardResult out;
  out.job = shard.job;
  out.index = shard.index;
  out.results.resize(shard.end - shard.begin);

  // Sampling decisions first, in slice order, so the RNG stream consumed
  // per fault is independent of how the work below is batched.
  util::SplitMix64 rng = shard.rng;
  const bool sampling = options.fault_sample_fraction < 1.0;
  for (std::size_t i = shard.begin; i < shard.end; ++i) {
    FaultResult& r = out.results[i - shard.begin];
    r.cls = universe[i].cls;
    if (sampling && !rng.chance(options.fault_sample_fraction))
      r.sampled_out = true;
  }

  // Circuit faults (line + transistor) go through the shared simulator
  // hook in one gathered batch, bridges through their own entry point in
  // another (one call per shard, so its kernel scratch is hoisted here).
  std::vector<faults::Fault> gathered;
  std::vector<std::size_t> gathered_slot;
  std::vector<faults::BridgeFault> bridges;
  std::vector<std::size_t> bridge_slot;
  for (std::size_t i = shard.begin; i < shard.end; ++i) {
    const FaultResult& r = out.results[i - shard.begin];
    if (r.sampled_out) continue;
    if (universe[i].cls == FaultClass::kBridge) {
      bridges.push_back(universe[i].bridge);
      bridge_slot.push_back(i - shard.begin);
    } else {
      gathered.push_back(universe[i].fault);
      gathered_slot.push_back(i - shard.begin);
    }
  }
  faults::LineBatchStats batch_stats;
  if (!gathered.empty()) {
    const faults::FaultSimulator fsim(ctx.circuit());
    const std::vector<faults::DetectionRecord> records = fsim.run_range(
        ctx, gathered, 0, gathered.size(), options.sim, &batch_stats);
    for (std::size_t k = 0; k < gathered.size(); ++k)
      out.results[gathered_slot[k]].record = records[k];
  }
  if (!bridges.empty()) {
    const std::vector<faults::DetectionRecord> records =
        faults::simulate_bridges(ctx, bridges, options.sim, &batch_stats);
    for (std::size_t k = 0; k < bridges.size(); ++k)
      out.results[bridge_slot[k]].record = records[k];
  }

  out.elapsed_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();

  // Fault accounting lands in the process-wide registry in one batch per
  // shard, never inside the fault loops: the packed simulation hot path
  // stays metric-free.
  telemetry::Registry& reg = telemetry::Registry::global();
  const std::size_t simulated = gathered.size() + bridges.size();
  reg.counter("shard.shards_run").add();
  reg.counter("shard.faults_simulated").add(simulated);
  reg.counter("shard.faults_sampled_out").add(out.results.size() - simulated);
  reg.counter("shard.bridges_simulated").add(bridges.size());
  reg.histogram("shard.exec_s").record(out.elapsed_s);
  // Line faults, transistor faults by dictionary kind (packed) or serial
  // walk (X-bearing), and bridges that took the scalar loop: a nonzero
  // serial count on a packed (fully specified) pattern set would be a
  // silent fallback.
  reg.counter("engine.faults_batched").add(batch_stats.faults);
  reg.counter("engine.faults_transistor_binary")
      .add(batch_stats.transistor_binary);
  reg.counter("engine.faults_transistor_retained")
      .add(batch_stats.transistor_retained);
  reg.counter("engine.faults_transistor_serial")
      .add(batch_stats.transistor_serial);
  reg.counter("engine.faults_bridge_serial").add(batch_stats.bridge_serial);
  return out;
}

ShardResult run_shard(const logic::Circuit& ckt,
                      const std::vector<CampaignFault>& universe,
                      const std::vector<logic::Pattern>& patterns,
                      const Shard& shard, const ShardExecOptions& options) {
  const faults::EvalContext ctx(ckt, patterns);
  return run_shard(ctx, universe, shard, options);
}

}  // namespace cpsinw::engine
