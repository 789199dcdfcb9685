#include "engine/shard.hpp"

#include <chrono>
#include <optional>
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

namespace {

/// Simulates one bridge over the pattern sequence, mirroring the hit
/// semantics of FaultSimulator::simulate_transistor_fault.  The good
/// machine comes from the job's shared context — simulated once per
/// pattern set, serving both the PO comparison and the IDDQ excitation
/// check for every bridge of every shard.
faults::DetectionRecord simulate_bridge_fault(
    const faults::EvalContext& ctx, const faults::BridgeFault& bridge,
    const faults::FaultSimOptions& options) {
  const logic::Circuit& ckt = ctx.circuit();
  faults::DetectionRecord rec;
  for (std::size_t pi = 0; pi < ctx.pattern_count(); ++pi) {
    bool hit = false;
    if (!rec.detected_output) {
      const std::vector<logic::LogicV> bad =
          faults::simulate_bridge(ckt, bridge, ctx.patterns()[pi]);
      for (const logic::NetId po : ckt.primary_outputs()) {
        const logic::LogicV g = ctx.good_value(pi, po);
        const logic::LogicV b = bad[static_cast<std::size_t>(po)];
        if (logic::is_binary(g) && logic::is_binary(b) && g != b) {
          rec.detected_output = true;
          hit = true;
          break;
        }
      }
    }
    if (options.observe_iddq) {
      const logic::LogicV va = ctx.good_value(pi, bridge.a);
      const logic::LogicV vb = ctx.good_value(pi, bridge.b);
      if (logic::is_binary(va) && logic::is_binary(vb) && va != vb) {
        rec.detected_iddq = true;
        hit = true;
      }
    }
    if (hit && rec.first_pattern < 0)
      rec.first_pattern = static_cast<int>(pi);
    if (rec.first_pattern >= 0 &&
        options.detection_mode == faults::DetectionMode::kFirstOnly)
      break;  // first-only semantics: stop at the first counted detection
    if (rec.detected_output &&
        (rec.detected_iddq || !options.observe_iddq))
      break;  // nothing left to learn about this bridge
  }
  return rec;
}

}  // namespace

ShardResult run_shard(const faults::EvalContext& ctx,
                      const std::vector<CampaignFault>& universe,
                      const Shard& shard, const ShardExecOptions& options) {
  // Every backend funnels through here — the in-process executors against
  // the job's shared context, the shard worker against a context rebuilt
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
  // hook in one gathered batch; bridges have their own evaluation.
  std::vector<faults::Fault> gathered;
  std::vector<std::size_t> gathered_slot;
  for (std::size_t i = shard.begin; i < shard.end; ++i) {
    const FaultResult& r = out.results[i - shard.begin];
    if (r.sampled_out || universe[i].cls == FaultClass::kBridge) continue;
    gathered.push_back(universe[i].fault);
    gathered_slot.push_back(i - shard.begin);
  }
  faults::LineBatchStats batch_stats;
  if (!gathered.empty()) {
    const faults::FaultSimulator fsim(ctx.circuit());
    const std::vector<faults::DetectionRecord> records = fsim.run_range(
        ctx, gathered, 0, gathered.size(), options.sim, &batch_stats);
    for (std::size_t k = 0; k < gathered.size(); ++k)
      out.results[gathered_slot[k]].record = records[k];
  }

  for (std::size_t i = shard.begin; i < shard.end; ++i) {
    FaultResult& r = out.results[i - shard.begin];
    if (r.sampled_out || r.cls != FaultClass::kBridge) continue;
    r.record = simulate_bridge_fault(ctx, universe[i].bridge, options.sim);
  }

  out.elapsed_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();

  // Fault accounting lands in the process-wide registry in one batch per
  // shard, never inside the fault loops: the packed simulation hot path
  // stays metric-free (and CPSINW_TELEMETRY_OFF compiles even this out).
  CPSINW_TELEM([&] {
    telemetry::Registry& reg = telemetry::Registry::global();
    std::size_t sampled_out = 0;
    std::size_t bridges = 0;
    for (const FaultResult& r : out.results) {
      if (r.sampled_out)
        ++sampled_out;
      else if (r.cls == FaultClass::kBridge)
        ++bridges;
    }
    reg.counter("shard.shards_run").add();
    reg.counter("shard.faults_simulated")
        .add(out.results.size() - sampled_out);
    reg.counter("shard.faults_sampled_out").add(sampled_out);
    reg.counter("shard.bridges_simulated").add(bridges);
    reg.histogram("shard.exec_s").record(out.elapsed_s);
    // Batched line-kernel occupancy: batch_width counts lanes actually
    // occupied (not kBatchLanes per pass), so batch_width /
    // (batch_groups * kBatchLanes) is the mean lane fill across kernel
    // invocations (1.0 = every lane carried a fault).  faults_batched
    // counts each line fault once even when dropping strips re-group it.
    // The fill histogram reuses the power-of-two-µs buckets by encoding a
    // group of k faults as 2^(k-1) µs, so fills 1..kBatchLanes land in
    // distinct buckets 1..kBatchLanes of shard.batch_fill.
    reg.counter("engine.faults_batched").add(batch_stats.faults);
    reg.counter("engine.batch_groups").add(batch_stats.groups);
    reg.counter("engine.batch_width").add(batch_stats.lane_slots);
    // Transistor faults by evaluation path: a nonzero serial count on a
    // packed (fully specified) pattern set would be a silent fallback.
    reg.counter("engine.faults_transistor_binary")
        .add(batch_stats.transistor_binary);
    reg.counter("engine.faults_transistor_retained")
        .add(batch_stats.transistor_retained);
    reg.counter("engine.faults_transistor_serial")
        .add(batch_stats.transistor_serial);
    auto& fill_hist = reg.histogram("shard.batch_fill");
    for (std::size_t k = 0; k < batch_stats.fill.size(); ++k) {
      const double encoded_s = static_cast<double>(1ull << k) * 1e-6;
      for (std::size_t g = 0; g < batch_stats.fill[k]; ++g)
        fill_hist.record(encoded_s);
    }
  }());
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
