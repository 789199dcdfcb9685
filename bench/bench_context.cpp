// Two benchmark legs over the evaluation spine, each cross-checked fault
// by fault — a speedup only counts when the answer is bit-identical:
//
//  1. "context" (BENCH_context.json): the PR-2 shared-evaluation-context
//     win on the transistor-fault hot loop.  "before" replays the seed
//     algorithm verbatim — interpreted scalar simulation, good machine
//     re-simulated and the switch-level dictionary re-derived for every
//     fault; "after" is the library context path.  Gate: >= 2x.
//
//  2. "compiled" (BENCH_compiled.json): the compiled-core win on top of
//     the context/packing layer.  "before" replays the PR-2-era engine —
//     packed batches and dictionary substitution, but interpreted: every
//     gate re-walks GateInst records through topo_order() with per-gate
//     fault checks and a fresh values vector per fault per batch.
//     "after" is the library path (logic::CompiledCircuit underneath).
//     Same fault universe (line + transistor), same records required
//     bit-identically.  Gate: >= 1.5x at 1 thread on the roster.
//
//  3. "batched" (a sub-object of BENCH_compiled.json): the vectorized-core
//     win on top of the compiled core.  "before" is the PR-5 single-fault
//     packed path (batch_line_faults=false: one eval_packed_line walk per
//     fault per 64-pattern word); "after" is the multi-fault batch kernel
//     (kBatchLanes faults share one suffix walk over kSimdWords-wide plane
//     groups), measured once with the portable uint64x4 backend and once
//     with whatever SIMD backend this build selected.  Gates: batched
//     portable >= 2x over single-fault; SIMD >= 1.15x over portable where
//     a vector backend is compiled in (the ratio shrinks whenever the
//     portable path gets faster — it dropped from ~1.33x to ~1.2x when the
//     work-reduction layer's restructuring improved portable code layout —
//     so the gate only guards against the backend losing its edge
//     outright).  All three paths bit-identical.
//
//  4. "dropping" (a sub-object of BENCH_compiled.json): the work-reduction
//     layer (fault dropping + critical-path tracing) vs the PR-7 batched
//     path, same universe, bit-identical records required.  Gate: >= 1.5x.
//
//  5. "large_circuit" (a sub-object of BENCH_compiled.json): the first
//     circuit-scale leg — alu_array(64) exported to `.bench` and
//     re-ingested through the foreign-netlist front end (~2.1k CP gates
//     after MAJ3 decomposition), so the measured circuit is the parser's
//     output, not the generator's.  Checks: parsed circuit functionally
//     matches the generator; a five-class fault campaign (line stuck-at,
//     both polarity faults, stuck-open, stuck-on) produces byte-identical
//     stable JSON at 1, 2, and 8 threads; and the batched line kernel
//     holds its >= 1.5x win over the single-fault walk at this scale.
//
// The last line printed is the concatenation marker-free JSON object of
// the *compiled* leg (with the batched sub-object merged in); both
// objects are written to their BENCH_*.json.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "engine/campaign.hpp"
#include "faults/eval_context.hpp"
#include "faults/fault_sim.hpp"
#include "gates/fault_dictionary.hpp"
#include "logic/bench_format.hpp"
#include "logic/benchmarks.hpp"
#include "logic/simd.hpp"
#include "util/rng.hpp"

namespace {

using namespace cpsinw;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::vector<logic::Pattern> random_patterns(const logic::Circuit& ckt,
                                            int count, std::uint64_t seed) {
  util::SplitMix64 rng(seed);
  std::vector<logic::Pattern> out;
  for (int k = 0; k < count; ++k) {
    logic::Pattern p(ckt.primary_inputs().size());
    for (logic::LogicV& v : p) v = logic::from_bool(rng.chance(0.5));
    out.push_back(std::move(p));
  }
  return out;
}

bool records_identical(const faults::DetectionRecord& a,
                       const faults::DetectionRecord& b) {
  return a.detected_output == b.detected_output &&
         a.detected_iddq == b.detected_iddq && a.potential == b.potential &&
         a.first_pattern == b.first_pattern;
}

// ---------------------------------------------------------------------------
// Interpreted reference evaluators: the pre-compiled-core library
// algorithms, frozen (the library itself now runs the table-driven
// kernels, so the interpreted walk lives here).
namespace interp {

using logic::Circuit;
using logic::GateInst;
using logic::LogicV;
using logic::NetId;
using logic::Pattern;
using logic::SimResult;

std::vector<LogicV> seed_values(const Circuit& ckt, const Pattern& pattern) {
  std::vector<LogicV> values(static_cast<std::size_t>(ckt.net_count()),
                             LogicV::kX);
  for (NetId n = 0; n < ckt.net_count(); ++n) {
    const LogicV c = ckt.constant_of(n);
    if (is_binary(c)) values[static_cast<std::size_t>(n)] = c;
  }
  for (std::size_t i = 0; i < pattern.size(); ++i)
    values[static_cast<std::size_t>(ckt.primary_inputs()[i])] = pattern[i];
  return values;
}

LogicV eval_gate(const GateInst& g, const std::vector<LogicV>& values) {
  const auto bits = logic::Simulator::local_input(g, values);
  if (!bits) {
    const auto in_at = [&](int i) {
      return g.in[static_cast<std::size_t>(i)] >= 0
                 ? values[static_cast<std::size_t>(
                       g.in[static_cast<std::size_t>(i)])]
                 : LogicV::kX;
    };
    return logic::eval_cell_x(g.kind, in_at(0), in_at(1), in_at(2));
  }
  return logic::from_bool(gates::good_output(g.kind, *bits) != 0);
}

SimResult simulate(const Circuit& ckt, const Pattern& pattern) {
  SimResult r;
  r.net_values = seed_values(ckt, pattern);
  for (const int gid : ckt.topo_order()) {
    const GateInst& g = ckt.gate(gid);
    r.net_values[static_cast<std::size_t>(g.out)] = eval_gate(g, r.net_values);
  }
  return r;
}

SimResult simulate_faulty(const Circuit& ckt, const Pattern& pattern,
                          int fault_gate, const gates::FaultAnalysis& fa,
                          const std::vector<LogicV>* previous_state) {
  SimResult r;
  r.net_values = seed_values(ckt, pattern);
  for (const int gid : ckt.topo_order()) {
    const GateInst& g = ckt.gate(gid);
    if (gid != fault_gate) {
      r.net_values[static_cast<std::size_t>(g.out)] =
          eval_gate(g, r.net_values);
      continue;
    }
    const auto bits = logic::Simulator::local_input(g, r.net_values);
    if (!bits) {
      r.net_values[static_cast<std::size_t>(g.out)] = LogicV::kX;
      continue;
    }
    const gates::FaultRow& row = fa.rows[*bits];
    if (row.faulty.contention) r.iddq_flag = true;
    const int fv =
        row.faulty.floating ? -2 : gates::logic_value(row.faulty.out);
    LogicV out = LogicV::kX;
    if (fv == 0) {
      out = LogicV::k0;
    } else if (fv == 1) {
      out = LogicV::k1;
    } else if (fv == -2) {
      out = previous_state != nullptr
                ? (*previous_state)[static_cast<std::size_t>(g.out)]
                : LogicV::kX;
      if (out == LogicV::kZ) out = LogicV::kX;
    }
    r.net_values[static_cast<std::size_t>(g.out)] = out;
  }
  return r;
}

std::vector<std::uint64_t> packed_line(const Circuit& ckt,
                                       const std::vector<std::uint64_t>& pi,
                                       const faults::Fault& fault) {
  std::vector<std::uint64_t> values(
      static_cast<std::size_t>(ckt.net_count()), 0);
  for (NetId n = 0; n < ckt.net_count(); ++n)
    if (ckt.constant_of(n) == LogicV::k1)
      values[static_cast<std::size_t>(n)] = ~0ull;
  for (std::size_t i = 0; i < pi.size(); ++i)
    values[static_cast<std::size_t>(ckt.primary_inputs()[i])] = pi[i];

  const std::uint64_t forced = fault.stuck_at_one ? ~0ull : 0ull;
  if (fault.site == faults::FaultSite::kNet)
    values[static_cast<std::size_t>(fault.net)] = forced;

  for (const int gid : ckt.topo_order()) {
    const GateInst& g = ckt.gate(gid);
    std::uint64_t in[3] = {0, 0, 0};
    for (int i = 0; i < g.input_count(); ++i) {
      in[i] =
          values[static_cast<std::size_t>(g.in[static_cast<std::size_t>(i)])];
      if (fault.site == faults::FaultSite::kGateInput && fault.gate == gid &&
          fault.pin == i)
        in[i] = forced;
    }
    std::uint64_t out = logic::eval_cell_packed(g.kind, in[0], in[1], in[2]);
    if (fault.site == faults::FaultSite::kNet && g.out == fault.net)
      out = forced;
    values[static_cast<std::size_t>(g.out)] = out;
  }
  return values;
}

/// Interpreted replica of the PR-2 context: packed batches built by the
/// interpreted simulate_packed, scalar goods by the interpreted simulator,
/// memoized-enough dictionaries (derived once per fault here; the
/// interesting cost is the per-gate walk, not the 2^n rows).
struct Context {
  std::vector<Pattern> patterns;
  std::vector<SimResult> good;
  struct Batch {
    std::size_t base = 0;
    std::uint64_t active = 0;
    std::vector<std::uint64_t> pi_words;
    std::vector<std::uint64_t> net_words;
  };
  std::vector<Batch> batches;
};

Context build_context(const Circuit& ckt, const std::vector<Pattern>& ps) {
  Context ctx;
  ctx.patterns = ps;
  for (const Pattern& p : ps) ctx.good.push_back(simulate(ckt, p));
  for (std::size_t base = 0; base < ps.size(); base += 64) {
    const std::size_t count = std::min<std::size_t>(64, ps.size() - base);
    Context::Batch b;
    b.base = base;
    b.active = count == 64 ? ~0ull : ((1ull << count) - 1ull);
    const std::vector<Pattern> slice(ps.begin() + static_cast<long>(base),
                                     ps.begin() +
                                         static_cast<long>(base + count));
    b.pi_words = logic::pack_patterns(ckt, slice);
    b.net_words = logic::simulate_packed(ckt, b.pi_words);
    ctx.batches.push_back(std::move(b));
  }
  return ctx;
}

faults::DetectionRecord transistor_serial(const Circuit& ckt,
                                          const Context& ctx,
                                          const faults::Fault& fault,
                                          const gates::FaultAnalysis& fa,
                                          const faults::FaultSimOptions& opt) {
  faults::DetectionRecord rec;
  std::vector<LogicV> state;
  for (std::size_t pi = 0; pi < ctx.patterns.size(); ++pi) {
    const SimResult& good = ctx.good[pi];
    const SimResult bad = simulate_faulty(
        ckt, ctx.patterns[pi], fault.gate, fa,
        opt.sequential_patterns && !state.empty() ? &state : nullptr);
    if (opt.sequential_patterns) state = bad.net_values;

    bool hit = false;
    if (bad.iddq_flag && opt.observe_iddq) {
      rec.detected_iddq = true;
      hit = true;
    }
    for (const NetId po : ckt.primary_outputs()) {
      const LogicV g = good.net_values[static_cast<std::size_t>(po)];
      const LogicV b = bad.net_values[static_cast<std::size_t>(po)];
      if (is_binary(g) && is_binary(b) && g != b) {
        rec.detected_output = true;
        hit = true;
      } else if (is_binary(g) && !is_binary(b)) {
        rec.potential = true;
      }
    }
    if (hit && rec.first_pattern < 0) rec.first_pattern = static_cast<int>(pi);
  }
  return rec;
}

faults::DetectionRecord transistor_packed(const Circuit& ckt,
                                          const Context& ctx,
                                          const faults::Fault& fault,
                                          const gates::FaultAnalysis& fa,
                                          const faults::FaultSimOptions& opt) {
  faults::DetectionRecord rec;
  std::vector<std::uint64_t> values(
      static_cast<std::size_t>(ckt.net_count()), 0);
  for (const Context::Batch& batch : ctx.batches) {
    for (NetId n = 0; n < ckt.net_count(); ++n)
      values[static_cast<std::size_t>(n)] =
          ckt.constant_of(n) == LogicV::k1 ? ~0ull : 0ull;
    for (std::size_t i = 0; i < batch.pi_words.size(); ++i)
      values[static_cast<std::size_t>(ckt.primary_inputs()[i])] =
          batch.pi_words[i];

    std::uint64_t contention = 0;
    for (const int gid : ckt.topo_order()) {
      const GateInst& g = ckt.gate(gid);
      std::uint64_t in[3] = {0, 0, 0};
      for (int i = 0; i < g.input_count(); ++i)
        in[i] = values[static_cast<std::size_t>(
            g.in[static_cast<std::size_t>(i)])];
      std::uint64_t out;
      if (gid == fault.gate) {
        out = 0;
        for (const gates::FaultRow& row : fa.rows) {
          std::uint64_t minterm = ~0ull;
          for (int i = 0; i < g.input_count(); ++i)
            minterm &= ((row.input >> i) & 1u) != 0 ? in[i] : ~in[i];
          if (fa.faulty_logic(row.input) == 1) out |= minterm;
          if (row.faulty.contention) contention |= minterm;
        }
      } else {
        out = logic::eval_cell_packed(g.kind, in[0], in[1], in[2]);
      }
      values[static_cast<std::size_t>(g.out)] = out;
    }

    std::uint64_t diff = 0;
    for (const NetId po : ckt.primary_outputs())
      diff |= (batch.net_words[static_cast<std::size_t>(po)] ^
               values[static_cast<std::size_t>(po)]);
    diff &= batch.active;
    contention &= batch.active;

    if (diff != 0) rec.detected_output = true;
    const std::uint64_t iddq = opt.observe_iddq ? contention : 0;
    if (iddq != 0) rec.detected_iddq = true;
    const std::uint64_t hit = diff | iddq;
    if (hit != 0 && rec.first_pattern < 0)
      rec.first_pattern = static_cast<int>(batch.base) + __builtin_ctzll(hit);
  }
  return rec;
}

/// The PR-2-era run_range, interpreted: packed line batches with fault
/// dropping and a fresh values vector per fault per batch, packed
/// transistor substitution for binary dictionaries, retained-state serial
/// for the rest.
std::vector<faults::DetectionRecord> run_range(
    const Circuit& ckt, const Context& ctx,
    const std::vector<faults::Fault>& fault_list,
    const faults::FaultSimOptions& opt) {
  std::vector<faults::DetectionRecord> records(fault_list.size());

  for (const Context::Batch& batch : ctx.batches) {
    for (std::size_t fi = 0; fi < fault_list.size(); ++fi) {
      const faults::Fault& f = fault_list[fi];
      if (f.site == faults::FaultSite::kGateTransistor) continue;
      faults::DetectionRecord& rec = records[fi];
      if (rec.detected_output) continue;  // fault dropping
      const auto faulty = packed_line(ckt, batch.pi_words, f);
      std::uint64_t diff = 0;
      for (const NetId po : ckt.primary_outputs())
        diff |= (batch.net_words[static_cast<std::size_t>(po)] ^
                 faulty[static_cast<std::size_t>(po)]);
      diff &= batch.active;
      if (diff != 0) {
        rec.detected_output = true;
        rec.first_pattern =
            static_cast<int>(batch.base) + __builtin_ctzll(diff);
      }
    }
  }

  for (std::size_t fi = 0; fi < fault_list.size(); ++fi) {
    const faults::Fault& f = fault_list[fi];
    if (f.site != faults::FaultSite::kGateTransistor) continue;
    const gates::FaultAnalysis& fa = gates::DictionaryCache::global().lookup(
        ckt.gate(f.gate).kind, f.cell_fault);
    records[fi] = !fa.needs_sequence && !fa.marginal_detectable
                      ? transistor_packed(ckt, ctx, f, fa, opt)
                      : transistor_serial(ckt, ctx, f, fa, opt);
  }
  return records;
}

}  // namespace interp

// ---------------------------------------------------------------------------
// Leg 1: shared-context speedup on the transistor hot loop (seed "before").

int run_context_leg() {
  const logic::Circuit ckt = logic::parity_tree(64);

  faults::FaultListOptions flo;
  flo.include_line_stuck_at = false;
  flo.include_transistor_faults = true;
  const std::vector<faults::Fault> universe = faults::generate_fault_list(ckt, flo);
  const std::vector<logic::Pattern> patterns = random_patterns(ckt, 128, 1);

  // Work reduction off: this leg measures the shared-context win alone;
  // fault dropping has its own leg.
  faults::FaultSimOptions options;
  options.drop_detected = false;
  options.critical_path_tracing = false;
  const double work = static_cast<double>(universe.size()) *
                      static_cast<double>(patterns.size());

  std::cout << "=== Shared-context transistor-fault throughput: "
            << "parity_tree(64), " << universe.size() << " faults x "
            << patterns.size() << " patterns, 1 thread ===\n";

  // ---- Before: seed algorithm, O(faults x patterns) interpreted
  // good-machine work plus an ad-hoc analyze_fault per fault.
  std::vector<faults::DetectionRecord> before_records;
  const auto t_before = Clock::now();
  for (const faults::Fault& f : universe) {
    const gates::FaultAnalysis fa =
        gates::analyze_fault(ckt.gate(f.gate).kind, f.cell_fault);
    faults::DetectionRecord rec;
    std::vector<logic::LogicV> state;
    for (std::size_t pi = 0; pi < patterns.size(); ++pi) {
      const logic::SimResult good = interp::simulate(ckt, patterns[pi]);
      const logic::SimResult bad = interp::simulate_faulty(
          ckt, patterns[pi], f.gate, fa,
          options.sequential_patterns && !state.empty() ? &state : nullptr);
      if (options.sequential_patterns) state = bad.net_values;
      bool hit = false;
      if (bad.iddq_flag && options.observe_iddq) {
        rec.detected_iddq = true;
        hit = true;
      }
      for (const logic::NetId po : ckt.primary_outputs()) {
        const logic::LogicV g =
            good.net_values[static_cast<std::size_t>(po)];
        const logic::LogicV b = bad.net_values[static_cast<std::size_t>(po)];
        if (is_binary(g) && is_binary(b) && g != b) {
          rec.detected_output = true;
          hit = true;
        } else if (is_binary(g) && !is_binary(b)) {
          rec.potential = true;
        }
      }
      if (hit && rec.first_pattern < 0)
        rec.first_pattern = static_cast<int>(pi);
    }
    before_records.push_back(rec);
  }
  const double before_s = seconds_since(t_before);

  // ---- After: one context (includes its build cost), context run.
  const faults::FaultSimulator fsim(ckt);
  const auto t_after = Clock::now();
  const faults::EvalContext ctx(ckt, patterns);
  const faults::FaultSimReport after = fsim.run(ctx, universe, options);
  const double after_s = seconds_since(t_after);

  bool identical = after.records.size() == before_records.size();
  for (std::size_t i = 0; identical && i < before_records.size(); ++i)
    identical = records_identical(before_records[i], after.records[i]);

  const double before_rate = before_s > 0.0 ? work / before_s : 0.0;
  const double after_rate = after_s > 0.0 ? work / after_s : 0.0;
  const double speedup = after_s > 0.0 ? before_s / after_s : 0.0;

  std::cout << "before (seed serial):   " << before_s * 1e3 << " ms, "
            << before_rate << " faults x patterns / s\n";
  std::cout << "after (shared context): " << after_s * 1e3 << " ms, "
            << after_rate << " faults x patterns / s\n";
  std::cout << "speedup: " << speedup << "x, records "
            << (identical ? "bit-identical" : "MISMATCH") << "\n\n";

  const std::string json =
      "{\"bench\":\"context\",\"circuit\":\"parity_tree_64\",\"faults\":" +
      std::to_string(universe.size()) +
      ",\"patterns\":" + std::to_string(patterns.size()) +
      ",\"before_s\":" + std::to_string(before_s) +
      ",\"after_s\":" + std::to_string(after_s) +
      ",\"before_fault_patterns_per_s\":" + std::to_string(before_rate) +
      ",\"after_fault_patterns_per_s\":" + std::to_string(after_rate) +
      ",\"speedup\":" + std::to_string(speedup) +
      ",\"identical\":" + (identical ? "true" : "false") + "}";
  std::ofstream("BENCH_context.json") << json << "\n";
  std::cout << json << "\n\n";

  return identical && speedup >= 2.0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Leg 2: compiled core vs the interpreted PR-2 engine, full fault classes.

int run_compiled_leg(std::string& json_out) {
  struct Entry {
    std::string name;
    logic::Circuit ckt;
  };
  std::vector<Entry> roster;
  roster.push_back({"parity_tree_48", logic::parity_tree(48)});
  roster.push_back({"ripple_adder_8", logic::ripple_adder(8)});
  roster.push_back({"alu_slice", logic::alu_slice()});
  roster.push_back({"tmr_voter_5", logic::tmr_voter(5)});
  roster.push_back({"c17", logic::c17()});

  // Work reduction off: the compiled-vs-interpreted comparison predates
  // the dropping layer and must keep measuring the same work.
  faults::FaultSimOptions options;
  options.drop_detected = false;
  options.critical_path_tracing = false;
  double before_total = 0.0;
  double after_total = 0.0;
  bool identical = true;
  std::size_t total_faults = 0;
  std::string per_circuit_json = "[";

  std::cout << "=== Compiled-core fault simulation vs interpreted engine "
            << "(line + transistor, 128 patterns, 1 thread) ===\n";

  for (std::size_t ci = 0; ci < roster.size(); ++ci) {
    const Entry& e = roster[ci];
    const std::vector<faults::Fault> universe =
        faults::generate_fault_list(e.ckt, {});
    const std::vector<logic::Pattern> patterns =
        random_patterns(e.ckt, 128, 17 + ci);
    total_faults += universe.size();

    // ---- Before: interpreted engine (context build + run, all walking
    // GateInst records).
    const auto t_before = Clock::now();
    const interp::Context ictx = interp::build_context(e.ckt, patterns);
    const std::vector<faults::DetectionRecord> before =
        interp::run_range(e.ckt, ictx, universe, options);
    const double before_s = seconds_since(t_before);

    // ---- After: the library path (compiled core), context build
    // included.
    const faults::FaultSimulator fsim(e.ckt);
    const auto t_after = Clock::now();
    const faults::EvalContext ctx(e.ckt, patterns);
    const faults::FaultSimReport after = fsim.run(ctx, universe, options);
    const double after_s = seconds_since(t_after);

    bool circuit_identical = after.records.size() == before.size();
    for (std::size_t i = 0; circuit_identical && i < before.size(); ++i)
      circuit_identical = records_identical(before[i], after.records[i]);
    identical = identical && circuit_identical;

    const double speedup = after_s > 0.0 ? before_s / after_s : 0.0;
    std::cout << e.name << ": " << universe.size() << " faults, "
              << before_s * 1e3 << " ms -> " << after_s * 1e3 << " ms ("
              << speedup << "x, "
              << (circuit_identical ? "bit-identical" : "MISMATCH") << ")\n";

    if (ci != 0) per_circuit_json += ",";
    per_circuit_json += "{\"circuit\":\"" + e.name +
                        "\",\"faults\":" + std::to_string(universe.size()) +
                        ",\"before_s\":" + std::to_string(before_s) +
                        ",\"after_s\":" + std::to_string(after_s) +
                        ",\"speedup\":" + std::to_string(speedup) + "}";
    before_total += before_s;
    after_total += after_s;
  }
  per_circuit_json += "]";

  const double speedup =
      after_total > 0.0 ? before_total / after_total : 0.0;
  std::cout << "roster: " << before_total * 1e3 << " ms -> "
            << after_total * 1e3 << " ms, speedup " << speedup
            << "x, records "
            << (identical ? "bit-identical" : "MISMATCH") << "\n\n";

  json_out =
      "{\"bench\":\"compiled\",\"faults\":" + std::to_string(total_faults) +
      ",\"patterns\":128,\"before_s\":" + std::to_string(before_total) +
      ",\"after_s\":" + std::to_string(after_total) +
      ",\"speedup\":" + std::to_string(speedup) +
      ",\"identical\":" + (identical ? "true" : "false") +
      ",\"threshold\":1.5,\"circuits\":" + per_circuit_json + "}";

  return identical && speedup >= 1.5 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Leg 3: the vectorized packed core (multi-fault batched line kernel +
// SoA transistor planes + SIMD widening) vs the PR-5 single-fault packed
// path.  The universe is every packed-eligible fault: all line faults plus
// every transistor fault with a purely binary dictionary.  Floating and
// marginal-row faults take the identical retained-state serial path under
// either configuration and are excluded — they would only dilute the
// packed-path measurement.
//
// "Before" is the PR-5 shape: line faults through the library's
// single-fault path (batch_line_faults=false — one init_packed +
// eval_packed_line per fault per 64-pattern batch with fault dropping),
// transistor faults through a bench-local replica of the PR-5
// simulate_transistor_packed (one init_packed + eval_packed_faulty per
// batch; that library body now runs the plane kernel, so the word-at-a-
// time walk is frozen here, mirroring the interp:: replicas above).

int run_batched_leg(std::string& json_out) {
  struct Entry {
    std::string name;
    logic::Circuit ckt;
  };
  std::vector<Entry> roster;
  roster.push_back({"parity_tree_48", logic::parity_tree(48)});
  roster.push_back({"ripple_adder_8", logic::ripple_adder(8)});
  roster.push_back({"alu_slice", logic::alu_slice()});
  roster.push_back({"tmr_voter_5", logic::tmr_voter(5)});
  roster.push_back({"c17", logic::c17()});

  // Work reduction off on both sides: this leg isolates the batch-kernel
  // win; the dropping leg below measures the work-reduction layer on top.
  faults::FaultSimOptions single;
  single.batch_line_faults = false;
  single.drop_detected = false;
  single.critical_path_tracing = false;
  faults::FaultSimOptions batched;  // batch_line_faults=true default
  batched.drop_detected = false;
  batched.critical_path_tracing = false;

  const logic::simd::Backend backend = logic::simd::compiled_backend();
  const bool have_simd = backend != logic::simd::Backend::kPortable;

  double before_total = 0.0;
  double portable_total = 0.0;
  double simd_total = 0.0;
  bool identical = true;
  std::size_t total_faults = 0;
  std::size_t total_excluded = 0;
  faults::LineBatchStats stats;
  std::string per_circuit_json = "[";

  std::cout << "=== Vectorized packed core vs PR-5 single-fault packed path "
            << "(line + binary-dictionary transistor faults, 4096 patterns, "
            << "1 thread, backend " << logic::simd::backend_name(backend)
            << ") ===\n";

  for (std::size_t ci = 0; ci < roster.size(); ++ci) {
    const Entry& e = roster[ci];
    // Packed-eligible universe, line faults first so one run_range
    // sub-range covers exactly the line portion.  Cross-class collapse is
    // off so the kernel workload stays comparable across commits — the
    // collapse mostly removes binary-dictionary stuck-ons, i.e. exactly
    // the plane-kernel work this leg measures.
    faults::FaultListOptions flo;
    flo.cross_class_collapse = false;
    const std::vector<faults::Fault> all =
        faults::generate_fault_list(e.ckt, flo);
    std::vector<faults::Fault> universe;
    std::vector<faults::Fault> trans;
    std::size_t excluded = 0;
    for (const faults::Fault& f : all) {
      if (f.site != faults::FaultSite::kGateTransistor) {
        universe.push_back(f);
        continue;
      }
      const gates::FaultAnalysis& fa = gates::DictionaryCache::global().lookup(
          e.ckt.gate(f.gate).kind, f.cell_fault);
      if (fa.compiled_binary)
        trans.push_back(f);
      else
        ++excluded;
    }
    const std::size_t n_line = universe.size();
    universe.insert(universe.end(), trans.begin(), trans.end());
    const std::vector<logic::Pattern> patterns =
        random_patterns(e.ckt, 4096, 29 + ci);
    total_faults += universe.size();
    total_excluded += excluded;

    const faults::FaultSimulator fsim(e.ckt);
    const logic::Simulator lsim(e.ckt);
    const logic::CompiledCircuit& cc = lsim.compiled();
    const faults::EvalContext ctx(e.ckt, patterns);  // shared by all paths

    // PR-5 shape over the whole universe: library single-fault line path,
    // bench-frozen word-at-a-time transistor substitution.
    const auto run_before = [&]() {
      std::vector<faults::DetectionRecord> recs =
          fsim.run_range(ctx, universe, 0, n_line, single);
      recs.resize(universe.size());
      std::vector<std::uint64_t> values;
      for (std::size_t i = n_line; i < universe.size(); ++i) {
        const faults::Fault& f = universe[i];
        const gates::FaultAnalysis& fa =
            gates::DictionaryCache::global().lookup(e.ckt.gate(f.gate).kind,
                                                    f.cell_fault);
        faults::DetectionRecord rec;
        for (std::size_t bi = 0; bi < ctx.batches().size(); ++bi) {
          const faults::EvalContext::Batch& batch = ctx.batches()[bi];
          cc.init_packed(batch.pi_words, values);
          const std::uint64_t cont =
              cc.eval_packed_faulty(values, f.gate, fa);
          std::uint64_t diff = 0;
          for (const logic::NetId po : e.ckt.primary_outputs())
            diff |= ctx.good_plane(po)[bi] ^
                    values[static_cast<std::size_t>(po)];
          diff &= batch.active;
          const std::uint64_t iddq = cont & batch.active;
          if (diff != 0) rec.detected_output = true;
          if (iddq != 0) rec.detected_iddq = true;
          const std::uint64_t hit = diff | iddq;
          if (hit != 0 && rec.first_pattern < 0)
            rec.first_pattern =
                static_cast<int>(batch.base) + __builtin_ctzll(hit);
        }
        recs[i] = rec;
      }
      return recs;
    };

    // Pilot run calibrates a repetition count so the small roster entries
    // (c17 is 6 gates) measure well above timer resolution.  Timing then
    // interleaves the three paths over several rounds and keeps each
    // path's minimum: this box shows 2x wall-clock swings between
    // back-to-back identical runs, and the minimum of interleaved blocks
    // is the standard noise-resistant estimate of uncontended cost.
    auto t0 = Clock::now();
    const std::vector<faults::DetectionRecord> reference = run_before();
    const double pilot_s = seconds_since(t0);
    const int reps = std::max(
        1, static_cast<int>(std::ceil(0.03 / std::max(pilot_s, 1e-7))));

    std::vector<faults::DetectionRecord> portable_records;
    std::vector<faults::DetectionRecord> simd_records;
    faults::LineBatchStats circuit_stats;
    {
      logic::simd::force_portable(true);
      faults::LineBatchStats first_stats;
      portable_records = fsim.run_range(ctx, universe, 0, universe.size(),
                                        batched, &first_stats);
      circuit_stats = first_stats;
      logic::simd::force_portable(false);
      simd_records = fsim.run_range(ctx, universe, 0, universe.size(), batched);
    }
    double before_s = 1e30;
    double portable_s = 1e30;
    double simd_s = 1e30;
    for (int round = 0; round < 9; ++round) {
      t0 = Clock::now();
      for (int r = 0; r < reps; ++r) (void)run_before();
      before_s = std::min(before_s, seconds_since(t0) / reps);

      logic::simd::force_portable(true);
      t0 = Clock::now();
      for (int r = 0; r < reps; ++r)
        (void)fsim.run_range(ctx, universe, 0, universe.size(), batched);
      portable_s = std::min(portable_s, seconds_since(t0) / reps);

      logic::simd::force_portable(false);
      t0 = Clock::now();
      for (int r = 0; r < reps; ++r)
        (void)fsim.run_range(ctx, universe, 0, universe.size(), batched);
      simd_s = std::min(simd_s, seconds_since(t0) / reps);
    }
    stats.merge(circuit_stats);

    bool circuit_identical =
        portable_records.size() == reference.size() &&
        simd_records.size() == reference.size();
    for (std::size_t i = 0; circuit_identical && i < reference.size(); ++i)
      circuit_identical =
          records_identical(reference[i], portable_records[i]) &&
          records_identical(reference[i], simd_records[i]);
    identical = identical && circuit_identical;

    const double speedup = portable_s > 0.0 ? before_s / portable_s : 0.0;
    const double simd_speedup = simd_s > 0.0 ? portable_s / simd_s : 0.0;
    std::cout << e.name << ": " << n_line << " line + "
              << universe.size() - n_line << " transistor faults ("
              << excluded << " serial excluded), " << before_s * 1e6
              << " us -> " << portable_s * 1e6 << " us portable (" << speedup
              << "x) -> " << simd_s * 1e6 << " us simd (" << simd_speedup
              << "x), "
              << (circuit_identical ? "bit-identical" : "MISMATCH") << "\n";

    if (ci != 0) per_circuit_json += ",";
    per_circuit_json += "{\"circuit\":\"" + e.name +
                        "\",\"faults\":" + std::to_string(universe.size()) +
                        ",\"line_faults\":" + std::to_string(n_line) +
                        ",\"serial_excluded\":" + std::to_string(excluded) +
                        ",\"reps\":" + std::to_string(reps) +
                        ",\"before_s\":" + std::to_string(before_s) +
                        ",\"batched_portable_s\":" + std::to_string(portable_s) +
                        ",\"batched_simd_s\":" + std::to_string(simd_s) +
                        ",\"speedup\":" + std::to_string(speedup) +
                        ",\"simd_speedup\":" + std::to_string(simd_speedup) +
                        "}";
    before_total += before_s;
    portable_total += portable_s;
    simd_total += simd_s;
  }
  per_circuit_json += "]";

  const double speedup =
      portable_total > 0.0 ? before_total / portable_total : 0.0;
  const double simd_speedup =
      simd_total > 0.0 ? portable_total / simd_total : 0.0;
  const double lane_fill =
      stats.groups > 0
          ? static_cast<double>(stats.lane_slots) /
                static_cast<double>(stats.groups *
                                    logic::CompiledCircuit::kBatchLanes)
          : 0.0;
  std::cout << "roster: " << before_total * 1e3 << " ms -> "
            << portable_total * 1e3 << " ms portable (" << speedup
            << "x) -> " << simd_total * 1e3 << " ms simd (" << simd_speedup
            << "x), lane fill " << lane_fill << ", records "
            << (identical ? "bit-identical" : "MISMATCH") << "\n\n";

  json_out =
      std::string("{\"patterns\":4096,\"backend\":\"") +
      logic::simd::backend_name(backend) +
      "\",\"faults\":" + std::to_string(total_faults) +
      ",\"serial_excluded\":" + std::to_string(total_excluded) +
      ",\"before_s\":" + std::to_string(before_total) +
      ",\"batched_portable_s\":" + std::to_string(portable_total) +
      ",\"batched_simd_s\":" + std::to_string(simd_total) +
      ",\"speedup\":" + std::to_string(speedup) +
      ",\"simd_speedup\":" + std::to_string(simd_speedup) +
      ",\"lane_fill\":" + std::to_string(lane_fill) +
      ",\"kernel_words\":" + std::to_string(stats.words) +
      ",\"identical\":" + (identical ? "true" : "false") +
      ",\"threshold\":2.0,\"simd_threshold\":1.15,\"simd_gated\":" +
      (have_simd ? "true" : "false") +
      ",\"circuits\":" + per_circuit_json + "}";

  const bool simd_ok = !have_simd || simd_speedup >= 1.15;
  return identical && speedup >= 2.0 && simd_ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Leg 4: the work-reduction layer (fault dropping + critical-path tracing)
// vs the PR-7 batched path it sits on.  Both sides run the same batched
// kernels over the same packed-eligible universe; "before" pins the
// work-reduction switches off, "after" is the library default (dropping
// on, CPT on, full detection mode).  The records must stay bit-identical —
// dropping only skips work whose outcome is already decided, and CPT is an
// exact analytical shortcut on its qualified cones.  Gate: >= 1.5x.

int run_dropping_leg(std::string& json_out) {
  struct Entry {
    std::string name;
    logic::Circuit ckt;
  };
  std::vector<Entry> roster;
  roster.push_back({"parity_tree_48", logic::parity_tree(48)});
  roster.push_back({"ripple_adder_8", logic::ripple_adder(8)});
  roster.push_back({"alu_slice", logic::alu_slice()});
  roster.push_back({"tmr_voter_5", logic::tmr_voter(5)});
  roster.push_back({"c17", logic::c17()});

  faults::FaultSimOptions pr7;  // the batched path, work reduction off
  pr7.drop_detected = false;
  pr7.critical_path_tracing = false;
  faults::FaultSimOptions reduced;  // the shipped defaults
  reduced.drop_detected = true;
  reduced.critical_path_tracing = true;

  double before_total = 0.0;
  double after_total = 0.0;
  bool identical = true;
  std::size_t total_faults = 0;
  faults::LineBatchStats stats;
  std::string per_circuit_json = "[";

  std::cout << "=== Work reduction (fault dropping + critical-path tracing) "
            << "vs the batched path (line + binary-dictionary transistor "
            << "faults, 4096 patterns, 1 thread) ===\n";

  for (std::size_t ci = 0; ci < roster.size(); ++ci) {
    const Entry& e = roster[ci];
    // Same packed-eligible universe shape as the batched leg: line faults
    // first, then every transistor fault with a purely binary dictionary.
    const std::vector<faults::Fault> all =
        faults::generate_fault_list(e.ckt, {});
    std::vector<faults::Fault> universe;
    std::vector<faults::Fault> trans;
    for (const faults::Fault& f : all) {
      if (f.site != faults::FaultSite::kGateTransistor) {
        universe.push_back(f);
        continue;
      }
      const gates::FaultAnalysis& fa = gates::DictionaryCache::global().lookup(
          e.ckt.gate(f.gate).kind, f.cell_fault);
      if (fa.compiled_binary) trans.push_back(f);
    }
    universe.insert(universe.end(), trans.begin(), trans.end());
    const std::vector<logic::Pattern> patterns =
        random_patterns(e.ckt, 4096, 43 + ci);
    total_faults += universe.size();

    const faults::FaultSimulator fsim(e.ckt);
    const faults::EvalContext ctx(e.ckt, patterns);

    // Correctness first: one run of each side, record for record.
    const std::vector<faults::DetectionRecord> reference =
        fsim.run_range(ctx, universe, 0, universe.size(), pr7);
    faults::LineBatchStats circuit_stats;
    const std::vector<faults::DetectionRecord> after = fsim.run_range(
        ctx, universe, 0, universe.size(), reduced, &circuit_stats);
    stats.merge(circuit_stats);

    bool circuit_identical = after.size() == reference.size();
    for (std::size_t i = 0; circuit_identical && i < reference.size(); ++i)
      circuit_identical = records_identical(reference[i], after[i]);
    identical = identical && circuit_identical;

    // Pilot-calibrated repetitions, min over interleaved rounds (same
    // noise discipline as the batched leg).
    auto t0 = Clock::now();
    (void)fsim.run_range(ctx, universe, 0, universe.size(), pr7);
    const double pilot_s = seconds_since(t0);
    const int reps = std::max(
        1, static_cast<int>(std::ceil(0.03 / std::max(pilot_s, 1e-7))));

    double before_s = 1e30;
    double after_s = 1e30;
    for (int round = 0; round < 9; ++round) {
      t0 = Clock::now();
      for (int r = 0; r < reps; ++r)
        (void)fsim.run_range(ctx, universe, 0, universe.size(), pr7);
      before_s = std::min(before_s, seconds_since(t0) / reps);

      t0 = Clock::now();
      for (int r = 0; r < reps; ++r)
        (void)fsim.run_range(ctx, universe, 0, universe.size(), reduced);
      after_s = std::min(after_s, seconds_since(t0) / reps);
    }

    const double speedup = after_s > 0.0 ? before_s / after_s : 0.0;
    std::cout << e.name << ": " << universe.size() << " faults, "
              << before_s * 1e6 << " us -> " << after_s * 1e6 << " us ("
              << speedup << "x, cpt " << circuit_stats.cpt_faults << "/"
              << circuit_stats.faults << " line faults, "
              << (circuit_identical ? "bit-identical" : "MISMATCH") << ")\n";

    if (ci != 0) per_circuit_json += ",";
    per_circuit_json += "{\"circuit\":\"" + e.name +
                        "\",\"faults\":" + std::to_string(universe.size()) +
                        ",\"cpt_line_faults\":" +
                        std::to_string(circuit_stats.cpt_faults) +
                        ",\"reps\":" + std::to_string(reps) +
                        ",\"before_s\":" + std::to_string(before_s) +
                        ",\"after_s\":" + std::to_string(after_s) +
                        ",\"speedup\":" + std::to_string(speedup) + "}";
    before_total += before_s;
    after_total += after_s;
  }
  per_circuit_json += "]";

  const double speedup =
      after_total > 0.0 ? before_total / after_total : 0.0;
  std::cout << "roster: " << before_total * 1e3 << " ms -> "
            << after_total * 1e3 << " ms, speedup " << speedup
            << "x, records "
            << (identical ? "bit-identical" : "MISMATCH") << "\n\n";

  json_out =
      "{\"patterns\":4096,\"faults\":" + std::to_string(total_faults) +
      ",\"before_s\":" + std::to_string(before_total) +
      ",\"after_s\":" + std::to_string(after_total) +
      ",\"speedup\":" + std::to_string(speedup) +
      ",\"cpt_line_faults\":" + std::to_string(stats.cpt_faults) +
      ",\"identical\":" + (identical ? "true" : "false") +
      ",\"threshold\":1.5,\"circuits\":" + per_circuit_json + "}";

  return identical && speedup >= 1.5 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Leg 5: circuit scale through the ingestion front end.  Everything the
// engine sees went through write_bench -> read_bench, so foreign-gate
// decomposition, net-name mangling, and PI/PO ordering are all on the
// measured path.

int run_large_circuit_leg(std::string& json_out) {
  const logic::Circuit native = logic::alu_array(64);
  const logic::Circuit ckt =
      logic::read_bench_string(logic::to_bench_string(native));
  const bool big_enough = ckt.gate_count() >= 1000;

  std::cout << "=== Large circuit via .bench ingestion (alu_array_64: "
            << native.gate_count() << " native -> " << ckt.gate_count()
            << " parsed gates) ===\n";

  // Functional check: the parsed circuit is the generator's circuit.
  bool equivalent = ckt.primary_inputs().size() ==
                        native.primary_inputs().size() &&
                    ckt.primary_outputs().size() ==
                        native.primary_outputs().size();
  if (equivalent) {
    const logic::Simulator sim_native(native);
    const logic::Simulator sim_parsed(ckt);
    const std::vector<logic::Pattern> checks = random_patterns(native, 32, 71);
    for (const logic::Pattern& p : checks) {
      const logic::SimResult ra = sim_native.simulate(p);
      const logic::SimResult rb = sim_parsed.simulate(p);
      for (std::size_t k = 0;
           equivalent && k < native.primary_outputs().size(); ++k)
        equivalent = ra.value(native.primary_outputs()[k]) ==
                     rb.value(ckt.primary_outputs()[k]);
      if (!equivalent) break;
    }
  }

  // Five-class campaign (line stuck-at + polarity n/p + stuck-open +
  // stuck-on), byte-identical stable JSON across thread counts.
  std::string reference_json;
  bool campaign_identical = true;
  std::size_t campaign_faults = 0;
  double campaign_s = 0.0;
  for (const int threads : {1, 2, 8}) {
    engine::CampaignSpec spec;
    spec.jobs.push_back({"alu_array_64_bench", ckt});
    spec.patterns.kind = engine::PatternSourceSpec::Kind::kRandom;
    spec.patterns.random_count = 128;
    spec.seed = 97;
    spec.threads = threads;
    const auto t0 = Clock::now();
    const engine::CampaignReport report = engine::run_campaign(spec);
    if (threads == 1) {
      campaign_s = seconds_since(t0);
      reference_json = report.to_json();
      campaign_faults =
          engine::build_universe(ckt, spec.models, spec.sim.observe_iddq)
              .size();
    } else {
      campaign_identical =
          campaign_identical && report.to_json() == reference_json;
    }
  }

  // Perf gate at scale: batched line kernel vs the single-fault packed
  // walk (work reduction off on both sides, as in the batched leg), on a
  // slice of the packed-eligible universe.
  faults::FaultSimOptions single;
  single.batch_line_faults = false;
  single.drop_detected = false;
  single.critical_path_tracing = false;
  faults::FaultSimOptions batched;
  batched.batch_line_faults = true;
  batched.drop_detected = false;
  batched.critical_path_tracing = false;

  const std::vector<faults::Fault> all = faults::generate_fault_list(ckt, {});
  std::vector<faults::Fault> universe;
  for (const faults::Fault& f : all) {
    if (f.site != faults::FaultSite::kGateTransistor) {
      universe.push_back(f);
      continue;
    }
    const gates::FaultAnalysis& fa = gates::DictionaryCache::global().lookup(
        ckt.gate(f.gate).kind, f.cell_fault);
    if (fa.compiled_binary) universe.push_back(f);
  }
  const std::size_t slice = std::min<std::size_t>(universe.size(), 1536);
  const std::vector<logic::Pattern> patterns = random_patterns(ckt, 256, 73);
  const faults::FaultSimulator fsim(ckt);
  const faults::EvalContext ctx(ckt, patterns);

  const std::vector<faults::DetectionRecord> reference =
      fsim.run_range(ctx, universe, 0, slice, single);
  const std::vector<faults::DetectionRecord> after =
      fsim.run_range(ctx, universe, 0, slice, batched);
  bool identical = after.size() == reference.size();
  for (std::size_t i = 0; identical && i < reference.size(); ++i)
    identical = records_identical(reference[i], after[i]);

  auto t0 = Clock::now();
  (void)fsim.run_range(ctx, universe, 0, slice, batched);
  const double pilot_s = seconds_since(t0);
  const int reps = std::max(
      1, static_cast<int>(std::ceil(0.03 / std::max(pilot_s, 1e-7))));

  double before_s = 1e30;
  double after_s = 1e30;
  for (int round = 0; round < 9; ++round) {
    t0 = Clock::now();
    for (int r = 0; r < reps; ++r)
      (void)fsim.run_range(ctx, universe, 0, slice, single);
    before_s = std::min(before_s, seconds_since(t0) / reps);

    t0 = Clock::now();
    for (int r = 0; r < reps; ++r)
      (void)fsim.run_range(ctx, universe, 0, slice, batched);
    after_s = std::min(after_s, seconds_since(t0) / reps);
  }
  const double speedup = after_s > 0.0 ? before_s / after_s : 0.0;

  std::cout << "campaign: " << campaign_faults << " classified faults, "
            << campaign_s * 1e3 << " ms at 1 thread, 1/2/8-thread JSON "
            << (campaign_identical ? "byte-identical" : "MISMATCH") << "\n";
  std::cout << "batched kernel: " << slice << " faults x 256 patterns, "
            << before_s * 1e3 << " ms -> " << after_s * 1e3 << " ms ("
            << speedup << "x, "
            << (identical ? "bit-identical" : "MISMATCH") << ", generator "
            << (equivalent ? "equivalent" : "MISMATCH") << ")\n\n";

  json_out =
      "{\"circuit\":\"alu_array_64_bench\",\"gates\":" +
      std::to_string(ckt.gate_count()) +
      ",\"native_gates\":" + std::to_string(native.gate_count()) +
      ",\"campaign_faults\":" + std::to_string(campaign_faults) +
      ",\"campaign_s\":" + std::to_string(campaign_s) +
      ",\"threads_identical\":" + (campaign_identical ? "true" : "false") +
      ",\"generator_equivalent\":" + (equivalent ? "true" : "false") +
      ",\"bench_faults\":" + std::to_string(slice) +
      ",\"before_s\":" + std::to_string(before_s) +
      ",\"after_s\":" + std::to_string(after_s) +
      ",\"speedup\":" + std::to_string(speedup) +
      ",\"identical\":" + (identical ? "true" : "false") +
      ",\"threshold\":1.5}";

  return big_enough && equivalent && campaign_identical && identical &&
                 speedup >= 1.5
             ? 0
             : 1;
}

}  // namespace

int main() {
  const int context_rc = run_context_leg();
  std::string compiled_json;
  std::string batched_json;
  std::string dropping_json;
  std::string large_json;
  const int compiled_rc = run_compiled_leg(compiled_json);
  const int batched_rc = run_batched_leg(batched_json);
  const int dropping_rc = run_dropping_leg(dropping_json);
  const int large_rc = run_large_circuit_leg(large_json);

  // One BENCH_compiled.json: the compiled-leg object with the batched,
  // dropping, and large-circuit legs merged in as sub-objects, so the
  // bench trajectory stays a single file per commit.
  const std::string json = compiled_json.substr(0, compiled_json.size() - 1) +
                           ",\"batched\":" + batched_json +
                           ",\"dropping\":" + dropping_json +
                           ",\"large_circuit\":" + large_json + "}";
  std::ofstream("BENCH_compiled.json") << json << "\n";
  std::cout << json << "\n";

  if (context_rc != 0) return context_rc;
  if (compiled_rc != 0) return compiled_rc;
  if (batched_rc != 0) return batched_rc;
  return dropping_rc != 0 ? dropping_rc : large_rc;
}
