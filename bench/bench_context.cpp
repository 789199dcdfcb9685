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
//  3. "batched" (a sub-object of BENCH_compiled.json): the SIMD win on the
//     plane kernels — the multi-fault line kernel (kBatchLanes faults
//     share one suffix walk over kSimdWords-wide plane groups) and the
//     binary transistor kernel, called directly at the full 4096-pattern
//     width, once with the portable uint64x4 backend and once with
//     whatever SIMD backend this build selected.  Gate: SIMD >= 1.15x over
//     portable where a vector backend is compiled in (the ratio shrinks
//     whenever the portable path gets faster, so the gate only guards
//     against the backend losing its edge outright).  Records from the
//     kernel words of both backends and from run_range under both
//     backends must be bit-identical.
//
//  4. "large_circuit" (a sub-object of BENCH_compiled.json): the first
//     circuit-scale leg — alu_array(64) exported to `.bench` and
//     re-ingested through the foreign-netlist front end (~2.1k CP gates
//     after MAJ3 decomposition), so the measured circuit is the parser's
//     output, not the generator's.  Checks: parsed circuit functionally
//     matches the generator, and a five-class fault campaign (line
//     stuck-at, both polarity faults, stuck-open, stuck-on) produces
//     byte-identical stable JSON at 1, 2, and 8 threads.
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

  const faults::FaultSimOptions options;
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

  const faults::FaultSimOptions options;
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
// Leg 3: the SIMD plane kernels vs the portable backend.  The universe is
// every fault of the binary plane kernels: all line faults plus every
// transistor fault with a purely binary dictionary (floating and
// marginal-row faults run the retained-state kernel and are excluded).
// Both kernels are called directly at the full 4096-pattern width: timed
// through run_range, most faults stop inside the dropping walk's narrow
// first strip, and the backend difference drowns in per-fault overhead.

/// Records of `universe` (line faults in [0, n_line), binary-dictionary
/// transistor faults after) from full-width kernel calls, folded as a
/// full-mode run with IDDQ observed.
std::vector<faults::DetectionRecord> full_width_records(
    const faults::EvalContext& ctx, const std::vector<faults::Fault>& universe,
    std::size_t n_line) {
  using logic::CompiledCircuit;
  const CompiledCircuit& cc = ctx.compiled();
  const logic::Circuit& ckt = ctx.circuit();
  const std::size_t n_words = ctx.word_count();
  const std::uint64_t* const active = ctx.active_words().data();
  std::vector<faults::DetectionRecord> recs(universe.size());

  std::vector<std::uint64_t> det(CompiledCircuit::kBatchLanes * n_words);
  std::vector<std::uint64_t> lanes;
  for (std::size_t g = 0; g < n_line; g += CompiledCircuit::kBatchLanes) {
    const std::size_t n = std::min(CompiledCircuit::kBatchLanes, n_line - g);
    CompiledCircuit::LineFault lfs[CompiledCircuit::kBatchLanes];
    for (std::size_t j = 0; j < n; ++j)
      lfs[j] = faults::checked_line_fault(ckt, universe[g + j]);
    const std::size_t words_done =
        cc.eval_packed_line_batch(ctx.good_planes(), ctx.plane_stride(),
                                  n_words, active, lfs, n, det.data(), lanes);
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint64_t* fd = det.data() + j * n_words;
      for (std::size_t w = 0; w < words_done; ++w) {
        if (fd[w] == 0) continue;
        recs[g + j].detected_output = true;
        recs[g + j].first_pattern =
            static_cast<int>(w * 64) + __builtin_ctzll(fd[w]);
        break;
      }
    }
  }

  std::vector<std::uint64_t> diff(n_words);
  std::vector<std::uint64_t> contention(n_words);
  for (std::size_t i = n_line; i < universe.size(); ++i) {
    const faults::Fault& f = universe[i];
    cc.eval_packed_faulty_planes(
        ctx.good_planes(), ctx.plane_stride(), n_words, f.gate,
        ctx.dictionary(ckt.gate(f.gate).kind, f.cell_fault), diff.data(),
        contention.data(), lanes);
    faults::DetectionRecord& rec = recs[i];
    for (std::size_t w = 0; w < n_words; ++w) {
      const std::uint64_t d = diff[w] & active[w];
      const std::uint64_t c = contention[w] & active[w];
      rec.detected_output = rec.detected_output || d != 0;
      rec.detected_iddq = rec.detected_iddq || c != 0;
      if (rec.first_pattern < 0 && (d | c) != 0)
        rec.first_pattern = static_cast<int>(w * 64) + __builtin_ctzll(d | c);
    }
  }
  return recs;
}

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

  const logic::simd::Backend backend = logic::simd::compiled_backend();
  const bool have_simd = backend != logic::simd::Backend::kPortable;

  double portable_total = 0.0;
  double simd_total = 0.0;
  bool identical = true;
  std::size_t total_faults = 0;
  std::size_t total_excluded = 0;
  std::string per_circuit_json = "[";

  std::cout << "=== Plane kernels, SIMD vs portable (line + binary-dictionary "
            << "transistor faults, full 4096-pattern width, 1 thread, "
            << "backend " << logic::simd::backend_name(backend) << ") ===\n";

  for (std::size_t ci = 0; ci < roster.size(); ++ci) {
    const Entry& e = roster[ci];
    // Plane-eligible universe, line faults first.  Cross-class collapse is
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
    const faults::EvalContext ctx(e.ckt, patterns);

    // Correctness first: kernel words and the dropping walk, each under
    // both backends, must agree record for record.
    logic::simd::force_portable(true);
    const std::vector<faults::DetectionRecord> reference =
        full_width_records(ctx, universe, n_line);
    const std::vector<faults::DetectionRecord> walk_portable =
        fsim.run_range(ctx, universe, 0, universe.size());
    logic::simd::force_portable(false);
    const std::vector<faults::DetectionRecord> kernel_simd =
        full_width_records(ctx, universe, n_line);
    const std::vector<faults::DetectionRecord> walk_simd =
        fsim.run_range(ctx, universe, 0, universe.size());
    bool circuit_identical = true;
    for (const auto* recs : {&walk_portable, &kernel_simd, &walk_simd}) {
      circuit_identical = circuit_identical && recs->size() == reference.size();
      for (std::size_t i = 0; circuit_identical && i < reference.size(); ++i)
        circuit_identical = records_identical(reference[i], (*recs)[i]);
    }
    identical = identical && circuit_identical;

    // Pilot run calibrates a repetition count so the small roster entries
    // (c17 is 6 gates) measure well above timer resolution.  Timing then
    // interleaves the two backends over several rounds and keeps each
    // one's minimum: this box shows 2x wall-clock swings between
    // back-to-back identical runs, and the minimum of interleaved blocks
    // is the standard noise-resistant estimate of uncontended cost.
    logic::simd::force_portable(true);
    auto t0 = Clock::now();
    (void)full_width_records(ctx, universe, n_line);
    const double pilot_s = seconds_since(t0);
    const int reps = std::max(
        1, static_cast<int>(std::ceil(0.03 / std::max(pilot_s, 1e-7))));
    double portable_s = 1e30;
    double simd_s = 1e30;
    for (int round = 0; round < 9; ++round) {
      logic::simd::force_portable(true);
      t0 = Clock::now();
      for (int r = 0; r < reps; ++r)
        (void)full_width_records(ctx, universe, n_line);
      portable_s = std::min(portable_s, seconds_since(t0) / reps);

      logic::simd::force_portable(false);
      t0 = Clock::now();
      for (int r = 0; r < reps; ++r)
        (void)full_width_records(ctx, universe, n_line);
      simd_s = std::min(simd_s, seconds_since(t0) / reps);
    }

    const double simd_speedup = simd_s > 0.0 ? portable_s / simd_s : 0.0;
    std::cout << e.name << ": " << n_line << " line + "
              << universe.size() - n_line << " transistor faults ("
              << excluded << " retained excluded), " << portable_s * 1e6
              << " us portable -> " << simd_s * 1e6 << " us simd ("
              << simd_speedup << "x), "
              << (circuit_identical ? "bit-identical" : "MISMATCH") << "\n";

    if (ci != 0) per_circuit_json += ",";
    per_circuit_json += "{\"circuit\":\"" + e.name +
                        "\",\"faults\":" + std::to_string(universe.size()) +
                        ",\"line_faults\":" + std::to_string(n_line) +
                        ",\"retained_excluded\":" + std::to_string(excluded) +
                        ",\"reps\":" + std::to_string(reps) +
                        ",\"batched_portable_s\":" + std::to_string(portable_s) +
                        ",\"batched_simd_s\":" + std::to_string(simd_s) +
                        ",\"simd_speedup\":" + std::to_string(simd_speedup) +
                        "}";
    portable_total += portable_s;
    simd_total += simd_s;
  }
  per_circuit_json += "]";

  const double simd_speedup =
      simd_total > 0.0 ? portable_total / simd_total : 0.0;
  std::cout << "roster: " << portable_total * 1e3 << " ms portable -> "
            << simd_total * 1e3 << " ms simd (" << simd_speedup
            << "x), records "
            << (identical ? "bit-identical" : "MISMATCH") << "\n\n";

  json_out =
      std::string("{\"patterns\":4096,\"backend\":\"") +
      logic::simd::backend_name(backend) +
      "\",\"faults\":" + std::to_string(total_faults) +
      ",\"retained_excluded\":" + std::to_string(total_excluded) +
      ",\"batched_portable_s\":" + std::to_string(portable_total) +
      ",\"batched_simd_s\":" + std::to_string(simd_total) +
      ",\"simd_speedup\":" + std::to_string(simd_speedup) +
      ",\"identical\":" + (identical ? "true" : "false") +
      ",\"simd_threshold\":1.15,\"simd_gated\":" +
      (have_simd ? "true" : "false") +
      ",\"circuits\":" + per_circuit_json + "}";

  const bool simd_ok = !have_simd || simd_speedup >= 1.15;
  return identical && simd_ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Leg 4: circuit scale through the ingestion front end.  Everything the
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

  std::cout << "campaign: " << campaign_faults << " classified faults, "
            << campaign_s * 1e3 << " ms at 1 thread, 1/2/8-thread JSON "
            << (campaign_identical ? "byte-identical" : "MISMATCH")
            << ", generator " << (equivalent ? "equivalent" : "MISMATCH")
            << "\n\n";

  json_out =
      "{\"circuit\":\"alu_array_64_bench\",\"gates\":" +
      std::to_string(ckt.gate_count()) +
      ",\"native_gates\":" + std::to_string(native.gate_count()) +
      ",\"campaign_faults\":" + std::to_string(campaign_faults) +
      ",\"campaign_s\":" + std::to_string(campaign_s) +
      ",\"threads_identical\":" + (campaign_identical ? "true" : "false") +
      ",\"generator_equivalent\":" + (equivalent ? "true" : "false") + "}";

  return big_enough && equivalent && campaign_identical ? 0 : 1;
}

}  // namespace

int main() {
  const int context_rc = run_context_leg();
  std::string compiled_json;
  std::string batched_json;
  std::string large_json;
  const int compiled_rc = run_compiled_leg(compiled_json);
  const int batched_rc = run_batched_leg(batched_json);
  const int large_rc = run_large_circuit_leg(large_json);

  // One BENCH_compiled.json: the compiled-leg object with the batched and
  // large-circuit legs merged in as sub-objects, so the bench trajectory
  // stays a single file per commit.
  const std::string json = compiled_json.substr(0, compiled_json.size() - 1) +
                           ",\"batched\":" + batched_json +
                           ",\"large_circuit\":" + large_json + "}";
  std::ofstream("BENCH_compiled.json") << json << "\n";
  std::cout << json << "\n";

  if (context_rc != 0) return context_rc;
  if (compiled_rc != 0) return compiled_rc;
  return batched_rc != 0 ? batched_rc : large_rc;
}
