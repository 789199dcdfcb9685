// SIMD plane-kernel bench: the stem walk behind the observability rows
// (CompiledCircuit::eval_packed_stem_planes), called directly over every
// stem of five circuits at the full 4096-pattern width, once with the
// portable uint64x4 backend and once with whatever SIMD backend this build
// selected.  A speedup only counts when the answer is bit-identical: the
// rows of both backends must agree word for word, every stem fault's
// record folded from the kernel's row must equal run_range's, and
// run_range over the circuit's line and binary-dictionary transistor
// faults must give the same records under both backends.  Gate: SIMD >=
// 1.15x over portable where a vector backend is compiled in (the ratio
// shrinks whenever the portable path gets faster, so the gate only guards
// against the backend losing its edge outright).  Perfbench cannot see
// this: it runs only the dispatched backend.
//
// Prints a table and, last, the JSON object it also writes to
// BENCH_compiled.json; exits nonzero on a mismatch or below the gate.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "faults/eval_context.hpp"
#include "faults/fault_list.hpp"
#include "faults/fault_sim.hpp"
#include "gates/dictionary_cache.hpp"
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

/// Six significant digits: a stem walk over a small circuit takes
/// microseconds, below std::to_string's fixed six decimals.
std::string num(double x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", x);
  return buf;
}

bool records_identical(const faults::DetectionRecord& a,
                       const faults::DetectionRecord& b) {
  return a.detected_output == b.detected_output &&
         a.detected_iddq == b.detected_iddq && a.potential == b.potential &&
         a.first_pattern == b.first_pattern;
}

bool all_identical(const std::vector<faults::DetectionRecord>& a,
                   const std::vector<faults::DetectionRecord>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!records_identical(a[i], b[i])) return false;
  return true;
}

/// The stems of a circuit: non-PO nets read by two or more pins.
std::vector<logic::NetId> stems_of(const logic::Circuit& ckt) {
  std::vector<char> is_po(static_cast<std::size_t>(ckt.net_count()), 0);
  for (const logic::NetId po : ckt.primary_outputs())
    is_po[static_cast<std::size_t>(po)] = 1;
  std::vector<logic::NetId> out;
  for (logic::NetId n = 0; n < ckt.net_count(); ++n)
    if (is_po[static_cast<std::size_t>(n)] == 0 && ckt.fanout(n).size() >= 2)
      out.push_back(n);
  return out;
}

/// Every stem's row from one direct kernel call each, concatenated.
std::vector<std::uint64_t> stem_rows(const faults::EvalContext& ctx,
                                     const std::vector<logic::NetId>& stems,
                                     std::vector<std::uint64_t>& lanes) {
  const std::size_t n_words = ctx.word_count();
  std::vector<std::uint64_t> rows(stems.size() * n_words);
  for (std::size_t i = 0; i < stems.size(); ++i)
    ctx.compiled().eval_packed_stem_planes(ctx.good_planes(),
                                           ctx.plane_stride(), n_words,
                                           stems[i], rows.data() + i * n_words,
                                           lanes);
  return rows;
}

/// Records of both stem faults of every stem (stuck-at-0 first), folded
/// from the kernel's rows: detected at the first pattern whose good value
/// differs from the stuck one where the row says the flip reaches a PO.
std::vector<faults::DetectionRecord> records_from_rows(
    const faults::EvalContext& ctx, const std::vector<logic::NetId>& stems,
    const std::vector<std::uint64_t>& rows) {
  const std::size_t n_words = ctx.word_count();
  std::vector<faults::DetectionRecord> recs;
  for (std::size_t i = 0; i < stems.size(); ++i)
    for (const std::uint64_t stuck : {0ull, ~0ull}) {
      faults::DetectionRecord rec;
      for (std::size_t w = 0; w < n_words; ++w) {
        const std::uint64_t d = (ctx.good_plane(stems[i])[w] ^ stuck) &
                                rows[i * n_words + w] &
                                ctx.active_words()[w];
        if (d == 0) continue;
        rec.detected_output = true;
        rec.first_pattern = static_cast<int>(w * 64) + __builtin_ctzll(d);
        break;
      }
      recs.push_back(rec);
    }
  return recs;
}

int run_stem_leg(std::string& json_out) {
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
  std::size_t total_stems = 0;
  std::size_t total_faults = 0;
  std::string per_circuit_json = "[";

  std::cout << "=== Stem walk, SIMD vs portable (every stem, full 4096-"
            << "pattern width, 1 thread, backend "
            << logic::simd::backend_name(backend) << ") ===\n";

  for (std::size_t ci = 0; ci < roster.size(); ++ci) {
    const Entry& e = roster[ci];
    const std::vector<logic::NetId> stems = stems_of(e.ckt);
    // The faults that read observability rows: every line fault and every
    // transistor fault with a purely binary dictionary.  Cross-class
    // collapse is off so the workload stays comparable across commits.
    faults::FaultListOptions flo;
    flo.cross_class_collapse = false;
    std::vector<faults::Fault> universe;
    for (const faults::Fault& f : faults::generate_fault_list(e.ckt, flo))
      if (f.site != faults::FaultSite::kGateTransistor ||
          gates::DictionaryCache::global()
              .lookup(e.ckt.gate(f.gate).kind, f.cell_fault)
              .compiled_binary)
        universe.push_back(f);
    std::vector<faults::Fault> stem_faults;
    for (const logic::NetId n : stems)
      for (const bool one : {false, true})
        stem_faults.push_back(faults::Fault::net_stuck(n, one));
    const std::vector<logic::Pattern> patterns =
        random_patterns(e.ckt, 4096, 29 + ci);
    total_stems += stems.size();
    total_faults += universe.size();

    const faults::FaultSimulator fsim(e.ckt);
    const faults::EvalContext ctx(e.ckt, patterns);
    std::vector<std::uint64_t> lanes;

    // Correctness first: rows and records under both backends.  run_range
    // runs on a fresh context per backend, so each fills its own rows.
    logic::simd::force_portable(true);
    const std::vector<std::uint64_t> rows_portable =
        stem_rows(ctx, stems, lanes);
    std::vector<faults::DetectionRecord> walk_portable;
    std::vector<faults::DetectionRecord> stems_portable;
    {
      const faults::EvalContext fresh(e.ckt, patterns);
      walk_portable = fsim.run_range(fresh, universe, 0, universe.size());
      stems_portable = fsim.run_range(fresh, stem_faults, 0,
                                      stem_faults.size());
    }
    logic::simd::force_portable(false);
    const std::vector<std::uint64_t> rows_simd = stem_rows(ctx, stems, lanes);
    std::vector<faults::DetectionRecord> walk_simd;
    std::vector<faults::DetectionRecord> stems_simd;
    {
      const faults::EvalContext fresh(e.ckt, patterns);
      walk_simd = fsim.run_range(fresh, universe, 0, universe.size());
      stems_simd = fsim.run_range(fresh, stem_faults, 0, stem_faults.size());
    }
    const bool circuit_identical =
        rows_portable == rows_simd && all_identical(walk_portable, walk_simd) &&
        all_identical(records_from_rows(ctx, stems, rows_portable),
                      stems_portable) &&
        all_identical(stems_portable, stems_simd);
    identical = identical && circuit_identical;

    // Pilot run calibrates a repetition count so the small roster entries
    // (c17 is 6 gates) measure well above timer resolution.  Timing then
    // interleaves the two backends over several rounds and keeps each
    // one's minimum: this box shows 2x wall-clock swings between
    // back-to-back identical runs, and the minimum of interleaved blocks
    // is the standard noise-resistant estimate of uncontended cost.  A
    // circuit without stems (every net a PO or fan-out-free) has nothing
    // to time.
    logic::simd::force_portable(true);
    auto t0 = Clock::now();
    (void)stem_rows(ctx, stems, lanes);
    const double pilot_s = seconds_since(t0);
    const int reps =
        stems.empty() ? 0
                      : std::max(1, static_cast<int>(std::ceil(
                                        0.03 / std::max(pilot_s, 1e-7))));
    double portable_s = stems.empty() ? 0.0 : 1e30;
    double simd_s = stems.empty() ? 0.0 : 1e30;
    for (int round = 0; round < 9 && !stems.empty(); ++round) {
      logic::simd::force_portable(true);
      t0 = Clock::now();
      for (int r = 0; r < reps; ++r) (void)stem_rows(ctx, stems, lanes);
      portable_s = std::min(portable_s, seconds_since(t0) / reps);

      logic::simd::force_portable(false);
      t0 = Clock::now();
      for (int r = 0; r < reps; ++r) (void)stem_rows(ctx, stems, lanes);
      simd_s = std::min(simd_s, seconds_since(t0) / reps);
    }

    const double simd_speedup = simd_s > 0.0 ? portable_s / simd_s : 0.0;
    std::cout << e.name << ": " << stems.size() << " stems ("
              << universe.size() << " row-reading faults), "
              << portable_s * 1e6 << " us portable -> " << simd_s * 1e6
              << " us simd (" << simd_speedup << "x), "
              << (circuit_identical ? "bit-identical" : "MISMATCH") << "\n";

    if (ci != 0) per_circuit_json += ",";
    per_circuit_json += "{\"circuit\":\"" + e.name +
                        "\",\"stems\":" + std::to_string(stems.size()) +
                        ",\"faults\":" + std::to_string(universe.size()) +
                        ",\"reps\":" + std::to_string(reps) +
                        ",\"stem_portable_s\":" + num(portable_s) +
                        ",\"stem_simd_s\":" + num(simd_s) +
                        ",\"simd_speedup\":" + num(simd_speedup) + "}";
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
      "\",\"stems\":" + std::to_string(total_stems) +
      ",\"faults\":" + std::to_string(total_faults) +
      ",\"stem_portable_s\":" + num(portable_total) +
      ",\"stem_simd_s\":" + num(simd_total) +
      ",\"simd_speedup\":" + num(simd_speedup) +
      ",\"identical\":" + (identical ? "true" : "false") +
      ",\"simd_threshold\":1.15,\"simd_gated\":" +
      (have_simd ? "true" : "false") +
      ",\"circuits\":" + per_circuit_json + "}";

  const bool simd_ok = !have_simd || simd_speedup >= 1.15;
  return identical && simd_ok ? 0 : 1;
}

}  // namespace

int main() {
  std::string json;
  const int rc = run_stem_leg(json);
  std::ofstream("BENCH_compiled.json") << json << "\n";
  std::cout << json << "\n";
  return rc;
}
