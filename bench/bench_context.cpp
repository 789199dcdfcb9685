// SIMD plane-kernel bench: the two stem walks behind the observability
// rows (CompiledCircuit::eval_packed_stem_planes, the binary row, and
// eval_packed_stem_x_planes, the X row), called directly over every stem
// of six circuits at the full 4096-pattern width, once with the portable
// uint64x4 backend and once with whatever SIMD backend this build
// selected.  A speedup only counts when the answer is bit-identical: both
// kinds of row must agree word for word across the backends, every stem
// fault's record folded from the kernel's binary row must equal
// run_range's, and run_range over every line and transistor fault of the
// circuit (all of them read rows) must give the same records under both
// backends.  Gate: each walk's SIMD roster total >= 1.15x over portable
// where a vector backend is compiled in (the ratio shrinks whenever the
// portable path gets faster, so the gate only guards against the backend
// losing its edge outright).  Perfbench cannot see this: it runs only the
// dispatched backend.
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

/// Every stem's binary (x false) or X (x true) row from one direct kernel
/// call each, concatenated.
std::vector<std::uint64_t> stem_rows(const faults::EvalContext& ctx,
                                     const std::vector<logic::NetId>& stems,
                                     bool x,
                                     std::vector<std::uint64_t>& lanes) {
  const logic::CompiledCircuit& cc = ctx.compiled();
  const std::size_t n_words = ctx.word_count();
  std::vector<std::uint64_t> rows(stems.size() * n_words);
  for (std::size_t i = 0; i < stems.size(); ++i) {
    std::uint64_t* const row = rows.data() + i * n_words;
    if (x)
      cc.eval_packed_stem_x_planes(ctx.good_planes(), ctx.plane_stride(),
                                   n_words, stems[i], row, lanes);
    else
      cc.eval_packed_stem_planes(ctx.good_planes(), ctx.plane_stride(),
                                 n_words, stems[i], row, lanes);
  }
  return rows;
}

/// One walk's minimum per-call seconds on each backend.
struct Timing {
  double portable_s = 0.0;
  double simd_s = 0.0;
  int reps = 0;
};

/// Times both backends' walks of every stem: a pilot run calibrates a
/// repetition count so the small roster entries (c17 is 6 gates) measure
/// well above timer resolution, then 15 rounds interleave the two
/// backends and keep each one's minimum — this box shows 2x wall-clock
/// swings between back-to-back identical runs, and the minimum of
/// interleaved blocks is the standard noise-resistant estimate of
/// uncontended cost.  A circuit without stems (every net a PO or
/// fan-out-free) has nothing to time.
Timing time_walks(const faults::EvalContext& ctx,
                  const std::vector<logic::NetId>& stems, bool x,
                  std::vector<std::uint64_t>& lanes) {
  Timing t;
  if (stems.empty()) return t;
  logic::simd::force_portable(true);
  auto t0 = Clock::now();
  (void)stem_rows(ctx, stems, x, lanes);
  const double pilot_s = seconds_since(t0);
  t.reps = std::max(1, static_cast<int>(std::ceil(
                           0.03 / std::max(pilot_s, 1e-7))));
  t.portable_s = 1e30;
  t.simd_s = 1e30;
  for (int round = 0; round < 15; ++round) {
    for (const bool portable : {true, false}) {
      logic::simd::force_portable(portable);
      t0 = Clock::now();
      for (int r = 0; r < t.reps; ++r) (void)stem_rows(ctx, stems, x, lanes);
      double& best = portable ? t.portable_s : t.simd_s;
      best = std::min(best, seconds_since(t0) / t.reps);
    }
  }
  logic::simd::force_portable(false);
  return t;
}

double speedup(double portable_s, double simd_s) {
  return simd_s > 0.0 ? portable_s / simd_s : 0.0;
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
  roster.push_back({"alu_array_16", logic::alu_array(16)});

  const logic::simd::Backend backend = logic::simd::compiled_backend();
  const bool have_simd = backend != logic::simd::Backend::kPortable;

  Timing total;
  Timing total_x;
  bool identical = true;
  std::size_t total_stems = 0;
  std::size_t total_faults = 0;
  std::string per_circuit_json = "[";

  std::cout << "=== Stem walks, SIMD vs portable (every stem, binary and X "
            << "rows, full 4096-pattern width, 1 thread, backend "
            << logic::simd::backend_name(backend) << ") ===\n";

  for (std::size_t ci = 0; ci < roster.size(); ++ci) {
    const Entry& e = roster[ci];
    const std::vector<logic::NetId> stems = stems_of(e.ckt);
    // Every line and transistor fault reads rows.  Cross-class collapse is
    // off so the workload stays comparable across commits.
    faults::FaultListOptions flo;
    flo.cross_class_collapse = false;
    const std::vector<faults::Fault> universe =
        faults::generate_fault_list(e.ckt, flo);
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
    std::vector<std::uint64_t> rows[2][2];  // [portable][x]
    std::vector<faults::DetectionRecord> walk[2];
    std::vector<faults::DetectionRecord> stem_recs[2];
    for (const bool portable : {true, false}) {
      logic::simd::force_portable(portable);
      for (const bool x : {false, true})
        rows[portable][x] = stem_rows(ctx, stems, x, lanes);
      const faults::EvalContext fresh(e.ckt, patterns);
      walk[portable] = fsim.run_range(fresh, universe, 0, universe.size());
      stem_recs[portable] =
          fsim.run_range(fresh, stem_faults, 0, stem_faults.size());
    }
    logic::simd::force_portable(false);
    const bool circuit_identical =
        rows[true][false] == rows[false][false] &&
        rows[true][true] == rows[false][true] &&
        all_identical(walk[true], walk[false]) &&
        all_identical(records_from_rows(ctx, stems, rows[true][false]),
                      stem_recs[true]) &&
        all_identical(stem_recs[true], stem_recs[false]);
    identical = identical && circuit_identical;

    const Timing t = time_walks(ctx, stems, false, lanes);
    const Timing tx = time_walks(ctx, stems, true, lanes);
    std::cout << e.name << ": " << stems.size() << " stems ("
              << universe.size() << " faults), binary " << t.portable_s * 1e6
              << " us portable -> " << t.simd_s * 1e6 << " us simd ("
              << speedup(t.portable_s, t.simd_s) << "x), X "
              << tx.portable_s * 1e6 << " us -> " << tx.simd_s * 1e6
              << " us (" << speedup(tx.portable_s, tx.simd_s) << "x), "
              << (circuit_identical ? "bit-identical" : "MISMATCH") << "\n";

    if (ci != 0) per_circuit_json += ",";
    per_circuit_json +=
        "{\"circuit\":\"" + e.name +
        "\",\"stems\":" + std::to_string(stems.size()) +
        ",\"faults\":" + std::to_string(universe.size()) +
        ",\"reps\":" + std::to_string(t.reps) +
        ",\"stem_portable_s\":" + num(t.portable_s) +
        ",\"stem_simd_s\":" + num(t.simd_s) +
        ",\"simd_speedup\":" + num(speedup(t.portable_s, t.simd_s)) +
        ",\"x_reps\":" + std::to_string(tx.reps) +
        ",\"x_portable_s\":" + num(tx.portable_s) +
        ",\"x_simd_s\":" + num(tx.simd_s) +
        ",\"x_simd_speedup\":" + num(speedup(tx.portable_s, tx.simd_s)) +
        "}";
    total.portable_s += t.portable_s;
    total.simd_s += t.simd_s;
    total_x.portable_s += tx.portable_s;
    total_x.simd_s += tx.simd_s;
  }
  per_circuit_json += "]";

  const double simd_speedup = speedup(total.portable_s, total.simd_s);
  const double x_simd_speedup = speedup(total_x.portable_s, total_x.simd_s);
  std::cout << "roster: binary " << total.portable_s * 1e3
            << " ms portable -> " << total.simd_s * 1e3 << " ms simd ("
            << simd_speedup << "x), X " << total_x.portable_s * 1e3
            << " ms -> " << total_x.simd_s * 1e3 << " ms (" << x_simd_speedup
            << "x), records " << (identical ? "bit-identical" : "MISMATCH")
            << "\n\n";

  json_out =
      std::string("{\"patterns\":4096,\"backend\":\"") +
      logic::simd::backend_name(backend) +
      "\",\"stems\":" + std::to_string(total_stems) +
      ",\"faults\":" + std::to_string(total_faults) +
      ",\"stem_portable_s\":" + num(total.portable_s) +
      ",\"stem_simd_s\":" + num(total.simd_s) +
      ",\"simd_speedup\":" + num(simd_speedup) +
      ",\"x_portable_s\":" + num(total_x.portable_s) +
      ",\"x_simd_s\":" + num(total_x.simd_s) +
      ",\"x_simd_speedup\":" + num(x_simd_speedup) +
      ",\"identical\":" + (identical ? "true" : "false") +
      ",\"simd_threshold\":1.15,\"simd_gated\":" +
      (have_simd ? "true" : "false") +
      ",\"circuits\":" + per_circuit_json + "}";

  const bool simd_ok =
      !have_simd || (simd_speedup >= 1.15 && x_simd_speedup >= 1.15);
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
