// SIMD plane-kernel bench: the multi-fault line kernel (kBatchLanes
// faults share one suffix walk over kSimdWords-wide plane groups) and the
// binary transistor kernel, called directly at the full 4096-pattern
// width, once with the portable uint64x4 backend and once with whatever
// SIMD backend this build selected.  A speedup only counts when the answer
// is bit-identical: the records from the kernel words of both backends and
// from run_range under both backends must agree fault by fault.  Gate:
// SIMD >= 1.15x over portable where a vector backend is compiled in (the
// ratio shrinks whenever the portable path gets faster, so the gate only
// guards against the backend losing its edge outright).  Perfbench cannot
// see this: it runs only the dispatched backend.
//
// Prints a table and, last, the JSON object it also writes to
// BENCH_compiled.json; exits nonzero on a record mismatch or below the
// gate.
#include <algorithm>
#include <chrono>
#include <cmath>
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

bool records_identical(const faults::DetectionRecord& a,
                       const faults::DetectionRecord& b) {
  return a.detected_output == b.detected_output &&
         a.detected_iddq == b.detected_iddq && a.potential == b.potential &&
         a.first_pattern == b.first_pattern;
}

// The universe is every fault of the binary plane kernels: all line
// faults plus every transistor fault with a purely binary dictionary
// (floating and marginal-row faults run the retained-state kernel and are
// excluded).  Both kernels are called directly at the full 4096-pattern
// width: timed through run_range, most faults stop inside the dropping
// walk's narrow first strip, and the backend difference drowns in
// per-fault overhead.

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

}  // namespace

int main() {
  std::string json;
  const int rc = run_batched_leg(json);
  std::ofstream("BENCH_compiled.json") << json << "\n";
  std::cout << json << "\n";
  return rc;
}
