#include "core/experiments.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "core/campaign_sweep.hpp"
#include "core/test_flow.hpp"
#include "gates/fault_dictionary.hpp"
#include "logic/benchmarks.hpp"
#include "spice/measure.hpp"
#include "spice/transient.hpp"

namespace cpsinw::core {

using device::DefectState;
using device::GateTerminal;
using device::GosDefect;
using device::TigModel;
using device::TigParams;
using gates::CellCircuit;
using gates::CellCircuitSpec;
using gates::CellKind;
using gates::PgTerminal;
using spice::Waveform;

namespace {

constexpr double kVdd = 1.2;
constexpr double kEdgeTime = 0.3e-9;
constexpr double kSlew = 10e-12;

/// Worst-case static supply current over all fully-specified input states.
double max_static_iddq(const CellCircuitSpec& base) {
  const int n = gates::input_count(base.kind);
  double worst = 0.0;
  for (unsigned v = 0; v < (1u << n); ++v) {
    CellCircuitSpec spec = base;
    spec.inputs = gates::dc_inputs(base.kind, v, kVdd);
    CellCircuit cc = gates::build_cell_circuit(spec);
    const spice::DcResult op = spice::dc_operating_point(cc.ckt);
    if (!op.converged) continue;
    worst = std::max(worst, spice::iddq_total(op));
  }
  return worst;
}

/// Runs a transient on a cell spec and measures the in->out delay of the
/// switching input `sw_input`.
spice::DelayMeasurement measure_delay(const CellCircuitSpec& spec,
                                      int sw_input, double dt,
                                      double t_stop) {
  CellCircuit cc = gates::build_cell_circuit(spec);
  spice::TranOptions opt;
  opt.dt = dt;
  opt.t_stop = t_stop;
  const spice::TranResult tr = spice::transient(cc.ckt, opt);
  if (!tr.converged) return {};
  return spice::propagation_delay(
      tr, cc.ins[static_cast<std::size_t>(sw_input)], cc.out, kVdd / 2.0,
      kEdgeTime * 0.5);
}

}  // namespace

// ----------------------------------------------------------------- Table II

DerivedElectricals derived_electricals() {
  const TigModel m((TigParams()));
  DerivedElectricals out;
  out.ids_sat_n = m.ids_sat_n();
  out.ids_sat_p = m.ids_sat_p();
  out.ioff_n = m.ioff_n();
  out.on_off_ratio = out.ids_sat_n / out.ioff_n;
  out.vth_n = m.vth_n_extracted();
  out.ss_mv_dec = m.params().subthreshold_swing_mv_dec();
  return out;
}

// ------------------------------------------------------------------- Fig. 3

Fig3Data run_fig3(int points) {
  const TigParams params;
  Fig3Data data;

  const auto add_case = [&](const std::string& label,
                            const DefectState& defect) {
    const TigModel model(params, defect);
    Fig3Case c{label,
               device::transfer_sweep(model, kVdd, kVdd, 0.0, kVdd, points),
               device::output_sweep(model, kVdd, kVdd, 0.0, kVdd, points),
               0.0, 0.0, 1.0, 0.0, 0.0};
    const device::TransferSummary s = device::summarize_transfer(model);
    c.i_sat = s.i_sat;
    c.vth = s.vth;
    c.min_output_current =
        *std::min_element(c.output.column(0).begin(),
                          c.output.column(0).end());
    data.cases.push_back(std::move(c));
  };

  add_case("fault-free", {});
  add_case("GOS on PGS", make_gos_state(GateTerminal::kPGS, 25.0));
  add_case("GOS on CG", make_gos_state(GateTerminal::kCG, 25.0));
  add_case("GOS on PGD", make_gos_state(GateTerminal::kPGD, 25.0));

  const Fig3Case& ff = data.cases.front();
  for (Fig3Case& c : data.cases) {
    c.isat_ratio_vs_ff = c.i_sat / ff.i_sat;
    c.delta_vth_vs_ff = c.vth - ff.vth;
  }
  return data;
}

// ------------------------------------------------------------------- Fig. 4

Fig4Data run_fig4() {
  const TigParams params;
  const device::Fig4Reference ref;
  Fig4Data data;

  const auto add_case = [&](const std::string& label,
                            const DefectState& defect, double paper) {
    const device::DensityProfile prof =
        device::electron_density_profile(params, defect);
    util::DataSeries series(label, "x [nm]");
    series.add_column("n_e [cm^-3]");
    for (std::size_t i = 0; i < prof.x_nm.size(); ++i)
      series.add_sample(prof.x_nm[i], {prof.density_cm3[i]});
    data.cases.push_back(Fig4Case{
        label, device::reported_density_cm3(params, defect), paper,
        std::move(series)});
  };

  add_case("fault-free", {}, ref.fault_free);
  add_case("GOS on CG", make_gos_state(GateTerminal::kCG, 25.0),
           ref.gos_cg);
  add_case("GOS on PGD", make_gos_state(GateTerminal::kPGD, 25.0),
           ref.gos_pgd);
  add_case("GOS on PGS", make_gos_state(GateTerminal::kPGS, 25.0),
           ref.gos_pgs);
  return data;
}

// ------------------------------------------------------------------- Fig. 5

namespace {

/// Stimulus/sweep description of one Fig. 5 experiment.
struct Fig5Setup {
  CellKind kind;
  int transistor;
  const char* tlabel;
  int sw_input;                       ///< which input toggles
  std::vector<Waveform> inputs;       ///< transient stimulus
  double vcut_min, vcut_max;
};

std::vector<Fig5Setup> fig5_setups() {
  std::vector<Fig5Setup> s;
  // INV t1 (p pull-up): input falls, output rises through t1.
  s.push_back({CellKind::kInv, 0, "t1", 0,
               {Waveform::step(kVdd, 0.0, kEdgeTime, kSlew)}, 0.0, 0.8});
  // INV t3 (n pull-down): input rises, output falls.
  s.push_back({CellKind::kInv, 1, "t3", 0,
               {Waveform::step(0.0, kVdd, kEdgeTime, kSlew)}, 0.7, 1.4});
  // NAND t1 (p pull-up on A): A falls with B = 1, output rises.
  s.push_back({CellKind::kNand2, 0, "t1", 0,
               {Waveform::step(kVdd, 0.0, kEdgeTime, kSlew),
                Waveform::dc(kVdd)},
               0.0, 0.5});
  // NAND t3 (output-side series n on A): A rises with B = 1, output falls.
  s.push_back({CellKind::kNand2, 2, "t3", 0,
               {Waveform::step(0.0, kVdd, kEdgeTime, kSlew),
                Waveform::dc(kVdd)},
               0.7, 1.3});
  // XOR t1 (pull-up pair, p-mode at A=0,B=1): (1,1)->(0,1), output rises.
  s.push_back({CellKind::kXor2, 0, "t1", 0,
               {Waveform::step(kVdd, 0.0, kEdgeTime, kSlew),
                Waveform::dc(kVdd)},
               0.0, 1.2});
  // XOR t3 (pull-down pair, n-mode at A=1,B=1): (0,1)->(1,1), out falls.
  s.push_back({CellKind::kXor2, 2, "t3", 0,
               {Waveform::step(0.0, kVdd, kEdgeTime, kSlew),
                Waveform::dc(kVdd)},
               0.7, 1.4});
  return s;
}

}  // namespace

Fig5Data run_fig5(const Fig5Options& options) {
  Fig5Data data;
  for (const Fig5Setup& setup : fig5_setups()) {
    for (const PgTerminal terminal :
         {PgTerminal::kPgs, PgTerminal::kPgd}) {
      Fig5Curve curve;
      curve.gate = setup.kind;
      curve.transistor_label = setup.tlabel;
      curve.cut_terminal = terminal;

      // Fault-free reference.
      CellCircuitSpec ff;
      ff.kind = setup.kind;
      ff.inputs = setup.inputs;
      const spice::DelayMeasurement d0 =
          measure_delay(ff, setup.sw_input, options.dt, options.t_stop);
      curve.nominal_delay_s = d0.valid ? d0.delay : std::nan("");
      CellCircuitSpec ff_static = ff;
      curve.nominal_leakage_a = max_static_iddq(ff_static);

      for (int i = 0; i < options.sweep_points; ++i) {
        const double vcut =
            setup.vcut_min + (setup.vcut_max - setup.vcut_min) * i /
                                 (options.sweep_points - 1);
        CellCircuitSpec spec = ff;
        spec.pg_floats.push_back({setup.transistor, terminal, vcut});

        Fig5Point point;
        point.vcut = vcut;
        const spice::DelayMeasurement d =
            measure_delay(spec, setup.sw_input, options.dt, options.t_stop);
        point.delay_s = d.valid ? d.delay : std::nan("");
        point.transition_failed = !d.valid;
        point.leakage_a = max_static_iddq(spec);
        curve.points.push_back(point);
      }
      data.curves.push_back(std::move(curve));
    }
  }
  return data;
}

// ----------------------------------------------------------------- Table III

Table3Data run_table3() {
  Table3Data data;
  for (int t = 0; t < 4; ++t) {
    for (const gates::TransistorFault kind :
         {gates::TransistorFault::kStuckAtNType,
          gates::TransistorFault::kStuckAtPType}) {
      const gates::FaultAnalysis& fa =
          gates::dictionary(CellKind::kXor2, {t, kind});

      Table3Row row;
      row.transistor = t;
      row.kind = kind;
      row.output_detect = fa.output_detectable || fa.marginal_detectable;
      row.leakage_detect = fa.iddq_detectable;
      if (fa.first_output_vector)
        row.detect_vector = *fa.first_output_vector;
      else if (fa.first_iddq_vector)
        row.detect_vector = *fa.first_iddq_vector;

      // SPICE cross-check at the detecting vector.
      CellCircuitSpec good;
      good.kind = CellKind::kXor2;
      good.inputs = gates::dc_inputs(CellKind::kXor2, row.detect_vector,
                                     kVdd);
      CellCircuit cc_good = gates::build_cell_circuit(good);
      const spice::DcResult op_good = spice::dc_operating_point(cc_good.ckt);

      CellCircuitSpec faulty = good;
      faulty.pg_forces.push_back(
          {t, kind == gates::TransistorFault::kStuckAtNType ? kVdd : 0.0});
      CellCircuit cc_f = gates::build_cell_circuit(faulty);
      const spice::DcResult op_f = spice::dc_operating_point(cc_f.ckt);

      if (op_good.converged && op_f.converged) {
        row.iddq_ff_a = spice::iddq_total(op_good);
        row.iddq_faulty_a = spice::iddq_total(op_f);
        row.vout_good = op_good.voltage(cc_good.out);
        row.vout_faulty = op_f.voltage(cc_f.out);
      }
      data.rows.push_back(row);
    }
  }
  return data;
}

// ----------------------------------------------------------------- Sec. V-C

namespace {

/// The four single-input transitions of the XOR2 used for delay checks.
struct XorTransition {
  Waveform a;
  Waveform b;
  int sw_input;
};

std::vector<XorTransition> xor_transitions() {
  return {
      {Waveform::step(0.0, kVdd, kEdgeTime, kSlew), Waveform::dc(kVdd), 0},
      {Waveform::step(kVdd, 0.0, kEdgeTime, kSlew), Waveform::dc(kVdd), 0},
      {Waveform::step(0.0, kVdd, kEdgeTime, kSlew), Waveform::dc(0.0), 0},
      {Waveform::step(kVdd, 0.0, kEdgeTime, kSlew), Waveform::dc(0.0), 0},
  };
}

}  // namespace

Sec5cData run_sec5c() {
  Sec5cData data;
  const DefectState broken = device::make_break_state(1.0);
  const spice::LogicThresholds th;

  for (int t = 0; t < 4; ++t) {
    Sec5cEntry entry;
    entry.transistor = t;

    // --- DC functionality with the broken device. ------------------------
    entry.function_preserved_dc = true;
    for (unsigned v = 0; v < 4; ++v) {
      CellCircuitSpec spec;
      spec.kind = CellKind::kXor2;
      spec.inputs = gates::dc_inputs(CellKind::kXor2, v, kVdd);
      spec.device_defects.push_back({t, broken});
      CellCircuit cc = gates::build_cell_circuit(spec);
      const spice::DcResult op = spice::dc_operating_point(cc.ckt);
      if (!op.converged) {
        entry.function_preserved_dc = false;
        continue;
      }
      const spice::LogicRead read =
          spice::read_logic(op.voltage(cc.out), th.v_lo, th.v_hi);
      const bool expect_one = gates::good_output(CellKind::kXor2, v) != 0;
      if ((expect_one && read != spice::LogicRead::kOne) ||
          (!expect_one && read != spice::LogicRead::kZero))
        entry.function_preserved_dc = false;
    }

    // --- Delay and leakage change. ---------------------------------------
    double worst_delay = 0.0;
    for (const XorTransition& tr : xor_transitions()) {
      CellCircuitSpec intact;
      intact.kind = CellKind::kXor2;
      intact.inputs = {tr.a, tr.b};
      const spice::DelayMeasurement d_ok =
          measure_delay(intact, tr.sw_input, 2e-12, 4e-9);
      CellCircuitSpec faulty = intact;
      faulty.device_defects.push_back({t, broken});
      const spice::DelayMeasurement d_f =
          measure_delay(faulty, tr.sw_input, 2e-12, 4e-9);
      if (d_ok.valid && d_f.valid && d_ok.delay > 0.0)
        worst_delay = std::max(worst_delay,
                               100.0 * (d_f.delay - d_ok.delay) / d_ok.delay);
    }
    entry.worst_delay_increase_pct = worst_delay;

    CellCircuitSpec leak_base;
    leak_base.kind = CellKind::kXor2;
    leak_base.inputs = gates::dc_inputs(CellKind::kXor2, 0, kVdd);
    const double leak_ff = max_static_iddq(leak_base);
    CellCircuitSpec leak_faulty = leak_base;
    leak_faulty.device_defects.push_back({t, broken});
    const double leak_f = max_static_iddq(leak_faulty);
    entry.leakage_change_pct =
        leak_ff > 0.0 ? 100.0 * std::abs(leak_f - leak_ff) / leak_ff : 0.0;

    // --- The paper's polarity-complement detection procedure. -----------
    const auto test = atpg::derive_cell_test(CellKind::kXor2, t);
    entry.cb_test_exists = test.has_value();
    if (test) {
      const atpg::ChannelBreakOutcome cell =
          atpg::evaluate_cell_test(CellKind::kXor2, *test);
      entry.cb_distinguishes_cell = cell.distinguishes();

      // SPICE: apply the rail-inconsistent pattern via input_bars.
      CellCircuitSpec spec;
      spec.kind = CellKind::kXor2;
      spec.inputs.clear();
      spec.input_bars.clear();
      for (int i = 0; i < 2; ++i) {
        const bool hi = (test->rails.true_bits >> i) & 1u;
        const bool bar_hi = (test->rails.bar_bits >> i) & 1u;
        spec.inputs.push_back(Waveform::dc(hi ? kVdd : 0.0));
        spec.input_bars.push_back(Waveform::dc(bar_hi ? kVdd : 0.0));
      }
      CellCircuit cc_i = gates::build_cell_circuit(spec);
      const spice::DcResult op_i = spice::dc_operating_point(cc_i.ckt);
      CellCircuitSpec spec_b = spec;
      spec_b.device_defects.push_back({t, broken});
      CellCircuit cc_b = gates::build_cell_circuit(spec_b);
      const spice::DcResult op_b = spice::dc_operating_point(cc_b.ckt);
      if (op_i.converged && op_b.converged) {
        entry.cb_iddq_intact_a = spice::iddq_total(op_i);
        entry.cb_iddq_broken_a = spice::iddq_total(op_b);
        entry.cb_spice_distinguishes =
            entry.cb_iddq_intact_a > 100.0 * entry.cb_iddq_broken_a;
      }
    }
    data.entries.push_back(entry);
  }
  return data;
}

// --------------------------------------------------- NAND two-pattern set

NandSofData run_nand_sof() {
  // Single NAND2 gate circuit: a, b -> y.
  logic::Circuit ckt;
  const logic::NetId a = ckt.add_primary_input("a");
  const logic::NetId b = ckt.add_primary_input("b");
  const logic::NetId y = ckt.add_net("y");
  ckt.add_gate(CellKind::kNand2, {a, b}, y, "nand");
  ckt.mark_primary_output(y);
  ckt.finalize();

  NandSofData data;
  std::set<std::string> pairs;
  const atpg::PodemEngine engine(ckt);
  for (int t = 0; t < 4; ++t) {
    auto result = atpg::generate_two_pattern(
        engine,
        faults::Fault::transistor(0, t,
                                  gates::TransistorFault::kStuckOpen));
    if (result.test) {
      const auto fmt = [](unsigned cube) {
        // Display in the paper's AB order (A first).
        std::string s;
        s += ((cube >> 0) & 1u) ? '1' : '0';
        s += ((cube >> 1) & 1u) ? '1' : '0';
        return s;
      };
      pairs.insert(fmt(result.test->init_cube) + "->" +
                   fmt(result.test->test_cube));
    }
    data.per_transistor.push_back(std::move(result));
  }
  data.distinct_pairs.assign(pairs.begin(), pairs.end());
  return data;
}

// --------------------------------------------------------- GOS detectability

GosDetectData run_gos_detectability() {
  GosDetectData data;

  struct Target {
    CellKind kind;
    int transistor;
    std::vector<Waveform> stimulus;  ///< transition through the device
    int sw_input;
  };
  const std::vector<Target> targets = {
      // INV pull-up (t1): output rise.
      {CellKind::kInv, 0,
       {Waveform::step(kVdd, 0.0, kEdgeTime, kSlew)}, 0},
      // INV pull-down (t3): output fall.
      {CellKind::kInv, 1,
       {Waveform::step(0.0, kVdd, kEdgeTime, kSlew)}, 0},
      // XOR2 pull-up t1: rise through the p-mode path at (1,1)->(0,1).
      {CellKind::kXor2, 0,
       {Waveform::step(kVdd, 0.0, kEdgeTime, kSlew), Waveform::dc(kVdd)},
       0},
      // XOR2 pull-down t3: fall at (0,1)->(1,1).
      {CellKind::kXor2, 2,
       {Waveform::step(0.0, kVdd, kEdgeTime, kSlew), Waveform::dc(kVdd)},
       0},
  };

  for (const Target& target : targets) {
    CellCircuitSpec ff;
    ff.kind = target.kind;
    ff.inputs = target.stimulus;
    const spice::DelayMeasurement d_ff =
        measure_delay(ff, target.sw_input, 2e-12, 4e-9);
    const double leak_ff = max_static_iddq(ff);

    for (const GateTerminal where :
         {GateTerminal::kPGS, GateTerminal::kCG, GateTerminal::kPGD}) {
      CellCircuitSpec faulty = ff;
      faulty.device_defects.push_back(
          {target.transistor, device::make_gos_state(where, 25.0)});
      const spice::DelayMeasurement d_f =
          measure_delay(faulty, target.sw_input, 2e-12, 4e-9);
      const double leak_f = max_static_iddq(faulty);

      GosDetectEntry e;
      e.kind = target.kind;
      e.transistor = target.transistor;
      e.location = where;
      if (d_ff.valid && d_f.valid && d_ff.delay > 0.0)
        e.delay_increase_pct =
            100.0 * (d_f.delay - d_ff.delay) / d_ff.delay;
      else if (d_ff.valid && !d_f.valid)
        e.delay_increase_pct = 1e6;  // transition killed entirely
      e.iddq_ratio = leak_ff > 0.0 ? leak_f / leak_ff : 1.0;
      e.detectable_by_delay = e.delay_increase_pct >= 30.0;
      e.detectable_by_iddq = e.iddq_ratio >= 10.0;
      data.entries.push_back(e);
    }
  }
  return data;
}

// ----------------------------------------------------------- ATPG coverage

AtpgCoverageData run_atpg_coverage() {
  AtpgCoverageData data;
  for (const engine::CircuitJobSpec& named : benchmark_campaign_jobs()) {
    TestFlowOptions classical;
    classical.classical_only = true;
    classical.compact = false;
    const TestSuite base = run_test_flow(named.circuit, classical);

    TestFlowOptions full;
    full.compact = false;
    const TestSuite ext = run_test_flow(named.circuit, full);

    CoverageRow row;
    row.circuit = named.name;
    row.gate_count = named.circuit.gate_count();
    row.transistor_count = named.circuit.transistor_count();
    row.fault_count = static_cast<int>(ext.outcomes.size());
    row.classical_coverage = base.coverage();
    row.full_coverage = ext.coverage();
    row.via_iddq = ext.count(CoverageMethod::kIddqPattern);
    row.via_two_pattern = ext.count(CoverageMethod::kTwoPattern);
    row.via_channel_break = ext.count(CoverageMethod::kChannelBreak);
    data.rows.push_back(row);
  }
  return data;
}

}  // namespace cpsinw::core
