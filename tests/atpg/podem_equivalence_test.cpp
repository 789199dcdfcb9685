// Differential suite for the event-driven PODEM search: every entry point
// of atpg::PodemEngine against the full-pass search it replaced
// (reference_podem.hpp).  Status, pattern, backtrack count and excited
// cube must match on every call, over the benchmark roster, the ALU
// arrays, the tests/data fixtures, seeded random circuits, and a circuit
// whose constants feed every multi-input cell kind (the search starts
// from an all-X state that must already carry them).  Backtrack limits
// 5000, 3 and 0 make detected, untestable and aborted searches all occur.
#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "atpg/podem.hpp"
#include "faults/fault_list.hpp"
#include "logic/benchmarks.hpp"
#include "logic/netlist_ingest.hpp"
#include "reference_podem.hpp"
#include "util/rng.hpp"

namespace cpsinw::atpg {
namespace {

using faults::Fault;
using gates::CellKind;
using logic::LogicV;
using logic::NetId;

constexpr int kLimits[] = {5000, 3, 0};

/// Constants on NAND, NOR, XOR2, XOR3 and MAJ pins, including gates that
/// the constants alone drive to a value and a constant PO; also gates that
/// read one net on two pins and a PI that is a PO with fan-out.
logic::Circuit constants_circuit() {
  logic::Circuit c;
  const NetId a = c.add_primary_input("a");
  const NetId b = c.add_primary_input("b");
  const NetId d = c.add_primary_input("d");
  const NetId k0 = c.add_constant(LogicV::k0, "k0");
  const NetId k1 = c.add_constant(LogicV::k1, "k1");
  const auto gate = [&](CellKind kind, std::vector<NetId> ins,
                        const std::string& name) {
    const NetId out = c.add_net(name);
    c.add_gate(kind, ins, out, name);
    return out;
  };
  const NetId na = gate(CellKind::kNand2, {a, k1}, "na");        // !a
  const NetId nb = gate(CellKind::kNor2, {b, k0}, "nb");         // !b
  const NetId nd = gate(CellKind::kXor2, {k1, d}, "nd");         // !d
  const NetId one = gate(CellKind::kNand2, {k0, a}, "one");      // 1
  const NetId zero = gate(CellKind::kNor2, {k1, nd}, "zero");    // 0
  const NetId kk = gate(CellKind::kMaj3, {k0, k1, k1}, "kk");    // 1
  const NetId an = gate(CellKind::kMaj3, {na, k0, nb}, "an");    // na & nb
  const NetId orr = gate(CellKind::kMaj3, {k1, nd, b}, "orr");   // nd | b
  const NetId x3 = gate(CellKind::kXor3, {an, one, zero}, "x3");
  const NetId xk = gate(CellKind::kXor3, {k0, kk, orr}, "xk");
  const NetId inv = gate(CellKind::kInv, {x3}, "inv");
  const NetId buf = gate(CellKind::kBuf, {xk}, "buf");
  const NetId y = gate(CellKind::kXor2, {inv, buf}, "y");
  const NetId aa = gate(CellKind::kNand2, {a, a}, "aa");        // !a
  const NetId bb = gate(CellKind::kMaj3, {b, d, b}, "bb");      // b
  const NetId z = gate(CellKind::kNor2, {aa, bb}, "z");
  c.mark_primary_output(y);
  c.mark_primary_output(x3);
  c.mark_primary_output(k1);
  c.mark_primary_output(z);
  c.mark_primary_output(d);
  c.finalize();
  return c;
}

struct Named {
  std::string name;
  logic::Circuit ckt;
};

/// Every circuit of the sweep, built once (engines borrow them).
const std::deque<Named>& circuits() {
  static const std::deque<Named> all = [] {
    const std::string dir = CPSINW_TEST_DATA_DIR;
    std::deque<Named> out;
    out.push_back({"c17", logic::c17()});
    out.push_back({"full_adder", logic::full_adder()});
    out.push_back({"ripple_adder(3)", logic::ripple_adder(3)});
    out.push_back({"parity_tree(6)", logic::parity_tree(6)});
    out.push_back({"multiplier_2x2", logic::multiplier_2x2()});
    out.push_back({"alu_slice", logic::alu_slice()});
    out.push_back({"tmr_voter(3)", logic::tmr_voter(3)});
    out.push_back({"xor3_parity_chain(7)", logic::xor3_parity_chain(7)});
    out.push_back({"alu_array(1)", logic::alu_array(1)});
    out.push_back({"alu_array(2)", logic::alu_array(2)});
    out.push_back({"alu_array(4)", logic::alu_array(4)});
    for (const char* file :
         {"c17.bench", "full_adder.cpn", "full_adder.v", "voter_cells.v"})
      out.push_back({file, logic::load_circuit_file(dir + "/" + file)});
    out.push_back({"random(3,4,10)", logic::random_circuit(3, 4, 10)});
    out.push_back({"random(17,6,30)", logic::random_circuit(17, 6, 30)});
    out.push_back({"random(71,8,48)", logic::random_circuit(71, 8, 48)});
    out.push_back({"constants", constants_circuit()});
    return out;
  }();
  return all;
}

/// Per-test comparison tally; the first few mismatches are reported in
/// full, the rest only counted.
struct Tally {
  int results = 0;
  int detected = 0;
  int untestable = 0;
  int aborted = 0;
  int mismatches = 0;

  void compare(const AtpgResult& got, const AtpgResult& want,
               const std::function<std::string()>& label) {
    ++results;
    switch (want.status) {
      case AtpgStatus::kDetected: ++detected; break;
      case AtpgStatus::kUntestable: ++untestable; break;
      case AtpgStatus::kAborted: ++aborted; break;
    }
    if (got.status == want.status && got.pattern == want.pattern &&
        got.backtracks == want.backtracks &&
        got.excited_cube == want.excited_cube)
      return;
    if (++mismatches > 5) return;
    ADD_FAILURE() << label() << ": status " << to_string(got.status)
                  << " vs " << to_string(want.status) << ", backtracks "
                  << got.backtracks << " vs " << want.backtracks
                  << ", pattern " << (got.pattern == want.pattern ? "=" : "!=")
                  << ", excited cube "
                  << (got.excited_cube == want.excited_cube ? "=" : "!=");
  }

  /// Every result matched, and the sweep reached each status.
  void expect_complete(bool all_statuses) const {
    EXPECT_EQ(mismatches, 0) << "of " << results << " results";
    EXPECT_GT(detected, 0);
    if (!all_statuses) return;
    EXPECT_GT(untestable, 0);
    EXPECT_GT(aborted, 0);
  }
};

std::vector<Fault> fault_list(const logic::Circuit& ckt, bool line) {
  faults::FaultListOptions flo;
  flo.collapse = false;
  flo.include_line_stuck_at = line;
  flo.include_transistor_faults = !line;
  return faults::generate_fault_list(ckt, flo);
}

std::string label(const Named& c, int limit, const std::string& what) {
  return c.name + " limit " + std::to_string(limit) + " " + what;
}

TEST(PodemEquivalence, EveryLineFault) {
  Tally tally;
  for (const Named& c : circuits()) {
    const PodemEngine engine(c.ckt);
    const reference::Podem oracle(c.ckt);
    std::vector<Fault> faults = fault_list(c.ckt, true);
    // Stems on constant nets are valid targets the fault list leaves out.
    for (NetId n = 0; n < c.ckt.net_count(); ++n)
      if (is_binary(c.ckt.constant_of(n)))
        for (const bool sa1 : {false, true})
          faults.push_back(Fault::net_stuck(n, sa1));
    for (const int limit : kLimits) {
      PodemOptions opt;
      opt.backtrack_limit = limit;
      for (const Fault& f : faults)
        tally.compare(engine.generate_line(f, opt),
                      oracle.generate_line(f, opt), [&] {
                        return label(c, limit, f.describe(c.ckt));
                      });
    }
  }
  tally.expect_complete(true);
}

TEST(PodemEquivalence, EveryTransistorFaultFunctionalAndIddq) {
  Tally functional;
  Tally iddq;
  for (const Named& c : circuits()) {
    const PodemEngine engine(c.ckt);
    const reference::Podem oracle(c.ckt);
    const std::vector<Fault> faults = fault_list(c.ckt, false);
    for (const int limit : kLimits) {
      PodemOptions opt;
      opt.backtrack_limit = limit;
      for (const Fault& f : faults) {
        const auto what = [&] { return label(c, limit, f.describe(c.ckt)); };
        functional.compare(engine.generate_functional(f, opt),
                           oracle.generate_functional(f, opt), what);
        iddq.compare(engine.generate_iddq(f, opt),
                     oracle.generate_iddq(f, opt), what);
      }
    }
  }
  functional.expect_complete(true);
  iddq.expect_complete(true);
}

TEST(PodemEquivalence, EveryStuckOpenCubeRetained) {
  Tally tally;
  for (const Named& c : circuits()) {
    const PodemEngine engine(c.ckt);
    const reference::Podem oracle(c.ckt);
    for (const Fault& f : fault_list(c.ckt, false)) {
      if (f.cell_fault.kind != gates::TransistorFault::kStuckOpen) continue;
      const unsigned cubes = 1u << c.ckt.gate(f.gate).input_count();
      for (const int limit : kLimits) {
        PodemOptions opt;
        opt.backtrack_limit = limit;
        for (unsigned cube = 0; cube < cubes; ++cube)
          for (const bool good_is_one : {false, true})
            tally.compare(
                engine.generate_functional_retained(f, cube, good_is_one,
                                                    opt),
                oracle.generate_functional_retained(f, cube, good_is_one,
                                                    opt),
                [&] {
                  return label(c, limit, f.describe(c.ckt)) + " cube " +
                         std::to_string(cube) +
                         (good_is_one ? " good 1" : " good 0");
                });
      }
    }
  }
  tally.expect_complete(true);
}

TEST(PodemEquivalence, EveryGateCube) {
  Tally tally;
  for (const Named& c : circuits()) {
    const PodemEngine engine(c.ckt);
    const reference::Podem oracle(c.ckt);
    for (const int limit : kLimits) {
      PodemOptions opt;
      opt.backtrack_limit = limit;
      for (const logic::GateInst& g : c.ckt.gates()) {
        const unsigned cubes = 1u << g.input_count();
        for (unsigned cube = 0; cube < cubes; ++cube)
          tally.compare(engine.justify_gate_cube(g.id, cube, opt),
                        oracle.justify_gate_cube(g.id, cube, opt), [&] {
                          return label(c, limit, g.name) + " cube " +
                                 std::to_string(cube);
                        });
      }
    }
  }
  tally.expect_complete(true);
}

TEST(PodemEquivalence, SeededNetValueGoals) {
  Tally tally;
  for (const Named& c : circuits()) {
    const PodemEngine engine(c.ckt);
    const reference::Podem oracle(c.ckt);
    util::SplitMix64 rng(0x9d0e + static_cast<std::uint64_t>(c.ckt.net_count()));
    const auto pick = [&] {
      const auto net = static_cast<NetId>(
          rng.below(static_cast<std::uint64_t>(c.ckt.net_count())));
      return std::make_pair(net, logic::from_bool(rng.chance(0.5)));
    };
    std::vector<std::vector<std::pair<NetId, LogicV>>> goals;
    for (int i = 0; i < 2 * c.ckt.net_count(); ++i) {
      goals.push_back({pick()});
      goals.push_back({pick(), pick()});
    }
    for (const int limit : kLimits) {
      PodemOptions opt;
      opt.backtrack_limit = limit;
      for (std::size_t i = 0; i < goals.size(); ++i)
        tally.compare(engine.justify_net_values(goals[i], opt),
                      oracle.justify_net_values(goals[i], opt), [&] {
                        return label(c, limit, "goal set " +
                                                   std::to_string(i));
                      });
    }
  }
  tally.expect_complete(true);
}

}  // namespace
}  // namespace cpsinw::atpg
