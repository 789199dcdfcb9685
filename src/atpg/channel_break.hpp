// The paper's new test algorithm for channel break in Dynamic-Polarity
// gates (Sec. V-C).
//
// In a DP gate a broken device is masked: the complementary pass structure
// keeps the function correct and classical two-pattern stuck-open tests
// have nothing to observe.  The paper's procedure:
//   1. deliberately set the polarity of the device under test to the
//      complement of its fault-free value (possible because polarity
//      terminals are fed by accessible dual-rail signals — driving A and
//      A-bar inconsistently emulates the stuck-at-n/p-type fault);
//   2. apply the polarity-fault detection vector (Table III);
//   3. an *intact* device now conducts against the opposite network —
//      wrong output and/or >1e6 leakage; a *broken* device cannot conduct:
//      the response stays clean.  A clean response therefore reveals the
//      channel break.
#pragma once

#include <optional>
#include <vector>

#include "atpg/podem.hpp"
#include "gates/switch_level.hpp"

namespace cpsinw::atpg {

/// Observable response of the cell to a channel-break stimulus.
struct CbSignature {
  int out_read = -1;   ///< 0, 1, or -1 (marginal/X level)
  bool iddq = false;   ///< elevated quiescent current

  [[nodiscard]] bool operator==(const CbSignature&) const = default;
};

/// A generated channel-break test for one transistor of a DP gate.
struct ChannelBreakTest {
  int gate = -1;
  int transistor = -1;
  /// The polarity configuration forced onto the device (which stuck-at
  /// polarity fault the dual-rail pattern emulates).
  gates::TransistorFault emulated_polarity =
      gates::TransistorFault::kStuckAtNType;
  /// Logical input vector of the gate (bit i = input i).
  unsigned local_vector = 0;
  /// The rail-inconsistent dual-rail assignment applied to the gate.
  gates::DualRailBits rails;
  /// Predicted responses; the tester compares the observed signature
  /// against these two references.
  CbSignature expected_intact;
  CbSignature expected_broken;
  /// True for the paper's canonical form: the intact device shows the
  /// polarity-fault symptom and the broken device responds clean.  Cells
  /// whose polarity nets double as pass data (MAJ3's input A) may only
  /// admit the general signature-difference form.
  bool broken_is_clean = false;
  /// Expected symptom from an intact device.
  bool intact_shows_iddq = false;
  bool intact_shows_output_error = false;
  /// Circuit-level pattern justifying the local vector (empty when the
  /// gate inputs could not be justified).
  std::optional<logic::Pattern> pattern;
  /// True when all gate inputs are primary inputs (the rail override can
  /// be applied directly; otherwise dual-rail test access is assumed, as
  /// the paper does).
  bool pi_accessible = false;
};

/// Cell-level outcome of applying a channel-break test.
struct ChannelBreakOutcome {
  CbSignature intact;
  CbSignature broken;
  /// The test works when the two responses differ.
  [[nodiscard]] bool distinguishes() const { return !(intact == broken); }
};

/// Derives a channel-break test for one transistor of a DP cell by
/// searching the input space for a polarity-complement assignment whose
/// response separates intact from broken.  Returns nullopt for SP cells
/// (classical two-pattern tests apply there) or when no separating
/// assignment exists.
[[nodiscard]] std::optional<ChannelBreakTest> derive_cell_test(
    gates::CellKind kind, int transistor);

/// Evaluates a channel-break test at cell level (switch-level engine):
/// simulates the dual-rail assignment against the intact and the broken
/// device.
[[nodiscard]] ChannelBreakOutcome evaluate_cell_test(
    gates::CellKind kind, const ChannelBreakTest& test);

/// derive_cell_test's test for transistor `transistor` of gate `gate` of
/// the engine's circuit, bound to the gate: `gate` and `pi_accessible`
/// set, and `pattern` set when PODEM justifies the gate's local vector
/// (left empty otherwise).  nullopt when derive_cell_test has none (SP
/// cells included).
[[nodiscard]] std::optional<ChannelBreakTest> gate_channel_break_test(
    const PodemEngine& engine, int gate, int transistor,
    const PodemOptions& opt = {});

/// Generates channel-break tests for every transistor of every DP gate in
/// a circuit, justifying each gate's local vector through the surrounding
/// logic with PODEM (gate_channel_break_test per transistor).
[[nodiscard]] std::vector<ChannelBreakTest> generate_channel_break_tests(
    const logic::Circuit& ckt, const PodemOptions& opt = {});

}  // namespace cpsinw::atpg
