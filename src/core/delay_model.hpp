// Delay models: the paper's Degradation Delay Model (DDM, eq. 1-3) and the
// Conventional Delay Model (CDM) baseline that HALOTIS-CDM uses.
//
// A model is a policy, not an evaluator: timing_policy() tells
// TimingGraph::build() how to elaborate the per-instance arc table, and
// eval_arc() (timing/timing_arc.hpp) evaluates those arcs.  The policy
// decides, for a gate evaluation triggered by an input event:
//   * the propagation delay tp (midswing input -> midswing output),
//   * the output ramp duration tau_out,
//   * whether the output pulse must be annihilated outright (DDM: the
//     internal state never recovered, T <= T0),
//   * the classical inertial window (CDM only): output pulses narrower than
//     the window are swallowed at the *output*, the behaviour the paper's
//     Fig. 1 shows to be wrong.
// It also fixes the event-threshold policy (TimingGraph::threshold_fraction):
// DDM uses each receiving pin's own VT (the new inertial treatment); CDM
// uses midswing for every pin.
#pragma once

#include <string_view>

#include "src/base/units.hpp"
#include "src/timing/timing_arc.hpp"

namespace halotis {

/// The delay-model policy consumed by TimingGraph::build().
class DelayModel {
 public:
  virtual ~DelayModel() = default;

  [[nodiscard]] virtual TimingPolicy timing_policy() const = 0;

  [[nodiscard]] virtual std::string_view name() const = 0;
};

/// The paper's Inertial and Degradation Delay Model:
///   tp = tp0 * (1 - exp(-(T - T0)/tau))                        (eq. 1)
/// with tau and T0 from the cell's characterized (A, B, C) parameters
/// (eq. 2 / eq. 3) and T the time elapsed between the previous output
/// transition's midswing crossing and the current input's threshold
/// crossing (the gate's internal-state measure).  T <= T0 reports
/// `filtered`: the pulse collapses at the output.  Event thresholds are
/// the per-pin VT values.
class DdmDelayModel final : public DelayModel {
 public:
  [[nodiscard]] TimingPolicy timing_policy() const override;
  [[nodiscard]] std::string_view name() const override { return "HALOTIS-DDM"; }
};

/// Conventional delay model: tp = tp0 always (no degradation), every pin
/// triggers at midswing, and glitches are handled by the classical
/// output-inertial rule.
///
/// The default window is `kNone` (transport-like), matching the paper's
/// HALOTIS-CDM: its Table 1 reports only 1 and 6 filtered events against
/// hundreds of glitch transitions, i.e. the conventional inertial rule
/// essentially never triggered on this workload.  (Pulse collapse at the
/// output -- a zero-width pulse -- is still annihilated by the engine, which
/// is where those few filtered events come from.)  `kGateDelay` gives the
/// strict VHDL-style window (the `cdm-classical` variant of the
/// glitch_filtering_sweep repro experiment); in this technology it
/// *over*-filters relative to the electrical reference.
class CdmDelayModel final : public DelayModel {
 public:
  /// kNone: transport-like (paper's observed CDM); kGateDelay: window = the
  /// transition's own tp0 (strict classical); kFixed: window = fixed_window.
  using InertialWindow = TimingPolicy::Window;

  explicit CdmDelayModel(InertialWindow window = InertialWindow::kNone,
                         TimeNs fixed_window = 0.0)
      : window_(window), fixed_window_(fixed_window) {}

  [[nodiscard]] TimingPolicy timing_policy() const override;
  [[nodiscard]] std::string_view name() const override { return "HALOTIS-CDM"; }

 private:
  InertialWindow window_;
  TimeNs fixed_window_;
};

}  // namespace halotis
