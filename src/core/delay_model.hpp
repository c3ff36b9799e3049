// Delay models: the paper's Degradation Delay Model (DDM, eq. 1-3) and the
// Conventional Delay Model (CDM) baseline that HALOTIS-CDM uses.
//
// The model decides, for a gate evaluation triggered by an input event:
//   * the propagation delay tp (midswing input -> midswing output),
//   * the output ramp duration tau_out,
//   * whether the output pulse must be annihilated outright (DDM: the
//     internal state never recovered, T <= T0),
//   * the classical inertial window (CDM only): output pulses narrower than
//     the window are swallowed at the *output*, the behaviour the paper's
//     Fig. 1 shows to be wrong.
// It also owns the event-threshold policy: DDM uses each receiving pin's
// own VT (the new inertial treatment); CDM uses midswing for every pin.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>

#include "src/base/ids.hpp"
#include "src/base/units.hpp"
#include "src/netlist/library.hpp"
#include "src/timing/timing_arc.hpp"

namespace halotis {

/// Inputs to one delay computation.
struct DelayRequest {
  const Cell* cell = nullptr;   ///< evaluated gate's cell
  GateId gate;                  ///< instance identity (for per-instance variation)
  int pin = 0;                  ///< switching input pin
  Edge out_edge = Edge::kRise;  ///< sense of the output transition
  Farad cl = 0.0;               ///< capacitive load on the output
  TimeNs tau_in = 0.0;          ///< causing input ramp duration
  TimeNs t_in50 = 0.0;          ///< causing input ramp midswing instant
  /// Instant the causing ramp crossed *this pin's* threshold -- the event
  /// time that triggered the evaluation.  The paper's T ("time elapsed
  /// since the last output transition ... which measures the internal
  /// state") is measured when the gate is triggered, and HALOTIS triggers
  /// gates by events, so degradation uses this instant.  For a midswing
  /// threshold it coincides with t_in50; for skewed receivers (Fig. 1) the
  /// difference is exactly what lets a runt pulse drive one gate and not
  /// another.
  TimeNs t_event = 0.0;
  /// Midswing instant of the gate's previous (surviving) output transition;
  /// empty when the output has been stable "forever".
  std::optional<TimeNs> t_prev_out50;
  Volt vdd = 5.0;
};

/// Outputs of one delay computation.
struct DelayResult {
  TimeNs tp = 0.0;       ///< applied delay: t_out50 = t_in50 + tp
  TimeNs tau_out = 0.0;  ///< output ramp duration
  /// Model-mandated annihilation of the output pulse (DDM: T <= T0).
  bool filtered = false;
  /// CDM classical inertial window; pulses narrower than this are swallowed
  /// at the output.  Zero disables the check (DDM).
  TimeNs inertial_window = 0.0;
};

/// The delay-model *policy*.  Since the TimingGraph refactor the hot path
/// never calls through this interface: timing_policy() describes how
/// TimingGraph::build() elaborates the per-instance arc table, and the
/// kernel evaluates those arcs directly (timing/timing_arc.hpp).  compute()
/// survives as the per-request reference implementation -- itself routed
/// through elaborate_arc()/eval_arc(), so the table and the reference can
/// never diverge -- used by tests, characterization checks and one-off
/// consumers that have no graph at hand.
class DelayModel {
 public:
  virtual ~DelayModel() = default;

  [[nodiscard]] virtual DelayResult compute(const DelayRequest& request) const = 0;

  /// Threshold voltage at which a transition on the driving signal
  /// generates an event at `pin` of `cell`.
  [[nodiscard]] virtual Volt event_threshold(const Cell& cell, int pin, Volt vdd) const = 0;

  /// Elaboration policy consumed by TimingGraph::build().
  [[nodiscard]] virtual TimingPolicy timing_policy() const = 0;

  [[nodiscard]] virtual std::string_view name() const = 0;
};

/// The paper's Inertial and Degradation Delay Model:
///   tp = tp0 * (1 - exp(-(T - T0)/tau))                        (eq. 1)
/// with tau and T0 from the cell's characterized (A, B, C) parameters
/// (eq. 2 / eq. 3) and T the time elapsed between the previous output
/// transition's midswing crossing and the current input's midswing
/// crossing (the gate's internal-state measure).  T <= T0 reports
/// `filtered`: the pulse collapses at the output.  Event thresholds are
/// the per-pin VT values.
class DdmDelayModel final : public DelayModel {
 public:
  [[nodiscard]] DelayResult compute(const DelayRequest& request) const override;
  [[nodiscard]] Volt event_threshold(const Cell& cell, int pin, Volt vdd) const override;
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
  enum class InertialWindow {
    kNone,       ///< transport-like (paper's observed CDM): nothing filtered
    kGateDelay,  ///< window = the transition's own tp0 (strict classical)
    kFixed,      ///< window = fixed_window
  };

  explicit CdmDelayModel(InertialWindow window = InertialWindow::kNone,
                         TimeNs fixed_window = 0.0)
      : window_(window), fixed_window_(fixed_window) {}

  [[nodiscard]] DelayResult compute(const DelayRequest& request) const override;
  [[nodiscard]] Volt event_threshold(const Cell& cell, int pin, Volt vdd) const override;
  [[nodiscard]] TimingPolicy timing_policy() const override;
  [[nodiscard]] std::string_view name() const override { return "HALOTIS-CDM"; }

 private:
  InertialWindow window_;
  TimeNs fixed_window_;
};

/// Per-instance process variation: wraps any delay model and scales its
/// delays (and output slopes) by a deterministic per-gate lognormal factor
/// exp(sigma * z_gate), z_gate ~ N(0,1) derived from (seed, gate id).
/// Thresholds are left untouched.  Used for Monte-Carlo timing analysis.
class VariationDelayModel final : public DelayModel {
 public:
  /// `base` must outlive this model.
  VariationDelayModel(const DelayModel& base, double sigma, std::uint64_t seed)
      : base_(&base), sigma_(sigma), seed_(seed) {}

  [[nodiscard]] DelayResult compute(const DelayRequest& request) const override;
  [[nodiscard]] Volt event_threshold(const Cell& cell, int pin, Volt vdd) const override {
    return base_->event_threshold(cell, pin, vdd);
  }
  /// The base model's policy with the variation fields filled in.
  [[nodiscard]] TimingPolicy timing_policy() const override;
  [[nodiscard]] std::string_view name() const override { return "variation"; }

  /// The multiplicative derating factor of one gate instance.
  [[nodiscard]] double factor(GateId gate) const;

 private:
  const DelayModel* base_;
  double sigma_;
  std::uint64_t seed_;
};

}  // namespace halotis
