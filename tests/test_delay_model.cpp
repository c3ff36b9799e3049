// Tests for the DDM (paper eq. 1-3) and CDM delay models, evaluated through
// the product path: the arc elaborate_arc() folds under the model's policy,
// then eval_arc().  Event thresholds are read from the TimingGraph.
#include <gtest/gtest.h>

#include <cmath>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "src/core/delay_model.hpp"
#include "src/timing/timing_graph.hpp"

namespace halotis {
namespace {

/// One delay query: a (cell, pin, out-edge) arc at load `cl`, triggered by
/// an input ramp of duration `tau_in` whose threshold crossing happened at
/// `t_event`, with the gate's previous output midswing (if any).
struct DelayQuery {
  const Cell* cell = nullptr;
  int pin = 0;
  Edge out_edge = Edge::kRise;
  Farad cl = 0.0;
  TimeNs tau_in = 0.0;
  TimeNs t_event = 0.0;
  std::optional<TimeNs> t_prev_out50;
  Volt vdd = 5.0;
};

ArcDelay evaluate(const DelayModel& model, const DelayQuery& q) {
  const TimingArc arc =
      elaborate_arc(*q.cell, q.pin, q.out_edge, q.cl, q.vdd, model.timing_policy());
  return eval_arc(arc, q.tau_in, q.t_event, q.t_prev_out50.has_value(),
                  q.t_prev_out50.value_or(0.0));
}

class DelayModelTest : public ::testing::Test {
 protected:
  DelayModelTest() : lib_(Library::default_u6()) {
    cell_ = &lib_.cell(lib_.find("INV_X1"));
  }

  DelayQuery base_request() const {
    DelayQuery r;
    r.cell = cell_;
    r.pin = 0;
    r.out_edge = Edge::kFall;
    r.cl = 0.05;
    r.tau_in = 0.4;
    r.t_event = 10.0;  // midswing receiver: event coincides with t50
    r.vdd = lib_.vdd();
    return r;
  }

  /// One gate of each of `cells` (gate i = cells[i]), each driving its
  /// own output from the primary inputs a and b (a alone for an inverter).
  Netlist receivers(std::initializer_list<std::string_view> cells) const {
    Netlist netlist(lib_);
    const SignalId pins[] = {netlist.add_primary_input("a"),
                             netlist.add_primary_input("b")};
    for (const std::string_view name : cells) {
      const CellId cell = lib_.find(name);
      const std::string id = std::to_string(netlist.num_gates());
      const SignalId y = netlist.add_signal("y" + id);
      netlist.mark_primary_output(y);
      (void)netlist.add_gate("g" + id, cell,
                             std::span<const SignalId>(pins, lib_.cell(cell).pins.size()), y);
    }
    return netlist;
  }

  Library lib_;
  const Cell* cell_ = nullptr;
};

TEST_F(DelayModelTest, DdmSettledGateGivesConventionalDelay) {
  const DdmDelayModel ddm;
  const DelayQuery r = base_request();  // no t_prev_out50
  const ArcDelay res = evaluate(ddm, r);
  const EdgeTiming& edge = cell_->pin(0).fall;
  EXPECT_DOUBLE_EQ(res.tp, edge.tp0(r.cl, r.tau_in));
  EXPECT_FALSE(res.filtered);
  EXPECT_DOUBLE_EQ(res.inertial_window, 0.0);
}

TEST_F(DelayModelTest, DdmDelayDegradesForCloseTransitions) {
  const DdmDelayModel ddm;
  DelayQuery r = base_request();
  const TimeNs tp_settled = evaluate(ddm, r).tp;

  r.t_prev_out50 = r.t_event - 0.3;  // output switched 0.3 ns ago
  const ArcDelay close = evaluate(ddm, r);
  EXPECT_FALSE(close.filtered);
  EXPECT_LT(close.tp, tp_settled);
  EXPECT_GT(close.tp, 0.0);
}

TEST_F(DelayModelTest, DdmDelayMonotonicInElapsedTime) {
  const DdmDelayModel ddm;
  DelayQuery r = base_request();
  TimeNs prev_tp = 0.0;
  for (double t_elapsed = 0.3; t_elapsed < 5.0; t_elapsed += 0.1) {
    r.t_prev_out50 = r.t_event - t_elapsed;
    const ArcDelay res = evaluate(ddm, r);
    ASSERT_FALSE(res.filtered) << "T=" << t_elapsed;
    EXPECT_GE(res.tp, prev_tp) << "T=" << t_elapsed;
    prev_tp = res.tp;
  }
}

TEST_F(DelayModelTest, DdmConvergesToConventionalDelay) {
  const DdmDelayModel ddm;
  DelayQuery r = base_request();
  const TimeNs tp_settled = evaluate(ddm, r).tp;
  r.t_prev_out50 = r.t_event - 1000.0;  // ages ago
  EXPECT_NEAR(evaluate(ddm, r).tp, tp_settled, 1e-9);
}

TEST_F(DelayModelTest, DdmFiltersWhenElapsedBelowT0) {
  const DdmDelayModel ddm;
  DelayQuery r = base_request();
  const EdgeTiming& edge = cell_->pin(0).fall;
  const TimeNs t0 = edge.deg_t0(r.tau_in, r.vdd);
  ASSERT_GT(t0, 0.0);
  r.t_prev_out50 = r.t_event - 0.5 * t0;  // T < T0
  const ArcDelay res = evaluate(ddm, r);
  EXPECT_TRUE(res.filtered);
}

TEST_F(DelayModelTest, DdmFilteredResultClearsTauOut) {
  // Regression: a filtered result used to carry the conventional tau_out
  // computed before the collapse decision; the engine's minimum-width
  // fallback pulse then inherited a full-size ramp.
  const DdmDelayModel ddm;
  DelayQuery r = base_request();
  const EdgeTiming& edge = cell_->pin(0).fall;
  r.t_prev_out50 = r.t_event - 0.5 * edge.deg_t0(r.tau_in, r.vdd);  // T < T0
  const ArcDelay res = evaluate(ddm, r);
  ASSERT_TRUE(res.filtered);
  EXPECT_DOUBLE_EQ(res.tp, 0.0);
  EXPECT_DOUBLE_EQ(res.tau_out, 0.0);
}

TEST_F(DelayModelTest, DdmClampsNonPositiveDegradationTau) {
  // Regression: eq. 2's linear (A, B) fit can cross zero at extreme loads;
  // the delay evaluation used to hard-abort via ensure(tau > 0).  The clamp treats a
  // non-positive tau as instant recovery: full conventional delay past T0,
  // collapse below it -- never a crash.
  const DdmDelayModel ddm;
  Cell extreme = *cell_;
  extreme.pins[0].fall.deg_a = -1.0;  // tau = (A + B*CL)/VDD < 0 at any load
  extreme.pins[0].fall.deg_b = 0.0;
  DelayQuery r = base_request();
  r.cell = &extreme;
  const EdgeTiming& edge = extreme.pins[0].fall;
  const TimeNs t0 = edge.deg_t0(r.tau_in, r.vdd);
  ASSERT_LE(edge.deg_tau(r.cl, r.vdd), 0.0);

  r.t_prev_out50 = r.t_event - (t0 + 0.2);  // T > T0: instant full recovery
  ArcDelay res;
  ASSERT_NO_THROW(res = evaluate(ddm, r));
  EXPECT_FALSE(res.filtered);
  EXPECT_NEAR(res.tp, edge.tp0(r.cl, r.tau_in), 1e-12);

  r.t_prev_out50 = r.t_event - 0.5 * t0;  // T <= T0 still collapses
  ASSERT_NO_THROW(res = evaluate(ddm, r));
  EXPECT_TRUE(res.filtered);
  EXPECT_DOUBLE_EQ(res.tau_out, 0.0);
}

TEST_F(DelayModelTest, DdmMatchesEquationOne) {
  const DdmDelayModel ddm;
  DelayQuery r = base_request();
  const EdgeTiming& edge = cell_->pin(0).fall;
  const TimeNs tp0 = edge.tp0(r.cl, r.tau_in);
  const TimeNs tau = edge.deg_tau(r.cl, r.vdd);
  const TimeNs t0 = edge.deg_t0(r.tau_in, r.vdd);

  const double t_elapsed = 0.7;
  r.t_prev_out50 = r.t_event - t_elapsed;
  const ArcDelay res = evaluate(ddm, r);
  const double expected = tp0 * (1.0 - std::exp(-(t_elapsed - t0) / tau));
  EXPECT_NEAR(res.tp, expected, 1e-12);
}

TEST_F(DelayModelTest, DegradationParametersFollowEq2AndEq3) {
  const EdgeTiming& edge = cell_->pin(0).fall;
  // eq. 2: tau * VDD = A + B * CL -> linear in CL.
  const double tau1 = edge.deg_tau(0.02, 5.0);
  const double tau2 = edge.deg_tau(0.04, 5.0);
  const double tau3 = edge.deg_tau(0.06, 5.0);
  EXPECT_NEAR(tau2 - tau1, tau3 - tau2, 1e-12);
  EXPECT_NEAR(tau1 * 5.0, edge.deg_a + edge.deg_b * 0.02, 1e-12);
  // eq. 3: T0 proportional to tau_in.
  EXPECT_NEAR(edge.deg_t0(0.8, 5.0), 2.0 * edge.deg_t0(0.4, 5.0), 1e-12);
  EXPECT_NEAR(edge.deg_t0(0.4, 5.0), (0.5 - edge.deg_c / 5.0) * 0.4, 1e-12);
}

TEST_F(DelayModelTest, DdmUsesPerPinThresholds) {
  const Netlist netlist = receivers({"NAND2_X1", "NOR2_X1", "INV_X1"});
  const TimingGraph graph = TimingGraph::build(netlist, DdmDelayModel{}.timing_policy());
  const Cell& nand = lib_.cell(lib_.find("NAND2_X1"));
  const GateId g_nand{0};
  const GateId g_nor{1};
  const GateId g_inv{2};
  EXPECT_EQ(graph.threshold_fraction(g_nand, 0), nand.pin(0).vt / lib_.vdd());
  EXPECT_EQ(graph.threshold_fraction(g_nand, 1), nand.pin(1).vt / lib_.vdd());
  // Receivers of different kinds on one net see different thresholds --
  // the effect the paper's Fig. 1 relies on.
  EXPECT_LT(graph.threshold_fraction(g_nand, 0), graph.threshold_fraction(g_inv, 0));
  EXPECT_LT(graph.threshold_fraction(g_inv, 0), graph.threshold_fraction(g_nor, 0));
}

TEST_F(DelayModelTest, CdmIgnoresInternalState) {
  const CdmDelayModel cdm;
  DelayQuery r = base_request();
  const TimeNs tp_settled = evaluate(cdm, r).tp;
  r.t_prev_out50 = r.t_event - 0.2;  // would degrade under DDM
  const ArcDelay res = evaluate(cdm, r);
  EXPECT_DOUBLE_EQ(res.tp, tp_settled);
  EXPECT_FALSE(res.filtered);
}

TEST_F(DelayModelTest, CdmDefaultsToTransportLikeWindow) {
  // Matches the paper's observed HALOTIS-CDM behaviour (Table 1: almost no
  // filtered events).
  const CdmDelayModel cdm;
  EXPECT_DOUBLE_EQ(evaluate(cdm, base_request()).inertial_window, 0.0);
}

TEST_F(DelayModelTest, CdmWindowModes) {
  const CdmDelayModel fixed(CdmDelayModel::InertialWindow::kFixed, 0.75);
  EXPECT_DOUBLE_EQ(evaluate(fixed, base_request()).inertial_window, 0.75);
  const CdmDelayModel classical(CdmDelayModel::InertialWindow::kGateDelay);
  const ArcDelay res = evaluate(classical, base_request());
  EXPECT_DOUBLE_EQ(res.inertial_window, res.tp);
}

TEST_F(DelayModelTest, CdmThresholdIsMidswingEverywhere) {
  const Netlist netlist = receivers({"NAND2_X1", "INV_LVT"});
  const TimingGraph graph = TimingGraph::build(netlist, CdmDelayModel{}.timing_policy());
  EXPECT_EQ(graph.threshold_fraction(GateId{0}, 0), 0.5);
  EXPECT_EQ(graph.threshold_fraction(GateId{0}, 1), 0.5);
  EXPECT_EQ(graph.threshold_fraction(GateId{1}, 0), 0.5);  // VT ignored
}

TEST_F(DelayModelTest, DelayGrowsWithLoadAndSlew) {
  const DdmDelayModel ddm;
  DelayQuery r = base_request();
  const TimeNs tp_base = evaluate(ddm, r).tp;
  r.cl *= 2.0;
  const TimeNs tp_heavier = evaluate(ddm, r).tp;
  EXPECT_GT(tp_heavier, tp_base);
  r = base_request();
  r.tau_in *= 2.0;
  EXPECT_GT(evaluate(ddm, r).tp, tp_base);
}

class DdmElapsedSweep : public ::testing::TestWithParam<double> {};

TEST_P(DdmElapsedSweep, DelayFractionMatchesExponentialLaw) {
  const Library lib = Library::default_u6();
  const Cell& cell = lib.cell(lib.find("NAND2_X1"));
  const DdmDelayModel ddm;
  DelayQuery r;
  r.cell = &cell;
  r.pin = 1;
  r.out_edge = Edge::kRise;
  r.cl = 0.06;
  r.tau_in = 0.5;
  r.t_event = 100.0;
  r.vdd = lib.vdd();
  const TimeNs tp0 = evaluate(ddm, r).tp;

  const double t_elapsed = GetParam();
  r.t_prev_out50 = r.t_event - t_elapsed;
  const ArcDelay res = evaluate(ddm, r);
  const EdgeTiming& edge = cell.pin(1).rise;
  const TimeNs tau = edge.deg_tau(r.cl, r.vdd);
  const TimeNs t0 = edge.deg_t0(r.tau_in, r.vdd);
  if (t_elapsed <= t0) {
    EXPECT_TRUE(res.filtered);
  } else {
    EXPECT_NEAR(res.tp / tp0, 1.0 - std::exp(-(t_elapsed - t0) / tau), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(ElapsedTimes, DdmElapsedSweep,
                         ::testing::Values(0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4));

}  // namespace
}  // namespace halotis
