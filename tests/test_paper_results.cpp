// Regression guards for the paper's headline results: these tests pin the
// *shapes* reported in EXPERIMENTS.md so that future changes to the engine
// or the library cannot silently lose the reproduction.
#include <gtest/gtest.h>

#include "src/analog/analog_sim.hpp"
#include "src/circuits/generators.hpp"
#include "src/core/simulator.hpp"

namespace halotis {
namespace {

Stimulus multiplier_stimulus(const MultiplierCircuit& mult,
                             const std::vector<std::uint64_t>& words) {
  Stimulus stim(0.5);
  std::vector<SignalId> ab;
  for (SignalId s : mult.a) ab.push_back(s);
  for (SignalId s : mult.b) ab.push_back(s);
  stim.apply_sequence(ab, words, 5.0, 5.0);
  stim.set_initial(mult.tie0, false);
  return stim;
}

class PaperResults : public ::testing::Test {
 protected:
  Library lib_ = Library::default_u6();
  DdmDelayModel ddm_;
  CdmDelayModel cdm_;
};

TEST_F(PaperResults, Table1EventOverestimationBands) {
  // Paper: +47% / +52%.  This technology: gentler degradation, so the
  // bands are wide; what must hold is a double-digit overestimation that
  // is larger on the alternating sequence, and a DDM-dominant filter count.
  const std::vector<std::uint64_t> seq1{0x00, 0x77, 0xA5, 0x6E, 0xFF};
  const std::vector<std::uint64_t> seq2{0x00, 0xFF, 0x00, 0xFF, 0x00};
  double overst[2];
  int index = 0;
  for (const auto* words : {&seq1, &seq2}) {
    MultiplierCircuit mult = make_multiplier(lib_, 4);
    Simulator ddm_sim(mult.netlist, ddm_);
    ddm_sim.apply_stimulus(multiplier_stimulus(mult, *words));
    (void)ddm_sim.run();
    Simulator cdm_sim(mult.netlist, cdm_);
    cdm_sim.apply_stimulus(multiplier_stimulus(mult, *words));
    (void)cdm_sim.run();

    overst[index++] = 100.0 * (static_cast<double>(cdm_sim.stats().events_processed) /
                                   static_cast<double>(ddm_sim.stats().events_processed) -
                               1.0);
    EXPECT_GT(ddm_sim.stats().filtered_events(), cdm_sim.stats().filtered_events());
  }
  EXPECT_GT(overst[0], 10.0);
  EXPECT_GT(overst[1], 20.0);
  EXPECT_GT(overst[1], overst[0]);  // the alternating sequence is worse
  EXPECT_LT(overst[1], 150.0);      // sanity ceiling
}

TEST_F(PaperResults, Fig1DiscriminationBandExists) {
  // There must be at least two pulse widths where DDM propagates through
  // the low-threshold chain only -- and CDM must never discriminate.
  int ddm_band = 0;
  for (const double width : {0.7, 0.8, 0.9, 1.0, 1.1}) {
    Fig1Circuit fx = make_fig1(lib_);
    Stimulus stim(0.5);
    stim.set_initial(fx.in, true);
    stim.add_edge(fx.in, 5.0, false);
    stim.add_edge(fx.in, 5.0 + width, true);

    Simulator ddm_sim(fx.netlist, ddm_);
    ddm_sim.apply_stimulus(stim);
    (void)ddm_sim.run();
    if (ddm_sim.history(fx.out1c).size() >= 2 && ddm_sim.history(fx.out2c).empty()) {
      ++ddm_band;
    }

    Simulator cdm_sim(fx.netlist, cdm_);
    Stimulus stim2(0.5);
    stim2.set_initial(fx.in, true);
    stim2.add_edge(fx.in, 5.0, false);
    stim2.add_edge(fx.in, 5.0 + width, true);
    cdm_sim.apply_stimulus(stim2);
    (void)cdm_sim.run();
    EXPECT_EQ(cdm_sim.history(fx.out1c).size(), cdm_sim.history(fx.out2c).size())
        << "CDM discriminated at width " << width;
  }
  EXPECT_GE(ddm_band, 2);
}

TEST_F(PaperResults, Fig6DdmTracksReferenceCdmOverestimates) {
  MultiplierCircuit mult = make_multiplier(lib_, 4);
  const std::vector<std::uint64_t> words{0x00, 0x77, 0xA5, 0x6E, 0xFF};

  AnalogSim analog(mult.netlist);
  analog.apply_stimulus(multiplier_stimulus(mult, words));
  analog.run(27.0);
  std::size_t ref_total = 0;
  for (const SignalId s : mult.s) {
    ref_total += analog.trace(s).digitize(lib_.vdd()).edge_count();
  }

  Simulator ddm_sim(mult.netlist, ddm_);
  ddm_sim.apply_stimulus(multiplier_stimulus(mult, words));
  (void)ddm_sim.run();
  Simulator cdm_sim(mult.netlist, cdm_);
  cdm_sim.apply_stimulus(multiplier_stimulus(mult, words));
  (void)cdm_sim.run();

  std::size_t ddm_total = 0;
  std::size_t cdm_total = 0;
  for (const SignalId s : mult.s) {
    ddm_total += ddm_sim.history(s).size();
    cdm_total += cdm_sim.history(s).size();
  }
  ASSERT_GT(ref_total, 20u);  // the workload glitches
  // DDM within 40% of the reference on product-bit edges; CDM clearly above
  // both.
  EXPECT_LT(static_cast<double>(ddm_total), 1.4 * static_cast<double>(ref_total));
  EXPECT_GT(static_cast<double>(ddm_total), 0.6 * static_cast<double>(ref_total));
  EXPECT_GT(cdm_total, ddm_total);
  EXPECT_GT(static_cast<double>(cdm_total), 1.2 * static_cast<double>(ref_total));
}

TEST_F(PaperResults, Table2SpeedSeparation) {
  // One analog step costs orders of magnitude more than one event: verify
  // the per-work cost ratio without timing (the events_processed counts
  // are also in the mult4_waveforms repro experiment; here we pin the work
  // ratio that drives the CPU-time separation).
  MultiplierCircuit mult = make_multiplier(lib_, 4);
  const std::vector<std::uint64_t> words{0x00, 0x77, 0xA5, 0x6E, 0xFF};

  AnalogSim analog(mult.netlist);
  analog.apply_stimulus(multiplier_stimulus(mult, words));
  analog.run(27.0);

  Simulator sim(mult.netlist, ddm_);
  sim.apply_stimulus(multiplier_stimulus(mult, words));
  (void)sim.run();

  // The reference performs thousands of stage evaluations per processed
  // logic event -- the structural source of the paper's 2-3 orders of
  // magnitude CPU separation.
  const double ratio = static_cast<double>(analog.stage_evals()) /
                       static_cast<double>(sim.stats().events_processed);
  EXPECT_GT(ratio, 1000.0);
}

TEST_F(PaperResults, DdmIsNeverSlowerInEventCount) {
  // Table 2's "DDM faster than CDM" comes from processing fewer events.
  for (const auto& words : {std::vector<std::uint64_t>{0x00, 0x77, 0xA5, 0x6E, 0xFF},
                            std::vector<std::uint64_t>{0x00, 0xFF, 0x00, 0xFF, 0x00}}) {
    MultiplierCircuit mult = make_multiplier(lib_, 4);
    Simulator ddm_sim(mult.netlist, ddm_);
    ddm_sim.apply_stimulus(multiplier_stimulus(mult, words));
    (void)ddm_sim.run();
    Simulator cdm_sim(mult.netlist, cdm_);
    cdm_sim.apply_stimulus(multiplier_stimulus(mult, words));
    (void)cdm_sim.run();
    EXPECT_LE(ddm_sim.stats().events_processed, cdm_sim.stats().events_processed);
  }
}

}  // namespace
}  // namespace halotis
