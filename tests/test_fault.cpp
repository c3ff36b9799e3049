// Tests for the stuck-at fault model, output sampling and ATPG, graded by
// the campaign engine (test_campaign checks every one of these inputs
// against the netlist-rewiring oracle, fault for fault).
#include <gtest/gtest.h>

#include <array>

#include "src/circuits/generators.hpp"
#include "src/fault/campaign.hpp"
#include "src/fault/fault.hpp"

namespace halotis {
namespace {

class FaultTest : public ::testing::Test {
 protected:
  Library lib_ = Library::default_u6();
  DdmDelayModel ddm_;

  /// Grades `faults` (all, if empty) on a campaign over a fresh elaboration.
  CampaignResult campaign(const Netlist& netlist, const Stimulus& stim,
                          std::vector<Fault> faults = {}) const {
    const TimingGraph timing = TimingGraph::build(netlist, ddm_.timing_policy());
    CampaignEngine engine(netlist, ddm_, timing, /*threads=*/1);
    return engine.run(stim, std::move(faults));
  }
};

TEST_F(FaultTest, EnumerationCoversEverySignalTwice) {
  C17Circuit c17 = make_c17(lib_);
  const auto faults = enumerate_faults(c17.netlist);
  EXPECT_EQ(faults.size(), 2 * c17.netlist.num_signals());
}

TEST_F(FaultTest, ExhaustiveVectorsReachFullCoverageOnInverter) {
  ChainCircuit chain = make_chain(lib_, 1);
  Stimulus stim(0.4);
  stim.add_edge(chain.nodes[0], 5.0, true);
  stim.add_edge(chain.nodes[0], 10.0, false);

  const CampaignResult result = campaign(chain.netlist, stim);
  // in/SA0, in/SA1, out/SA0, out/SA1 are all observable with both vectors.
  EXPECT_EQ(result.total, 4u);
  EXPECT_EQ(result.detected, 4u);
  EXPECT_DOUBLE_EQ(result.coverage(), 1.0);
}

TEST_F(FaultTest, UndetectedFaultsReported) {
  // A single constant-ish vector cannot detect every c17 fault.
  C17Circuit c17 = make_c17(lib_);
  Stimulus stim(0.4);
  stim.add_edge(c17.inputs[0], 5.0, true);  // only N1 ever toggles

  const CampaignResult result = campaign(c17.netlist, stim);
  EXPECT_GT(result.detected, 0u);
  EXPECT_FALSE(result.undetected.empty());
  EXPECT_EQ(result.detected + result.undetected.size(), result.total);
  EXPECT_LT(result.coverage(), 1.0);
}

TEST_F(FaultTest, RicherSequenceImprovesCoverage) {
  C17Circuit c17 = make_c17(lib_);
  std::vector<SignalId> inputs(c17.inputs.begin(), c17.inputs.end());

  Stimulus weak(0.4);
  weak.apply_word(inputs, 0x1F, 5.0);

  Stimulus strong(0.4);
  const std::vector<std::uint64_t> words{0x00, 0x1F, 0x0A, 0x15, 0x07, 0x18};
  strong.apply_sequence(inputs, words, 5.0, 5.0);

  const CampaignResult weak_result = campaign(c17.netlist, weak);
  const CampaignResult strong_result = campaign(c17.netlist, strong);
  EXPECT_GT(strong_result.detected, weak_result.detected);
  EXPECT_GE(strong_result.coverage(), 0.9);
}

TEST_F(FaultTest, SampleTimesAlignToVectorApplicationInstants) {
  // make_vector_stimulus applies word k at t = k * period; each vector's
  // settled response must be observed just before the next vector lands,
  // plus an initial-state observation and a final sample one period after
  // the last application.
  C17Circuit c17 = make_c17(lib_);
  const std::vector<std::uint64_t> words{0x00, 0x1F, 0x0A};
  const Stimulus stim = make_vector_stimulus(c17.netlist, words, 4.0, 0.3);
  FaultSimOptions options;
  options.sample_period = 4.0;
  const std::vector<TimeNs> times = fault_sample_times(stim, options);
  ASSERT_EQ(times.size(), 3u);
  EXPECT_DOUBLE_EQ(times[0], 3.9);   // initial word 0x00 settled
  EXPECT_DOUBLE_EQ(times[1], 7.9);   // 0x1F (applied at 4) settled
  EXPECT_DOUBLE_EQ(times[2], 11.9);  // 0x0A (applied at 8) + one period hold
}

TEST_F(FaultTest, LastVectorDetectionUnderExplicitSampleBudget) {
  // y = AND(a, b); a/SA0 is detectable only by the vector a=1, b=1 -- the
  // LAST vector below.  Regression: the old k*period sample grid spent its
  // first sample on the pre-vector initial state, so a budget of one sample
  // per vector silently dropped the last vector and reported this fault
  // undetected.
  Netlist nl(lib_);
  const SignalId a = nl.add_primary_input("a");
  const SignalId b = nl.add_primary_input("b");
  const SignalId y = nl.add_signal("y");
  nl.mark_primary_output(y);
  const std::array<SignalId, 2> ins{a, b};
  (void)nl.add_gate("g", CellKind::kAnd2, ins, y);

  const std::vector<std::uint64_t> words{0b00, 0b01, 0b11};
  const Stimulus stim = make_vector_stimulus(nl, words);

  const CampaignResult result = campaign(nl, stim, {Fault{a, false}});
  EXPECT_EQ(result.detected, 1u) << "a/SA0 is only visible at the last vector";
  EXPECT_TRUE(result.undetected.empty());
}

TEST_F(FaultTest, OffGridStimulusStillObservesEveryVector) {
  // A seq whose application instants sit on a 3 ns pitch must not be
  // sampled on the default 5 ns grid: every vector gets exactly one settled
  // observation regardless of the stimulus's own spacing.
  C17Circuit c17 = make_c17(lib_);
  std::vector<SignalId> inputs(c17.inputs.begin(), c17.inputs.end());
  Stimulus stim(0.4);
  const std::vector<std::uint64_t> words{0x00, 0x1F, 0x0A, 0x15};
  stim.apply_sequence(inputs, words, 3.0, 3.0);

  const CampaignResult aligned = campaign(c17.netlist, stim);

  Stimulus reference(0.4);
  reference.apply_sequence(inputs, words, 5.0, 5.0);
  const CampaignResult on_grid = campaign(c17.netlist, reference);
  // Same vectors, same settled responses: identical verdicts.
  EXPECT_EQ(aligned.detected, on_grid.detected);
  EXPECT_EQ(aligned.undetected.size(), on_grid.undetected.size());
}

TEST_F(FaultTest, FaultNames) {
  C17Circuit c17 = make_c17(lib_);
  EXPECT_EQ(fault_name(c17.netlist, Fault{c17.inputs[0], false}), "N1/SA0");
  EXPECT_EQ(fault_name(c17.netlist, Fault{c17.outputs[1], true}), "N23/SA1");
}

TEST_F(FaultTest, AtpgReachesHighCoverageOnC17) {
  C17Circuit c17 = make_c17(lib_);
  AtpgOptions options;
  options.max_candidates = 120;
  options.seed = 3;
  const TimingGraph timing = TimingGraph::build(c17.netlist, ddm_.timing_policy());
  const AtpgResult result = generate_tests(c17.netlist, ddm_, timing, options);
  EXPECT_GE(result.coverage(), 0.95);
  EXPECT_EQ(result.detected + result.undetected.size(), result.total_faults);
  // The compact set is much smaller than the candidate budget.
  EXPECT_LE(result.words.size(), 12u);
  EXPECT_GE(result.words.size(), 3u);

  // Replaying the generated set reproduces the claimed coverage.
  const Stimulus replay = make_vector_stimulus(c17.netlist, result.words);
  const CampaignResult check = campaign(c17.netlist, replay);
  EXPECT_EQ(check.detected, result.detected);
}

TEST_F(FaultTest, AtpgDeterministicPerSeed) {
  C17Circuit c17 = make_c17(lib_);
  AtpgOptions options;
  options.max_candidates = 60;
  options.seed = 11;
  const TimingGraph timing = TimingGraph::build(c17.netlist, ddm_.timing_policy());
  const AtpgResult a = generate_tests(c17.netlist, ddm_, timing, options);
  const AtpgResult b = generate_tests(c17.netlist, ddm_, timing, options);
  EXPECT_EQ(a.words, b.words);
  EXPECT_EQ(a.detected, b.detected);
}

TEST_F(FaultTest, VectorStimulusHelper) {
  C17Circuit c17 = make_c17(lib_);
  const std::vector<std::uint64_t> words{0x00, 0x1F, 0x0A};
  const Stimulus stim = make_vector_stimulus(c17.netlist, words, 4.0, 0.3);
  // Word 2 (0x0A): N1=0 N2=1 N3=0 N6=1 N7=0 at t=8.
  EXPECT_FALSE(stim.initial_value(c17.inputs[0]));
  const auto edges_n2 = stim.edges(c17.inputs[1]);
  ASSERT_GE(edges_n2.size(), 1u);
  EXPECT_DOUBLE_EQ(edges_n2[0].time, 4.0);  // rose with 0x1F
  EXPECT_DOUBLE_EQ(stim.default_slew(), 0.3);
}

TEST_F(FaultTest, SpecificFaultSubsetOnly) {
  C17Circuit c17 = make_c17(lib_);
  Stimulus stim(0.4);
  std::vector<SignalId> inputs(c17.inputs.begin(), c17.inputs.end());
  const std::vector<std::uint64_t> words{0x00, 0x1F, 0x0A, 0x15};
  stim.apply_sequence(inputs, words, 5.0, 5.0);

  const std::vector<Fault> subset{Fault{c17.outputs[0], false},
                                  Fault{c17.outputs[0], true}};
  const CampaignResult result = campaign(c17.netlist, stim, subset);
  EXPECT_EQ(result.total, 2u);
  EXPECT_EQ(result.detected, 2u);  // an output line fault is always visible
}

}  // namespace
}  // namespace halotis
