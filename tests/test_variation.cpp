// Tests for per-instance process variation (TimingGraph::apply_variation)
// and the replay-backed variation engine.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "src/base/check.hpp"
#include "src/base/mathfit.hpp"
#include "src/base/rng.hpp"
#include "src/circuits/generators.hpp"
#include "src/circuits/stimuli.hpp"
#include "src/core/simulator.hpp"
#include "src/replay/variation.hpp"

namespace halotis {
namespace {

class VariationTest : public ::testing::Test {
 protected:
  /// The DDM graph of `netlist` under one variation corner.
  TimingGraph corner(const Netlist& netlist, double sigma, std::uint64_t seed) const {
    TimingGraph graph = TimingGraph::build(netlist, ddm_.timing_policy());
    graph.apply_variation(sigma, seed);
    return graph;
  }

  Library lib_ = Library::default_u6();
  DdmDelayModel ddm_;
};

TEST_F(VariationTest, FactorsAreDeterministicPerSeedAndGate) {
  for (unsigned g = 0; g < 50; ++g) {
    EXPECT_DOUBLE_EQ(variation_factor(42, 0.1, GateId{g}),
                     variation_factor(42, 0.1, GateId{g}));
  }
  int differing = 0;
  for (unsigned g = 0; g < 50; ++g) {
    if (variation_factor(42, 0.1, GateId{g}) != variation_factor(43, 0.1, GateId{g})) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 45);  // different seed: different corner
}

TEST_F(VariationTest, FactorsAreRoughlyLognormal) {
  const double sigma = 0.2;
  std::vector<double> logs;
  for (unsigned g = 0; g < 4000; ++g) {
    const double f = variation_factor(7, sigma, GateId{g});
    EXPECT_GT(f, 0.0);
    logs.push_back(std::log(f));
  }
  EXPECT_NEAR(mean(logs), 0.0, 0.02);
  EXPECT_NEAR(stddev(logs), sigma, 0.02);
}

TEST_F(VariationTest, ZeroSigmaIsIdentity) {
  ChainCircuit chain = make_chain(lib_, 3);
  Stimulus stim(0.4);
  stim.add_edge(chain.nodes[0], 2.0, true);

  Simulator base_sim(chain.netlist, ddm_);
  base_sim.apply_stimulus(stim);
  (void)base_sim.run();
  const TimingGraph graph = corner(chain.netlist, 0.0, 9);
  Simulator var_sim(chain.netlist, ddm_, graph);
  var_sim.apply_stimulus(stim);
  (void)var_sim.run();

  const auto base_hist = base_sim.history(chain.nodes.back());
  const auto var_hist = var_sim.history(chain.nodes.back());
  ASSERT_EQ(base_hist.size(), var_hist.size());
  for (std::size_t i = 0; i < base_hist.size(); ++i) {
    EXPECT_DOUBLE_EQ(base_hist[i].t50(), var_hist[i].t50());
  }
}

TEST_F(VariationTest, VariationShiftsArrivalTimes) {
  ChainCircuit chain = make_chain(lib_, 6);
  Stimulus stim(0.4);
  stim.add_edge(chain.nodes[0], 2.0, true);

  Simulator nominal(chain.netlist, ddm_);
  nominal.apply_stimulus(stim);
  (void)nominal.run();
  const TimeNs t_nominal = nominal.history(chain.nodes.back())[0].t50();

  int shifted = 0;
  for (unsigned seed = 0; seed < 10; ++seed) {
    const TimingGraph graph = corner(chain.netlist, 0.15, seed);
    Simulator sim(chain.netlist, ddm_, graph);
    sim.apply_stimulus(stim);
    (void)sim.run();
    const TimeNs t = sim.history(chain.nodes.back())[0].t50();
    if (std::abs(t - t_nominal) > 1e-6) ++shifted;
    // Functional result unchanged.
    EXPECT_EQ(sim.final_value(chain.nodes.back()),
              nominal.final_value(chain.nodes.back()));
  }
  EXPECT_EQ(shifted, 10);
}

TEST_F(VariationTest, ThresholdsUntouched) {
  // The low-VT inverter's per-pin threshold (DDM) must survive a corner.
  Netlist netlist(lib_);
  const SignalId a = netlist.add_primary_input("a");
  const SignalId y = netlist.add_signal("y");
  netlist.mark_primary_output(y);
  const SignalId inputs[] = {a};
  (void)netlist.add_gate("g", lib_.find("INV_LVT"), inputs, y);
  const TimingGraph nominal = TimingGraph::build(netlist, ddm_.timing_policy());
  const TimingGraph varied = corner(netlist, 0.3, 5);
  EXPECT_NE(varied.arc(0).factor, 1.0);
  EXPECT_EQ(varied.threshold_fraction(GateId{0}, 0), nominal.threshold_fraction(GateId{0}, 0));
}

/// The largest accepted sigma keeps every derated waveform finite (the
/// factors reach ~1e37, not Inf), and a larger one is rejected.
TEST_F(VariationTest, LargestSigmaKeepsHistoriesFinite) {
  MultiplierCircuit mult = make_multiplier(lib_, 4);
  std::vector<SignalId> inputs = mult.a;
  inputs.insert(inputs.end(), mult.b.begin(), mult.b.end());
  Stimulus stim = staggered_random_stimulus(inputs, 8, 555);
  stim.set_initial(mult.tie0, false);

  SplitMix64 seeds(10);
  for (int sample = 0; sample < 20; ++sample) {
    const TimingGraph graph = corner(mult.netlist, kMaxVariationSigma, seeds.next());
    Simulator sim(mult.netlist, ddm_, graph);
    sim.apply_stimulus(stim);
    (void)sim.run();
    for (std::size_t s = 0; s < mult.netlist.num_signals(); ++s) {
      const SignalId sid{static_cast<SignalId::underlying_type>(s)};
      for (const Transition& tr : sim.history(sid)) {
        ASSERT_TRUE(std::isfinite(tr.t_start) && std::isfinite(tr.tau))
            << "sample " << sample << " signal " << mult.netlist.signal(sid).name;
      }
    }
  }

  replay::VariationConfig config;
  config.sigma = kMaxVariationSigma;
  config.samples = 20;
  config.use_replay = true;
  const replay::VariationResult result =
      replay::run_variation(mult.netlist, ddm_, stim, mult.s, config);
  for (const replay::VariationSampleRow& row : result.rows) {
    EXPECT_TRUE(std::isfinite(row.critical_t50));
  }
  config.sigma = std::nextafter(kMaxVariationSigma, 11.0);
  EXPECT_THROW((void)replay::run_variation(mult.netlist, ddm_, stim, mult.s, config),
               ContractViolation);
}

// ---- replay-backed variation engine ----------------------------------------

/// Replay must be an internal accelerator only: identical rows, identical
/// formatted artifacts, at every thread count.
TEST_F(VariationTest, ReplayArtifactsByteIdenticalAtAnyThreadCount) {
  MultiplierCircuit mult = make_multiplier(lib_, 8);
  std::vector<SignalId> inputs = mult.a;
  inputs.insert(inputs.end(), mult.b.begin(), mult.b.end());
  Stimulus stim = staggered_random_stimulus(inputs, 6, 321);
  stim.set_initial(mult.tie0, false);

  replay::VariationConfig config;
  config.sigma = 1e-4;  // mixed regime on mult8: both replays and fallbacks
  config.seed = 17;
  config.samples = 32;
  config.use_replay = false;
  config.threads = 1;
  const replay::VariationResult full =
      replay::run_variation(mult.netlist, ddm_, stim, mult.s, config);
  EXPECT_FALSE(full.replay_used);
  const std::string full_csv = replay::format_variation_csv(full);
  const std::string full_report = replay::format_variation_report(full, config);

  config.use_replay = true;
  for (const int threads : {1, 2, 4}) {
    config.threads = threads;
    const replay::VariationResult rep =
        replay::run_variation(mult.netlist, ddm_, stim, mult.s, config);
    EXPECT_TRUE(rep.replay_used);
    EXPECT_EQ(replay::format_variation_csv(rep), full_csv)
        << threads << " threads";
    EXPECT_EQ(replay::format_variation_report(rep, config), full_report)
        << threads << " threads";
    ASSERT_EQ(rep.rows.size(), full.rows.size());
    for (std::size_t i = 0; i < rep.rows.size(); ++i) {
      EXPECT_EQ(rep.rows[i].history_hash, full.rows[i].history_hash) << i;
      EXPECT_EQ(rep.rows[i].critical_t50, full.rows[i].critical_t50) << i;
      EXPECT_EQ(rep.rows[i].sample_seed, full.rows[i].sample_seed) << i;
    }
  }
}

/// At corner-retiming sigma everything replays; at schedule-breaking sigma
/// the engine degrades to fallbacks -- artifacts stay exact either way.
TEST_F(VariationTest, ReplayRateTracksSigma) {
  MultiplierCircuit mult = make_multiplier(lib_, 4);
  std::vector<SignalId> inputs = mult.a;
  inputs.insert(inputs.end(), mult.b.begin(), mult.b.end());
  Stimulus stim = staggered_random_stimulus(inputs, 8, 555);
  stim.set_initial(mult.tie0, false);

  replay::VariationConfig config;
  config.seed = 3;
  config.samples = 20;
  config.use_replay = true;

  config.sigma = 1e-8;
  const replay::VariationResult tiny =
      replay::run_variation(mult.netlist, ddm_, stim, mult.s, config);
  EXPECT_EQ(tiny.fallbacks, 0u);

  config.sigma = 0.1;
  const replay::VariationResult coarse =
      replay::run_variation(mult.netlist, ddm_, stim, mult.s, config);
  EXPECT_GT(coarse.fallbacks, 0u);

  config.use_replay = false;
  const replay::VariationResult oracle =
      replay::run_variation(mult.netlist, ddm_, stim, mult.s, config);
  ASSERT_EQ(coarse.rows.size(), oracle.rows.size());
  for (std::size_t i = 0; i < oracle.rows.size(); ++i) {
    EXPECT_EQ(coarse.rows[i].history_hash, oracle.rows[i].history_hash) << i;
  }
}

}  // namespace
}  // namespace halotis
