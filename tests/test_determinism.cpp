// Kernel determinism and bounded-memory guarantees.
//
// The hot-path design (flattened fanout table, pooled transition
// bookkeeping with reclamation, intrusive pending lists, 4-ary queue) must
// be invisible in the results: two runs of the same workload -- and the
// same run under any delay model -- produce bit-identical SimStats and
// bit-identical signal histories.  These tests lock that in, plus the
// memory bound: live transition bookkeeping stays far below the total
// transition count on long stimuli.  HistoryHashesMatchGolden pins the
// waveforms themselves against tests/data/history_hashes.txt.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/base/rng.hpp"
#include "src/base/supervision.hpp"
#include "src/circuits/generators.hpp"
#include "src/circuits/stimuli.hpp"
#include "src/core/partition.hpp"
#include "src/core/simulator.hpp"
#include "src/parsers/bench_format.hpp"
#include "src/replay/history_hash.hpp"
#include "src/replay/resim.hpp"
#include "src/serve/service.hpp"
#include "src/timing/timing_arc.hpp"
#include "src/timing/timing_graph.hpp"
#include "src/tools/cli.hpp"

namespace halotis {
namespace {

void expect_stats_identical(const SimStats& a, const SimStats& b) {
  EXPECT_EQ(a.events_created, b.events_created);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.events_cancelled, b.events_cancelled);
  EXPECT_EQ(a.events_suppressed, b.events_suppressed);
  EXPECT_EQ(a.events_resurrected, b.events_resurrected);
  EXPECT_EQ(a.pair_cancellations, b.pair_cancellations);
  EXPECT_EQ(a.annihilations, b.annihilations);
  EXPECT_EQ(a.ddm_collapses, b.ddm_collapses);
  EXPECT_EQ(a.cdm_inertial_filtered, b.cdm_inertial_filtered);
  EXPECT_EQ(a.clamped_pulses, b.clamped_pulses);
  EXPECT_EQ(a.transitions_created, b.transitions_created);
  EXPECT_EQ(a.transitions_annihilated, b.transitions_annihilated);
  EXPECT_EQ(a.gate_evaluations, b.gate_evaluations);
}

/// Bit-exact comparison of every signal's surviving history.
void expect_histories_identical(const Simulator& a, const Simulator& b) {
  ASSERT_EQ(a.netlist().num_signals(), b.netlist().num_signals());
  for (std::size_t s = 0; s < a.netlist().num_signals(); ++s) {
    const SignalId id{static_cast<SignalId::underlying_type>(s)};
    const auto ha = a.history(id);
    const auto hb = b.history(id);
    ASSERT_EQ(ha.size(), hb.size()) << "signal " << s;
    for (std::size_t i = 0; i < ha.size(); ++i) {
      EXPECT_EQ(ha[i].edge, hb[i].edge) << "signal " << s << " transition " << i;
      // Bit-identical, not approximately equal: the kernel promises the
      // exact same float arithmetic regardless of internal layout.
      EXPECT_EQ(ha[i].t_start, hb[i].t_start) << "signal " << s << " transition " << i;
      EXPECT_EQ(ha[i].tau, hb[i].tau) << "signal " << s << " transition " << i;
    }
  }
}

class DeterminismTest : public ::testing::Test {
 protected:
  Library lib_ = Library::default_u6();
};

TEST_F(DeterminismTest, RepeatedRunsIdenticalAcrossDelayModels) {
  const DdmDelayModel ddm;
  const CdmDelayModel cdm;
  const CdmDelayModel cdm_strict(CdmDelayModel::InertialWindow::kGateDelay);
  const auto words = random_word_stream(8, 24, 99);

  // The three model policies, plus a DDM variation corner (sigma 0.08).
  struct Case {
    const DelayModel* model;
    double sigma;
  };
  for (const Case& c : {Case{&ddm, 0.0}, Case{&cdm, 0.0}, Case{&cdm_strict, 0.0},
                        Case{&ddm, 0.08}}) {
    MultiplierCircuit mult = make_multiplier(lib_, 4);
    TimingGraph graph = TimingGraph::build(mult.netlist, c.model->timing_policy());
    if (c.sigma != 0.0) graph.apply_variation(c.sigma, 1234);
    Simulator first(mult.netlist, *c.model, graph);
    first.apply_stimulus(multiplier_stimulus(mult, words));
    const RunResult r1 = first.run();

    Simulator second(mult.netlist, *c.model, graph);
    second.apply_stimulus(multiplier_stimulus(mult, words));
    const RunResult r2 = second.run();

    SCOPED_TRACE(std::string(c.model->name()) + " sigma " + std::to_string(c.sigma));
    EXPECT_EQ(r1.reason, r2.reason);
    EXPECT_EQ(r1.end_time, r2.end_time);
    expect_stats_identical(first.stats(), second.stats());
    expect_histories_identical(first, second);
  }
}

TEST_F(DeterminismTest, EventLimitInterruptionIsDeterministic) {
  const DdmDelayModel ddm;
  const auto words = random_word_stream(8, 16, 7);
  SimConfig config;
  config.max_events = 500;  // stop mid-storm

  MultiplierCircuit mult = make_multiplier(lib_, 4);
  Simulator first(mult.netlist, ddm, config);
  first.apply_stimulus(multiplier_stimulus(mult, words));
  EXPECT_EQ(first.run().reason, StopReason::kEventLimit);

  Simulator second(mult.netlist, ddm, config);
  second.apply_stimulus(multiplier_stimulus(mult, words));
  EXPECT_EQ(second.run().reason, StopReason::kEventLimit);

  expect_stats_identical(first.stats(), second.stats());
  expect_histories_identical(first, second);
}

/// The reclamation guarantee: bookkeeping for settled transitions is
/// recycled, so live records stay bounded by circuit activity instead of
/// growing with stimulus length.
TEST_F(DeterminismTest, TransitionBookkeepingIsReclaimed) {
  const DdmDelayModel ddm;
  const auto words = random_word_stream(8, 200, 3);  // long-running stimulus

  MultiplierCircuit mult = make_multiplier(lib_, 4);
  Simulator sim(mult.netlist, ddm);
  sim.apply_stimulus(multiplier_stimulus(mult, words));
  (void)sim.run();

  const std::uint64_t created = sim.stats().transitions_created;
  ASSERT_GT(created, 1000u) << "workload too small to exercise reclamation";
  // Peak live bookkeeping must be a small fraction of the total: with the
  // seed kernel (no reclamation) peak == created.
  EXPECT_LT(sim.peak_live_transitions() * 4, created);
  // After the run everything has fired or been cancelled; only
  // all-events-cancelled stragglers may stay live, and those scale with
  // circuit size, not stimulus length (this workload measures ~4).
  EXPECT_LT(sim.live_transitions() * 100, created);
}

/// Results must also be invariant to unrelated heap churn between runs
/// (catches accidental dependence on allocator layout / pointer values).
TEST_F(DeterminismTest, IndependentOfHeapLayout) {
  const DdmDelayModel ddm;
  const auto words = random_word_stream(8, 12, 11);

  MultiplierCircuit mult = make_multiplier(lib_, 4);
  Simulator first(mult.netlist, ddm);
  first.apply_stimulus(multiplier_stimulus(mult, words));
  (void)first.run();

  // Churn the heap.
  std::vector<std::vector<int>> junk;
  for (int i = 0; i < 100; ++i) junk.emplace_back(997, i);
  junk.clear();

  Simulator second(mult.netlist, ddm);
  second.apply_stimulus(multiplier_stimulus(mult, words));
  (void)second.run();

  expect_stats_identical(first.stats(), second.stats());
  expect_histories_identical(first, second);
}

// ---- the history-hash golden -------------------------------------------------
//
// Fourteen workloads, one canonical waveform hash each
// (replay::hash_sim_history), compared in order with
// tests/data/history_hashes.txt.  Together they cover the serial kernel
// under both delay models, the partitioned kernel at 1 and 4 threads, an
// event-budget stop, trace replay and the daemon's service path: any change
// to event ordering, filtering decisions or float arithmetic changes a
// hash.

std::string hash_line(std::uint64_t hash) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "\"history_hash\": \"%016" PRIx64 "\"", hash);
  return buffer;
}

template <class Sim>
std::uint64_t run_and_hash(Sim& sim, const Stimulus& stim) {
  sim.apply_stimulus(stim);
  (void)sim.run();
  return replay::hash_sim_history(sim);
}

std::uint64_t serial_hash(const Netlist& netlist, const DelayModel& model,
                          const Stimulus& stim,
                          const RunSupervisor* supervisor = nullptr) {
  Simulator sim(netlist, model);
  sim.supervise(supervisor);
  return run_and_hash(sim, stim);
}

/// The ring oscillator under DDM, stopped by a 50,000-event budget.  The
/// stop point is a pure function of the event ordinal, so the surviving
/// history is deterministic.
std::uint64_t storm_guard_hash(const Library& lib) {
  const DdmDelayModel ddm;
  const RingOscillatorCircuit ring = make_ring_oscillator(lib);
  RunBudget budget;
  budget.max_events = 50000;
  RunSupervisor supervisor(budget);
  supervisor.arm();
  Simulator sim(ring.netlist, ddm);
  sim.supervise(&supervisor);
  sim.apply_stimulus(ring_kick_stimulus(ring));
  try {
    (void)sim.run();
    ADD_FAILURE() << "ring oscillator finished under an event budget";
  } catch (const RunError& e) {
    EXPECT_EQ(e.kind(), RunErrorKind::kBudgetExceeded) << e.what();
  }
  return replay::hash_sim_history(sim);
}

/// Sample 0 of a per-gate variation sweep (sigma 1e-8) on the 8x8
/// multiplier: {trace-replayed hash, full-simulation hash}.
std::pair<std::uint64_t, std::uint64_t> replay_sample_hashes(const Library& lib) {
  const DdmDelayModel ddm;
  MultiplierCircuit mult = make_multiplier(lib, 8);
  std::vector<SignalId> inputs = mult.a;
  inputs.insert(inputs.end(), mult.b.begin(), mult.b.end());
  Stimulus stim = staggered_random_stimulus(inputs, 4, 424242);
  stim.set_initial(mult.tie0, false);

  replay::ResimEngine engine(mult.netlist, ddm, stim, SimConfig{});
  engine.record();
  TimingGraph corner = engine.base_graph();
  corner.apply_variation(1e-8, SplitMix64(0x5EEDBA5EULL).next());

  replay::ResimSession session(engine);
  const replay::ResimSample sample = session.evaluate(corner, mult.s, /*want_hash=*/true);
  EXPECT_FALSE(sample.fallback) << "sample 0 must be replayed, not re-simulated";
  Simulator full(mult.netlist, ddm, corner, SimConfig{});
  return {sample.history_hash, run_and_hash(full, stim)};
}

/// One cold `sim --hash` request through the daemon's service layer (no
/// elaboration cache): the 8x8 multiplier shipped as .bench text with a
/// three-word stimulus file.  Returns the response's "history hash:" value.
std::uint64_t daemon_cold_hash(const Library& lib) {
  MultiplierCircuit mult = make_multiplier(lib, 8);
  std::vector<std::string> names;
  for (const SignalId id : mult.a) names.push_back(mult.netlist.signal(id).name);
  for (const SignalId id : mult.b) names.push_back(mult.netlist.signal(id).name);
  const auto words = random_word_stream(16, 3, 0xC0FFEEULL);
  std::ostringstream stim;
  stim << "slew 0.5\n";
  std::vector<bool> value(names.size(), false);
  for (std::size_t j = 0; j < names.size(); ++j) {
    value[j] = ((words[0] >> j) & 1) != 0;
    stim << "init " << names[j] << ' ' << (value[j] ? 1 : 0) << '\n';
  }
  double t = 5.0;
  for (std::size_t i = 1; i < words.size(); ++i, t += 5.0) {
    for (std::size_t j = 0; j < names.size(); ++j) {
      const bool v = ((words[i] >> j) & 1) != 0;
      if (v != value[j]) {
        stim << "edge " << names[j] << ' ' << t << ' ' << (v ? 1 : 0) << '\n';
        value[j] = v;
      }
    }
  }

  serve::ServeContext context;
  serve::RequestIo io;
  io.files.emplace("mult8.bench", write_bench(mult.netlist));
  io.files.emplace("mult8.stim", stim.str());
  std::ostringstream out;
  std::ostringstream err;
  const int code = run_cli_service(
      {"sim", "--netlist", "mult8.bench", "--stim", "mult8.stim", "--hash"}, out, err,
      &context, &io);
  EXPECT_EQ(code, 0) << err.str();
  const std::string text = out.str();
  const std::size_t at = text.find("history hash: ");
  EXPECT_NE(at, std::string::npos) << text;
  return at == std::string::npos ? 0 : std::strtoull(text.c_str() + at + 14, nullptr, 16);
}

TEST_F(DeterminismTest, HistoryHashesMatchGolden) {
  const DdmDelayModel ddm;
  const CdmDelayModel cdm;
  const DelayModel* const models[] = {&ddm, &cdm};
  std::vector<std::uint64_t> hashes;

  // The paper's Table 2 workloads: the 4x4 multiplier, Fig. 6 and Fig. 7
  // sequences.
  for (const bool fig7 : {false, true}) {
    MultiplierCircuit mult = make_multiplier(lib_, 4);
    const Stimulus stim =
        multiplier_stimulus(mult, fig7 ? fig7_sequence() : fig6_sequence());
    for (const DelayModel* model : models) {
      hashes.push_back(serial_hash(mult.netlist, *model, stim));
    }
  }

  // The 8x8 multiplier under 12 pseudo-random words.  Supervision may only
  // abort work: an armed supervisor with no budget near its limit must
  // leave the DDM waveform untouched.
  {
    MultiplierCircuit mult = make_multiplier(lib_, 8);
    const Stimulus stim =
        multiplier_stimulus(mult, random_word_stream(16, 12, 0x9E3779B97F4A7C15ULL));
    for (const DelayModel* model : models) {
      hashes.push_back(serial_hash(mult.netlist, *model, stim));
    }
    RunBudget budget;
    budget.max_events = ~0ull;
    budget.max_live_transitions = ~0ull;
    budget.max_arena_bytes = ~0ull;
    budget.deadline_s = 3600.0;
    RunSupervisor supervisor(budget);
    supervisor.arm();
    EXPECT_EQ(serial_hash(mult.netlist, ddm, stim, &supervisor), hashes[4])
        << "an armed supervisor changed a completed run";
  }

  // A 1500-gate random DAG under 16 words.
  {
    RandomCircuit dag = make_random_circuit(lib_, 24, 1500, 12345);
    hashes.push_back(serial_hash(
        dag.netlist, ddm,
        word_stimulus(dag.inputs, random_word_stream(24, 16, 0xD1B54A32D192ED03ULL))));
  }

  // The 10k-gate layered design under CDM: serial, then partitioned at 1
  // and 4 threads, all on the windowed path and all bit-identical.
  {
    LayeredCircuit circuit = make_layered_circuit(lib_, 100, 100, 7);
    const TimingGraph timing = TimingGraph::build(circuit.netlist, cdm.timing_policy());
    const Stimulus stim = staggered_random_stimulus(circuit.inputs, 4, 911);
    Simulator serial(circuit.netlist, cdm, timing);
    hashes.push_back(run_and_hash(serial, stim));
    for (const int threads : {1, 4}) {
      PartitionedConfig config;
      config.threads = threads;
      config.partitions = 4;
      PartitionedSimulator sim(circuit.netlist, cdm, timing, config);
      hashes.push_back(run_and_hash(sim, stim));
      EXPECT_FALSE(sim.window_stats().fell_back_serial) << threads << " threads";
    }
    EXPECT_EQ(hashes[8], hashes[7]) << "partitioned (1 thread) != serial";
    EXPECT_EQ(hashes[9], hashes[7]) << "partitioned (4 threads) != serial";
  }

  hashes.push_back(storm_guard_hash(lib_));

  const auto [replayed, full] = replay_sample_hashes(lib_);
  hashes.push_back(replayed);
  hashes.push_back(full);
  EXPECT_EQ(replayed, full) << "trace replay diverged from full simulation";

  hashes.push_back(daemon_cold_hash(lib_));

  std::string computed;
  for (const std::uint64_t hash : hashes) computed += hash_line(hash) + "\n";
  std::ifstream in(std::filesystem::path(HALOTIS_SOURCE_DIR) / "tests" / "data" /
                   "history_hashes.txt");
  ASSERT_TRUE(in.good()) << "tests/data/history_hashes.txt not found";
  std::string golden;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] != '#') golden += line + "\n";
  }
  if (computed != golden) {
    ADD_FAILURE() << "history hashes differ from tests/data/history_hashes.txt; computed:\n"
                  << computed;
  }
}

}  // namespace
}  // namespace halotis
