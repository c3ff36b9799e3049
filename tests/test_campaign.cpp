// Tests for the parallel fault-campaign engine and the Simulator reuse
// contract it is built on:
//
//   * WorkerPool shards an index space exactly once per index, any thread
//     count, and propagates worker exceptions;
//   * Simulator::reset() + re-apply_stimulus is bit-identical to a freshly
//     constructed Simulator (stats and histories), with and without an
//     injected fault in between;
//   * inject_stuck_at() reproduces the verdicts of the netlist-rewiring
//     oracle below, fault for fault, on every input test_fault grades;
//   * campaign results (detected set, coverage, verdict vector, event
//     totals) are identical for 1 vs N threads and with early exit on/off.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "src/base/check.hpp"
#include "src/base/rng.hpp"
#include "src/base/worker_pool.hpp"
#include "src/circuits/generators.hpp"
#include "src/core/simulator.hpp"
#include "src/fault/campaign.hpp"
#include "src/fault/fault.hpp"

namespace halotis {
namespace {

// ---- The oracle: the textbook serial fault simulator -----------------------
//
// Per fault it builds a rewired copy of the netlist and a fresh Simulator and
// replays the whole stimulus.  It shares nothing with CampaignEngine but the
// fault list and the sample instants, so it grades the engine independently.

/// The faulty machine: a copy of `netlist` where every receiver of the
/// faulted line is rewired to a constant net, and the faulted line itself
/// (if a primary output) is replaced by the constant.  The constant net is
/// an extra primary input named "__fault" that the oracle ties to the stuck
/// value.
struct FaultyMachine {
  Netlist netlist;
  SignalId fault_net;

  explicit FaultyMachine(const Library& lib) : netlist(lib) {}
};

FaultyMachine apply_fault(const Netlist& netlist, const Fault& fault) {
  require(fault.signal.valid() && fault.signal.value() < netlist.num_signals(),
          "apply_fault(): invalid fault site");
  FaultyMachine machine(netlist.library());
  Netlist& out = machine.netlist;

  // Recreate signals in id order so SignalIds line up 1:1 with the good
  // machine; append the constant fault net last.
  for (std::size_t s = 0; s < netlist.num_signals(); ++s) {
    const SignalId sid{static_cast<SignalId::underlying_type>(s)};
    const Signal& sig = netlist.signal(sid);
    const SignalId copy =
        sig.is_primary_input ? out.add_primary_input(sig.name) : out.add_signal(sig.name);
    ensure(copy.value() == sid.value(), "apply_fault(): signal id mismatch");
    if (sig.wire_cap > 0.0) out.set_wire_cap(copy, sig.wire_cap);
  }
  machine.fault_net = out.add_primary_input("__fault");

  const auto redirect = [&](SignalId in) {
    return in == fault.signal ? machine.fault_net : in;
  };
  for (std::size_t g = 0; g < netlist.num_gates(); ++g) {
    const GateId gid{static_cast<GateId::underlying_type>(g)};
    const Gate& gate = netlist.gate(gid);
    std::vector<SignalId> ins;
    ins.reserve(gate.inputs.size());
    for (const SignalId in : gate.inputs) ins.push_back(redirect(in));
    (void)out.add_gate(gate.name, gate.cell, ins, gate.output);
  }
  for (const SignalId po : netlist.primary_outputs()) {
    // A faulted PO is observed as the constant itself.
    out.mark_primary_output(po == fault.signal ? machine.fault_net : po);
  }
  return machine;
}

struct FaultSimResult {
  std::size_t total = 0;
  std::size_t detected = 0;
  std::vector<Fault> undetected;
};

/// Serial fault simulation of every fault in `faults` (or all, if empty)
/// under `model`.  The same `stimulus` drives good and faulty machines;
/// detection compares primary-output values at the default sample instants.
FaultSimResult run_fault_simulation(const Netlist& netlist, const Stimulus& stimulus,
                                    const DelayModel& model, std::vector<Fault> faults = {}) {
  if (faults.empty()) faults = enumerate_faults(netlist);
  const std::vector<TimeNs> times = fault_sample_times(stimulus, FaultSimOptions{});

  // Good machine reference samples.
  Simulator good(netlist, model);
  good.apply_stimulus(stimulus);
  (void)good.run();
  std::vector<std::vector<bool>> good_samples;
  for (const SignalId po : netlist.primary_outputs()) {
    std::vector<bool> row;
    for (const TimeNs t : times) row.push_back(good.value_at(po, t));
    good_samples.push_back(std::move(row));
  }

  FaultSimResult result;
  result.total = faults.size();
  for (const Fault& fault : faults) {
    FaultyMachine machine = apply_fault(netlist, fault);

    // Same stimulus, plus the fault constant.
    Stimulus faulty_stim = stimulus;
    faulty_stim.set_initial(machine.fault_net, fault.stuck_value);

    Simulator sim(machine.netlist, model);
    sim.apply_stimulus(faulty_stim);
    (void)sim.run();

    bool detected = false;
    const auto pos = machine.netlist.primary_outputs();
    for (std::size_t o = 0; o < pos.size() && !detected; ++o) {
      for (std::size_t k = 0; k < times.size(); ++k) {
        if (sim.value_at(pos[o], times[k]) != good_samples[o][k]) {
          detected = true;
          break;
        }
      }
    }
    if (detected) {
      ++result.detected;
    } else {
      result.undetected.push_back(fault);
    }
  }
  return result;
}

TEST(OracleTest, ApplyFaultRewiresReceivers) {
  const Library lib = Library::default_u6();
  C17Circuit c17 = make_c17(lib);
  const SignalId n11 = *c17.netlist.find_signal("N11");
  const FaultyMachine machine = apply_fault(c17.netlist, Fault{n11, true});
  machine.netlist.check();
  // Same gate count; the faulted line keeps its driver but loses receivers.
  EXPECT_EQ(machine.netlist.num_gates(), c17.netlist.num_gates());
  EXPECT_TRUE(machine.netlist.signal(machine.fault_net).is_primary_input);
  EXPECT_EQ(machine.netlist.signal(n11).fanout.size(), 0u);
  EXPECT_EQ(machine.netlist.signal(machine.fault_net).fanout.size(),
            c17.netlist.signal(n11).fanout.size());
}

TEST(OracleTest, FaultedPrimaryOutputObservedAsConstant) {
  const Library lib = Library::default_u6();
  ChainCircuit chain = make_chain(lib, 1);
  const FaultyMachine machine =
      apply_fault(chain.netlist, Fault{chain.nodes.back(), true});
  // The PO list of the faulty machine now exposes the constant net.
  bool found = false;
  for (const SignalId po : machine.netlist.primary_outputs()) {
    if (po == machine.fault_net) found = true;
  }
  EXPECT_TRUE(found);
}

// ---- WorkerPool ------------------------------------------------------------

TEST(WorkerPoolTest, EveryIndexRunsExactlyOnce) {
  for (const int threads : {1, 2, 4}) {
    WorkerPool pool(threads);
    EXPECT_EQ(pool.size(), threads);
    constexpr std::size_t kCount = 1000;
    std::vector<std::atomic<int>> hits(kCount);
    pool.for_each_index(kCount, [&](int worker, std::size_t index) {
      ASSERT_GE(worker, 0);
      ASSERT_LT(worker, threads);
      hits[index].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i;
    }
  }
}

TEST(WorkerPoolTest, PoolIsReusableAcrossSweeps) {
  WorkerPool pool(3);
  for (int sweep = 0; sweep < 5; ++sweep) {
    std::vector<std::atomic<int>> hits(64);
    pool.for_each_index(hits.size(), [&](int, std::size_t index) {
      hits[index].fetch_add(1, std::memory_order_relaxed);
    });
    const int total = std::accumulate(
        hits.begin(), hits.end(), 0,
        [](int acc, const std::atomic<int>& h) { return acc + h.load(); });
    ASSERT_EQ(total, 64) << "sweep " << sweep;
  }
}

TEST(WorkerPoolTest, WorkerExceptionPropagatesAndSweepDrains) {
  WorkerPool pool(2);
  std::atomic<int> visited{0};
  EXPECT_THROW(
      pool.for_each_index(100,
                          [&](int, std::size_t index) {
                            visited.fetch_add(1, std::memory_order_relaxed);
                            if (index == 7) throw std::runtime_error("boom");
                          }),
      std::runtime_error);
  EXPECT_EQ(visited.load(), 100);  // the sweep drains; the error is deferred
  // The pool survives a throwing sweep.
  std::atomic<int> again{0};
  pool.for_each_index(10, [&](int, std::size_t) { ++again; });
  EXPECT_EQ(again.load(), 10);
}

TEST(WorkerPoolTest, ZeroRequestsHardwareConcurrency) {
  WorkerPool pool(0);
  EXPECT_GE(pool.size(), 1);
  EXPECT_EQ(pool.size(), WorkerPool::resolve_threads(0));
}

// ---- Simulator reuse contract ----------------------------------------------

class CampaignTest : public ::testing::Test {
 protected:
  Library lib_ = Library::default_u6();
  DdmDelayModel ddm_;

  /// A campaign over a fresh elaboration of `netlist`.
  CampaignResult campaign(const Netlist& netlist, const Stimulus& stim, int threads,
                          std::vector<Fault> faults = {}, bool early_exit = true) const {
    const TimingGraph timing = TimingGraph::build(netlist, ddm_.timing_policy());
    CampaignEngine engine(netlist, ddm_, timing, threads);
    return engine.run(stim, std::move(faults), {}, early_exit);
  }

  /// The campaign grades `faults` (all, if empty) exactly as the oracle
  /// does: same total, same detected count, the same undetected faults in
  /// the same order, and no error verdicts -- hence the same verdict for
  /// every fault.
  void expect_matches_oracle(const Netlist& netlist, const Stimulus& stim,
                             const std::vector<Fault>& faults = {}) const {
    const FaultSimResult oracle = run_fault_simulation(netlist, stim, ddm_, faults);
    const CampaignResult result = campaign(netlist, stim, 2, faults);
    EXPECT_EQ(result.total, oracle.total);
    EXPECT_EQ(result.detected, oracle.detected);
    EXPECT_EQ(result.errors, 0u);
    EXPECT_EQ(result.undetected, oracle.undetected);
  }

  static Stimulus multiplier_words(const MultiplierCircuit& mult,
                                   const std::vector<std::uint64_t>& words) {
    Stimulus stim(0.5);
    std::vector<SignalId> ab;
    for (SignalId s : mult.a) ab.push_back(s);
    for (SignalId s : mult.b) ab.push_back(s);
    stim.apply_sequence(ab, words, 5.0, 5.0);
    stim.set_initial(mult.tie0, false);
    return stim;
  }

  static void expect_identical_runs(const Simulator& a, const Simulator& b) {
    const SimStats& sa = a.stats();
    const SimStats& sb = b.stats();
    EXPECT_EQ(sa.events_created, sb.events_created);
    EXPECT_EQ(sa.events_processed, sb.events_processed);
    EXPECT_EQ(sa.events_cancelled, sb.events_cancelled);
    EXPECT_EQ(sa.events_suppressed, sb.events_suppressed);
    EXPECT_EQ(sa.events_resurrected, sb.events_resurrected);
    EXPECT_EQ(sa.transitions_created, sb.transitions_created);
    EXPECT_EQ(sa.transitions_annihilated, sb.transitions_annihilated);
    EXPECT_EQ(sa.gate_evaluations, sb.gate_evaluations);
    ASSERT_EQ(a.netlist().num_signals(), b.netlist().num_signals());
    for (std::size_t s = 0; s < a.netlist().num_signals(); ++s) {
      const SignalId id{static_cast<SignalId::underlying_type>(s)};
      EXPECT_EQ(a.initial_value(id), b.initial_value(id)) << "signal " << s;
      const auto ha = a.history(id);
      const auto hb = b.history(id);
      ASSERT_EQ(ha.size(), hb.size()) << "signal " << s;
      for (std::size_t i = 0; i < ha.size(); ++i) {
        EXPECT_EQ(ha[i].edge, hb[i].edge) << "signal " << s << " transition " << i;
        // Bit-identical, not approximately equal: reuse promises the exact
        // same float arithmetic as a fresh construction.
        EXPECT_EQ(ha[i].t_start, hb[i].t_start) << "signal " << s << " transition " << i;
        EXPECT_EQ(ha[i].tau, hb[i].tau) << "signal " << s << " transition " << i;
      }
    }
  }
};

TEST_F(CampaignTest, ResetReproducesFreshSimulatorBitExactly) {
  MultiplierCircuit mult = make_multiplier(lib_, 4);
  const Stimulus warmup = multiplier_words(mult, random_word_stream(8, 12, 11));
  const Stimulus target = multiplier_words(mult, random_word_stream(8, 12, 77));

  // Reused: run a different workload first, then reset and run the target.
  Simulator reused(mult.netlist, ddm_);
  reused.apply_stimulus(warmup);
  (void)reused.run();
  reused.reset();
  reused.apply_stimulus(target);
  (void)reused.run();

  Simulator fresh(mult.netlist, ddm_);
  fresh.apply_stimulus(target);
  (void)fresh.run();

  expect_identical_runs(reused, fresh);
}

TEST_F(CampaignTest, ResetClearsInjectedFault) {
  C17Circuit c17 = make_c17(lib_);
  std::vector<SignalId> inputs(c17.inputs.begin(), c17.inputs.end());
  Stimulus stim(0.4);
  const std::vector<std::uint64_t> words{0x00, 0x1F, 0x0A, 0x15};
  stim.apply_sequence(inputs, words, 5.0, 5.0);

  Simulator reused(c17.netlist, ddm_);
  reused.inject_stuck_at(*c17.netlist.find_signal("N11"), true);
  reused.apply_stimulus(stim);
  (void)reused.run();
  reused.reset();  // must drop the fault with the rest of the state
  reused.apply_stimulus(stim);
  (void)reused.run();

  Simulator fresh(c17.netlist, ddm_);
  fresh.apply_stimulus(stim);
  (void)fresh.run();

  expect_identical_runs(reused, fresh);
}

TEST_F(CampaignTest, InjectedFaultMatchesNetlistRewritingVerdicts) {
  // inject_stuck_at() must reproduce the oracle's netlist rewiring for
  // every single fault: same sampled primary outputs, hence the same
  // verdict, on a circuit with reconvergence and internal fanout.
  C17Circuit c17 = make_c17(lib_);
  std::vector<SignalId> inputs(c17.inputs.begin(), c17.inputs.end());
  Stimulus stim(0.4);
  const std::vector<std::uint64_t> words{0x00, 0x1F, 0x0A, 0x15, 0x07};
  stim.apply_sequence(inputs, words, 5.0, 5.0);
  expect_matches_oracle(c17.netlist, stim);
}

TEST_F(CampaignTest, CampaignMatchesOracleOnMultiplier) {
  MultiplierCircuit mult = make_multiplier(lib_, 3);
  expect_matches_oracle(mult.netlist, multiplier_words(mult, random_word_stream(6, 8, 42)));
}

TEST_F(CampaignTest, CampaignMatchesOracleOnEveryFaultTestInput) {
  // The inputs test_fault grades with the campaign, each graded here by the
  // oracle as well.
  {
    SCOPED_TRACE("inverter, both edges");
    ChainCircuit chain = make_chain(lib_, 1);
    Stimulus stim(0.4);
    stim.add_edge(chain.nodes[0], 5.0, true);
    stim.add_edge(chain.nodes[0], 10.0, false);
    expect_matches_oracle(chain.netlist, stim);
  }
  C17Circuit c17 = make_c17(lib_);
  std::vector<SignalId> inputs(c17.inputs.begin(), c17.inputs.end());
  {
    SCOPED_TRACE("c17, single toggle");
    Stimulus stim(0.4);
    stim.add_edge(c17.inputs[0], 5.0, true);
    expect_matches_oracle(c17.netlist, stim);
  }
  {
    SCOPED_TRACE("c17, weak");
    Stimulus weak(0.4);
    weak.apply_word(inputs, 0x1F, 5.0);
    expect_matches_oracle(c17.netlist, weak);
  }
  {
    SCOPED_TRACE("c17, strong");
    Stimulus strong(0.4);
    const std::vector<std::uint64_t> words{0x00, 0x1F, 0x0A, 0x15, 0x07, 0x18};
    strong.apply_sequence(inputs, words, 5.0, 5.0);
    expect_matches_oracle(c17.netlist, strong);
  }
  const std::vector<std::uint64_t> words{0x00, 0x1F, 0x0A, 0x15};
  for (const TimeNs pitch : {3.0, 5.0}) {
    SCOPED_TRACE("c17, off-grid and on-grid pitch " + std::to_string(pitch));
    Stimulus stim(0.4);
    stim.apply_sequence(inputs, words, pitch, pitch);
    expect_matches_oracle(c17.netlist, stim);
  }
  {
    SCOPED_TRACE("c17, output-fault subset");
    Stimulus stim(0.4);
    stim.apply_sequence(inputs, words, 5.0, 5.0);
    expect_matches_oracle(c17.netlist, stim,
                          {Fault{c17.outputs[0], false}, Fault{c17.outputs[0], true}});
  }
  {
    SCOPED_TRACE("and2, detection at the last vector only");
    Netlist nl(lib_);
    const SignalId a = nl.add_primary_input("a");
    const SignalId b = nl.add_primary_input("b");
    const SignalId y = nl.add_signal("y");
    nl.mark_primary_output(y);
    const std::array<SignalId, 2> ins{a, b};
    (void)nl.add_gate("g", CellKind::kAnd2, ins, y);
    const std::vector<std::uint64_t> and_words{0b00, 0b01, 0b11};
    expect_matches_oracle(nl, make_vector_stimulus(nl, and_words), {Fault{a, false}});
    expect_matches_oracle(nl, make_vector_stimulus(nl, and_words));
  }
  {
    SCOPED_TRACE("c17, ATPG replay");
    AtpgOptions options;
    options.max_candidates = 120;
    options.seed = 3;
    const TimingGraph timing = TimingGraph::build(c17.netlist, ddm_.timing_policy());
    const AtpgResult atpg = generate_tests(c17.netlist, ddm_, timing, options);
    const Stimulus replay = make_vector_stimulus(c17.netlist, atpg.words);
    expect_matches_oracle(c17.netlist, replay);
    EXPECT_EQ(run_fault_simulation(c17.netlist, replay, ddm_).detected, atpg.detected);
  }
}

TEST_F(CampaignTest, ThreadCountInvariant) {
  MultiplierCircuit mult = make_multiplier(lib_, 3);
  const Stimulus stim = multiplier_words(mult, random_word_stream(6, 10, 5));

  const CampaignResult one = campaign(mult.netlist, stim, 1);
  EXPECT_EQ(one.threads_used, 1);

  for (const int threads : {2, 4, 7}) {
    const CampaignResult many = campaign(mult.netlist, stim, threads);
    EXPECT_EQ(many.threads_used, threads);
    EXPECT_EQ(many.total, one.total);
    EXPECT_EQ(many.detected, one.detected);
    ASSERT_EQ(many.verdicts, one.verdicts) << threads << " threads";
    ASSERT_EQ(many.undetected.size(), one.undetected.size());
    for (std::size_t i = 0; i < one.undetected.size(); ++i) {
      EXPECT_EQ(many.undetected[i], one.undetected[i]);
    }
    // Per-fault work is deterministic, so the event total is too.
    EXPECT_EQ(many.events_processed, one.events_processed);
  }
}

TEST_F(CampaignTest, EarlyExitDoesNotChangeVerdicts) {
  MultiplierCircuit mult = make_multiplier(lib_, 3);
  const Stimulus stim = multiplier_words(mult, random_word_stream(6, 10, 19));

  const CampaignResult a = campaign(mult.netlist, stim, 1, {}, /*early_exit=*/true);
  const CampaignResult b = campaign(mult.netlist, stim, 1, {}, /*early_exit=*/false);
  EXPECT_EQ(a.verdicts, b.verdicts);
  EXPECT_EQ(a.detected, b.detected);
  // Early exit must strictly reduce simulated work on this workload (most
  // faults are observable well before the stimulus ends).
  EXPECT_LT(a.events_processed, b.events_processed);
}

TEST_F(CampaignTest, FaultedPrimaryOutputObservedAsConstant) {
  ChainCircuit chain = make_chain(lib_, 1);
  Stimulus stim(0.4);
  stim.add_edge(chain.nodes[0], 5.0, true);
  stim.add_edge(chain.nodes[0], 10.0, false);

  const CampaignResult result = campaign(chain.netlist, stim, 0);
  // in/SA0, in/SA1, out/SA0, out/SA1 all observable (the oracle agrees:
  // CampaignMatchesOracleOnEveryFaultTestInput).
  EXPECT_EQ(result.total, 4u);
  EXPECT_EQ(result.detected, 4u);
  EXPECT_DOUBLE_EQ(result.coverage(), 1.0);
}

TEST_F(CampaignTest, SubsetAndVerdictIndexing) {
  C17Circuit c17 = make_c17(lib_);
  std::vector<SignalId> inputs(c17.inputs.begin(), c17.inputs.end());
  Stimulus stim(0.4);
  const std::vector<std::uint64_t> words{0x00, 0x1F, 0x0A, 0x15};
  stim.apply_sequence(inputs, words, 5.0, 5.0);

  const std::vector<Fault> subset{Fault{c17.outputs[0], false},
                                  Fault{c17.outputs[0], true},
                                  Fault{c17.inputs[0], false}};
  const CampaignResult result = campaign(c17.netlist, stim, 0, subset);
  EXPECT_EQ(result.total, 3u);
  ASSERT_EQ(result.verdicts.size(), 3u);
  // Output-line faults are always visible.
  EXPECT_EQ(result.verdicts[0], 1u);
  EXPECT_EQ(result.verdicts[1], 1u);
  EXPECT_EQ(result.detected + result.undetected.size(), result.total);
}

TEST_F(CampaignTest, EngineReuseAcrossStimuliMatchesOneShotRuns) {
  // ATPG reuses one engine (pool + per-worker simulators) for its whole
  // candidate stream; every run() must still equal a fresh one-shot
  // campaign on the same stimulus.
  MultiplierCircuit mult = make_multiplier(lib_, 3);
  const TimingGraph timing = TimingGraph::build(mult.netlist, ddm_.timing_policy());
  CampaignEngine engine(mult.netlist, ddm_, timing, 2);
  for (const std::uint64_t seed : {3u, 9u, 27u}) {
    const Stimulus stim = multiplier_words(mult, random_word_stream(6, 6, seed));
    const CampaignResult reused = engine.run(stim);
    const CampaignResult fresh = campaign(mult.netlist, stim, 2);
    EXPECT_EQ(reused.detected, fresh.detected) << "seed " << seed;
    EXPECT_EQ(reused.verdicts, fresh.verdicts) << "seed " << seed;
    EXPECT_EQ(reused.events_processed, fresh.events_processed) << "seed " << seed;
  }
}

TEST_F(CampaignTest, AtpgThreadCountInvariant) {
  C17Circuit c17 = make_c17(lib_);
  const TimingGraph timing = TimingGraph::build(c17.netlist, ddm_.timing_policy());
  AtpgOptions options;
  options.max_candidates = 60;
  options.seed = 11;
  options.threads = 1;
  const AtpgResult one = generate_tests(c17.netlist, ddm_, timing, options);
  options.threads = 4;
  const AtpgResult four = generate_tests(c17.netlist, ddm_, timing, options);
  EXPECT_EQ(one.words, four.words);
  EXPECT_EQ(one.detected, four.detected);
  EXPECT_EQ(one.undetected.size(), four.undetected.size());
}

}  // namespace
}  // namespace halotis
