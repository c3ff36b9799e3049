// Tests for the supervision + fault-injection layer (PR 7 acceptance):
//
//   * the fail-point registry fires on exact 1-based hit ordinals, with
//     one-shot / repeat semantics and spec-string arming;
//   * run budgets stop the kernel at the bit-identical event ordinal on
//     every rerun, and a completed supervised run is bit-identical to an
//     unsupervised one;
//   * write_file_atomic never leaves a partial artifact, whichever io.*
//     site the failure is injected at;
//   * WorkerPool rethrows a single failure type-preserved and aggregates
//     multiple failures into WorkerPoolError;
//   * the campaign retries a transient worker failure once and turns a
//     persistent one into per-fault kVerdictError verdicts;
//   * an injected partition-window violation takes the serial-fallback
//     path and reproduces the serial result exactly;
//   * the CLI maps the RunError taxonomy onto the documented exit codes.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/base/check.hpp"
#include "src/base/failpoint.hpp"
#include "src/base/fileio.hpp"
#include "src/base/supervision.hpp"
#include "src/base/worker_pool.hpp"
#include "src/circuits/generators.hpp"
#include "src/circuits/stimuli.hpp"
#include "src/core/partition.hpp"
#include "src/core/simulator.hpp"
#include "src/fault/campaign.hpp"
#include "src/tools/cli.hpp"

namespace halotis {
namespace {

/// Every test arms through this fixture so a failing assertion cannot
/// leak an armed site into the next test (the registry is process-global).
class FailPointTest : public ::testing::Test {
 protected:
  void TearDown() override { FailPoints::instance().disarm_all(); }
};

using SupervisionTest = FailPointTest;
using CampaignFailureTest = FailPointTest;
using PartitionFailureTest = FailPointTest;

// ---- fail-point registry ----------------------------------------------------

TEST_F(FailPointTest, DisarmedRegistryIsInert) {
  EXPECT_FALSE(FailPoints::instance().any_armed());
  EXPECT_FALSE(failpoint("never.armed"));
  EXPECT_EQ(FailPoints::instance().hits("never.armed"), 0u);
  EXPECT_NO_THROW(failpoint_throw("never.armed"));
}

TEST_F(FailPointTest, FiresOnExactHitOrdinalOnce) {
  FailPoints::instance().arm("x", 3);
  EXPECT_TRUE(FailPoints::instance().any_armed());
  EXPECT_FALSE(failpoint("x"));
  EXPECT_FALSE(failpoint("x"));
  EXPECT_TRUE(failpoint("x"));   // the 3rd hit
  EXPECT_FALSE(failpoint("x"));  // one-shot: never again
  EXPECT_EQ(FailPoints::instance().hits("x"), 4u);
  EXPECT_FALSE(failpoint("y"));  // other sites unaffected
}

TEST_F(FailPointTest, RepeatKeepsFiringFromOrdinal) {
  FailPoints::instance().arm("x", 2, /*repeat=*/true);
  EXPECT_FALSE(failpoint("x"));
  EXPECT_TRUE(failpoint("x"));
  EXPECT_TRUE(failpoint("x"));
  EXPECT_TRUE(failpoint("x"));
}

TEST_F(FailPointTest, RearmingRestartsTheCounter) {
  FailPoints::instance().arm("x", 2);
  EXPECT_FALSE(failpoint("x"));
  FailPoints::instance().arm("x", 1);
  EXPECT_TRUE(failpoint("x"));  // counter restarted: first hit after re-arm
}

TEST_F(FailPointTest, DisarmAllForgetsEverything) {
  FailPoints::instance().arm("x", 1);
  FailPoints::instance().disarm_all();
  EXPECT_FALSE(FailPoints::instance().any_armed());
  EXPECT_FALSE(failpoint("x"));
  EXPECT_EQ(FailPoints::instance().hits("x"), 0u);
}

TEST_F(FailPointTest, ThrowingFlavourThrowsFailPointError) {
  FailPoints::instance().arm("x", 1);
  try {
    failpoint_throw("x");
    FAIL() << "expected FailPointError";
  } catch (const FailPointError& e) {
    EXPECT_NE(std::string(e.what()).find("'x'"), std::string::npos);
  }
}

TEST_F(FailPointTest, SpecArmsOrdinalAndRepeatEntries) {
  FailPoints::instance().arm_spec(" a@2 ; b* , c ");
  EXPECT_FALSE(failpoint("a"));
  EXPECT_TRUE(failpoint("a"));
  EXPECT_TRUE(failpoint("b"));
  EXPECT_TRUE(failpoint("b"));  // repeat
  EXPECT_TRUE(failpoint("c"));  // default: first hit
}

TEST_F(FailPointTest, MalformedSpecThrowsContractViolation) {
  EXPECT_THROW(FailPoints::instance().arm_spec("x@"), ContractViolation);
  EXPECT_THROW(FailPoints::instance().arm_spec("x@z"), ContractViolation);
  EXPECT_THROW(FailPoints::instance().arm_spec("x@0"), ContractViolation);
  EXPECT_THROW(FailPoints::instance().arm_spec("@2"), ContractViolation);
}

// ---- run supervision --------------------------------------------------------

TEST_F(SupervisionTest, ExitCodeTaxonomyIsDocumentedMapping) {
  EXPECT_EQ(RunError::exit_code(RunErrorKind::kContractViolation), 1);
  EXPECT_EQ(RunError::exit_code(RunErrorKind::kBudgetExceeded), 3);
  EXPECT_EQ(RunError::exit_code(RunErrorKind::kDeadlineExceeded), 4);
  EXPECT_EQ(RunError::exit_code(RunErrorKind::kCancelled), 5);
  EXPECT_EQ(RunError::exit_code(RunErrorKind::kIoError), 6);
  const RunError e(RunErrorKind::kBudgetExceeded, "x");
  EXPECT_EQ(e.exit_code(), 3);
}

TEST_F(SupervisionTest, EventBudgetStopsAtBitIdenticalOrdinal) {
  const Library lib = Library::default_u6();
  const DdmDelayModel ddm;
  const RingOscillatorCircuit ring = make_ring_oscillator(lib);

  RunBudget budget;
  budget.max_events = 2000;
  const auto run_once = [&](std::vector<Transition>* history) {
    RunSupervisor supervisor(budget);
    supervisor.arm();
    Simulator sim(ring.netlist, ddm);
    sim.supervise(&supervisor);
    sim.apply_stimulus(ring_kick_stimulus(ring));
    try {
      (void)sim.run();
      ADD_FAILURE() << "ring oscillator finished under an event budget";
    } catch (const RunError& e) {
      EXPECT_EQ(e.kind(), RunErrorKind::kBudgetExceeded);
      EXPECT_NE(std::string(e.what()).find("event budget"), std::string::npos);
    }
    *history = sim.history(ring.out);
    return sim.stats().events_processed;
  };

  std::vector<Transition> h1;
  std::vector<Transition> h2;
  const std::uint64_t e1 = run_once(&h1);
  const std::uint64_t e2 = run_once(&h2);
  // The budget trips on the exact first over-budget ordinal, every rerun.
  EXPECT_EQ(e1, budget.max_events + 1);
  EXPECT_EQ(e2, e1);
  ASSERT_EQ(h1.size(), h2.size());
  for (std::size_t i = 0; i < h1.size(); ++i) {
    EXPECT_EQ(h1[i].t_start, h2[i].t_start) << "transition " << i;
    EXPECT_EQ(h1[i].edge, h2[i].edge) << "transition " << i;
  }
}

TEST_F(SupervisionTest, CompletedRunIsUnaffectedByArmedSupervisor) {
  const Library lib = Library::default_u6();
  const DdmDelayModel ddm;
  MultiplierCircuit mult = make_multiplier(lib, 4);
  std::vector<SignalId> ab;
  for (SignalId s : mult.a) ab.push_back(s);
  for (SignalId s : mult.b) ab.push_back(s);
  Stimulus stim = staggered_random_stimulus(ab, 16, 7);
  stim.set_initial(mult.tie0, false);

  Simulator plain(mult.netlist, ddm);
  plain.apply_stimulus(stim);
  (void)plain.run();

  RunBudget budget;  // every budget armed, none close
  budget.max_events = plain.stats().events_processed * 10 + 1000;
  budget.max_live_transitions = 1u << 20;
  budget.max_arena_bytes = 1u << 30;
  budget.deadline_s = 3600.0;
  budget.poll_events = 16;  // poll often: checks must stay side-effect free
  RunSupervisor supervisor(budget);
  supervisor.arm();
  Simulator supervised(mult.netlist, ddm);
  supervised.supervise(&supervisor);
  supervised.apply_stimulus(stim);
  (void)supervised.run();

  EXPECT_EQ(supervised.stats().events_processed, plain.stats().events_processed);
  for (const SignalId po : mult.netlist.primary_outputs()) {
    const auto ha = plain.history(po);
    const auto hb = supervised.history(po);
    ASSERT_EQ(ha.size(), hb.size());
    for (std::size_t i = 0; i < ha.size(); ++i) {
      EXPECT_EQ(ha[i].t_start, hb[i].t_start);
      EXPECT_EQ(ha[i].tau, hb[i].tau);
      EXPECT_EQ(ha[i].edge, hb[i].edge);
    }
  }
}

TEST_F(SupervisionTest, MemoryBudgetsTripAtPolls) {
  const Library lib = Library::default_u6();
  const DdmDelayModel ddm;
  // A circuit with real fanout: a ring carries exactly one live transition
  // around, so only parallel activity can exceed a live-transition budget.
  MultiplierCircuit mult = make_multiplier(lib, 4);
  std::vector<SignalId> ab;
  for (SignalId s : mult.a) ab.push_back(s);
  for (SignalId s : mult.b) ab.push_back(s);
  Stimulus stim = staggered_random_stimulus(ab, 16, 7);
  stim.set_initial(mult.tie0, false);

  const auto expect_trip = [&](const RunBudget& budget, const char* needle) {
    RunSupervisor supervisor(budget);
    supervisor.arm();
    SimConfig config;
    config.max_events = 200000;  // a missed trip fails fast, not in minutes
    Simulator sim(mult.netlist, ddm, config);
    sim.supervise(&supervisor);
    sim.apply_stimulus(stim);
    try {
      (void)sim.run();
      ADD_FAILURE() << "expected a budget trip (" << needle << ")";
    } catch (const RunError& e) {
      EXPECT_EQ(e.kind(), RunErrorKind::kBudgetExceeded);
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };

  RunBudget live;
  live.max_live_transitions = 1;
  live.poll_events = 16;
  expect_trip(live, "live-transition");

  RunBudget arena;
  arena.max_arena_bytes = 1;
  arena.poll_events = 16;
  expect_trip(arena, "arena-byte");
}

TEST_F(SupervisionTest, DeadlineAndCancellationAbortTheRun) {
  const Library lib = Library::default_u6();
  const DdmDelayModel ddm;
  const RingOscillatorCircuit ring = make_ring_oscillator(lib);

  const auto run_expecting = [&](const RunSupervisor& supervisor,
                                 RunErrorKind expected) {
    Simulator sim(ring.netlist, ddm);
    sim.supervise(&supervisor);
    sim.apply_stimulus(ring_kick_stimulus(ring));
    try {
      (void)sim.run();
      ADD_FAILURE() << "expected " << RunError::kind_name(expected);
    } catch (const RunError& e) {
      EXPECT_EQ(e.kind(), expected);
    }
  };

  RunBudget deadline;
  deadline.deadline_s = 1e-6;  // expires before the first poll completes
  deadline.poll_events = 256;
  RunSupervisor with_deadline(deadline);
  with_deadline.arm();
  run_expecting(with_deadline, RunErrorKind::kDeadlineExceeded);

  RunBudget cancellable;
  cancellable.poll_events = 256;
  CancelToken token;
  RunSupervisor with_token(cancellable, token);
  with_token.arm();
  token.cancel();  // copies share the flag
  EXPECT_TRUE(with_token.cancelled());
  run_expecting(with_token, RunErrorKind::kCancelled);
}

TEST_F(SupervisionTest, InjectedArenaAllocationFailureThrowsBadAlloc) {
  const Library lib = Library::default_u6();
  const DdmDelayModel ddm;
  const RingOscillatorCircuit ring = make_ring_oscillator(lib);
  FailPoints::instance().arm("alloc.simulator.arena", 1);
  Simulator sim(ring.netlist, ddm);
  EXPECT_THROW(sim.apply_stimulus(ring_kick_stimulus(ring)), std::bad_alloc);
}

// ---- crash-safe artifact emission -------------------------------------------

class FileIoTest : public FailPointTest {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("halotis_fileio_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    FailPointTest::TearDown();
    std::filesystem::remove_all(dir_);
  }

  static std::string slurp(const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }

  std::filesystem::path dir_;
};

TEST_F(FileIoTest, WritesBytesExactlyAndReplacesAtomically) {
  const auto path = dir_ / "artifact.txt";
  const std::string bytes = "line 1\nline 2\0binary\n";
  write_file_atomic(path, bytes);
  EXPECT_EQ(slurp(path), bytes);
  EXPECT_FALSE(std::filesystem::exists(dir_ / "artifact.txt.tmp"));
  write_file_atomic(path, "replaced");
  EXPECT_EQ(slurp(path), "replaced");
}

TEST_F(FileIoTest, EveryInjectedIoFailureLeavesNoPartialArtifact) {
  const auto path = dir_ / "artifact.txt";
  for (const char* site :
       {"io.open", "io.write", "io.write.short", "io.close", "io.rename"}) {
    SCOPED_TRACE(site);
    write_file_atomic(path, "previous content");  // the content at risk
    FailPoints::instance().arm(site, 1);
    try {
      write_file_atomic(path, "new content that must not tear");
      ADD_FAILURE() << "expected RunError(kIoError)";
    } catch (const RunError& e) {
      EXPECT_EQ(e.kind(), RunErrorKind::kIoError);
      EXPECT_EQ(e.exit_code(), 6);
    }
    // The destination is the old content in full, and no temp file leaks.
    EXPECT_EQ(slurp(path), "previous content");
    EXPECT_FALSE(std::filesystem::exists(dir_ / "artifact.txt.tmp"));
    FailPoints::instance().disarm_all();
  }
}

// ---- WorkerPool failure aggregation -----------------------------------------

TEST(WorkerPoolFailureTest, SingleFailureRethrownTypePreserved) {
  WorkerPool pool(2);
  try {
    pool.for_each_index(8, [](int, std::size_t index) {
      if (index == 5) throw RunError(RunErrorKind::kCancelled, "job 5 cancelled");
    });
    FAIL() << "expected RunError";
  } catch (const RunError& e) {
    EXPECT_EQ(e.kind(), RunErrorKind::kCancelled);  // type survived the pool
    EXPECT_STREQ(e.what(), "job 5 cancelled");
  }
}

TEST(WorkerPoolFailureTest, MultipleFailuresAggregateWithCountAndFirstMessage) {
  WorkerPool pool(1);  // inline: deterministic failure order
  try {
    pool.for_each_index(6, [](int, std::size_t index) {
      if (index % 2 == 0) {
        throw std::runtime_error("job " + std::to_string(index) + " failed");
      }
    });
    FAIL() << "expected WorkerPoolError";
  } catch (const WorkerPoolError& e) {
    EXPECT_EQ(e.failures(), 3u);
    EXPECT_EQ(e.first_message(), "job 0 failed");
    EXPECT_NE(std::string(e.what()).find("3 worker jobs failed"), std::string::npos);
  }
}

TEST(WorkerPoolFailureTest, AllIndicesStillAttemptedWhenSomeFail) {
  WorkerPool pool(2);
  std::vector<std::atomic<int>> hits(64);
  try {
    pool.for_each_index(64, [&](int, std::size_t index) {
      hits[index].fetch_add(1, std::memory_order_relaxed);
      if (index == 0) throw std::runtime_error("first job failed");
    });
    FAIL() << "expected a rethrow";
  } catch (const std::runtime_error&) {
  }
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

// ---- campaign failure semantics ---------------------------------------------

TEST_F(CampaignFailureTest, TransientWorkerFailureIsRetriedInvisibly) {
  const Library lib = Library::default_u6();
  const DdmDelayModel ddm;
  C17Circuit c17 = make_c17(lib);
  const Stimulus stim = staggered_random_stimulus(c17.inputs, 12, 3);

  const TimingGraph timing = TimingGraph::build(c17.netlist, ddm.timing_policy());
  CampaignEngine engine(c17.netlist, ddm, timing, 1);
  const CampaignResult clean = engine.run(stim);
  ASSERT_GT(clean.total, 0u);
  EXPECT_EQ(clean.errors, 0u);
  EXPECT_EQ(clean.retried, 0u);

  // One injected failure mid-campaign: the task is retried from clean
  // state, so every verdict still matches the clean run.
  FailPoints::instance().arm("worker.task", 3);
  const CampaignResult injected = engine.run(stim);
  EXPECT_EQ(injected.retried, 1u);
  EXPECT_EQ(injected.errors, 0u);
  EXPECT_EQ(injected.detected, clean.detected);
  EXPECT_EQ(injected.verdicts, clean.verdicts);
  EXPECT_EQ(injected.coverage(), clean.coverage());
}

TEST_F(CampaignFailureTest, PersistentWorkerFailureBecomesErrorVerdicts) {
  const Library lib = Library::default_u6();
  const DdmDelayModel ddm;
  C17Circuit c17 = make_c17(lib);
  const Stimulus stim = staggered_random_stimulus(c17.inputs, 12, 3);

  const TimingGraph timing = TimingGraph::build(c17.netlist, ddm.timing_policy());
  CampaignEngine engine(c17.netlist, ddm, timing, 1);
  FailPoints::instance().arm("worker.task", 1, /*repeat=*/true);
  const CampaignResult result = engine.run(stim);
  ASSERT_GT(result.total, 0u);
  // Every faulty run failed (and was retried once): nothing is detected,
  // so injected failures can only lower coverage, never inflate it.
  EXPECT_EQ(result.errors, result.total);
  EXPECT_EQ(result.detected, 0u);
  EXPECT_EQ(result.retried, result.total);
  EXPECT_EQ(result.coverage(), 0.0);
  EXPECT_NE(result.first_error.find("worker.task"), std::string::npos);
  for (std::size_t i = 0; i < result.total; ++i) {
    EXPECT_EQ(result.verdicts[i], kVerdictError);
    EXPECT_FALSE(result.error_messages[i].empty());
  }
  EXPECT_TRUE(result.undetected.empty());
}

TEST_F(CampaignFailureTest, CancelledCampaignRethrowsTheOriginalRunError) {
  const Library lib = Library::default_u6();
  const DdmDelayModel ddm;
  C17Circuit c17 = make_c17(lib);
  const Stimulus stim = staggered_random_stimulus(c17.inputs, 12, 3);

  RunBudget budget;
  budget.poll_events = 4;
  CancelToken token;
  RunSupervisor supervisor(budget, token);
  supervisor.arm();
  token.cancel();
  const TimingGraph timing = TimingGraph::build(c17.netlist, ddm.timing_policy());
  CampaignEngine engine(c17.netlist, ddm, timing, 2);
  engine.supervise(&supervisor);
  try {
    (void)engine.run(stim);
    FAIL() << "expected RunError(kCancelled)";
  } catch (const RunError& e) {
    // Never a WorkerPoolError wrapper: the taxonomy survives the pool.
    EXPECT_EQ(e.kind(), RunErrorKind::kCancelled);
  }
}

// ---- partition failure path -------------------------------------------------

TEST_F(PartitionFailureTest, InjectedWindowViolationFallsBackToSerialResult) {
  const Library lib = Library::default_u6();
  const DdmDelayModel ddm;
  LayeredCircuit lc = make_layered_circuit(lib, 16, 8, 11);
  const Stimulus stim = staggered_random_stimulus(lc.inputs, 12, 5);
  const TimingGraph tg = TimingGraph::build(lc.netlist, ddm.timing_policy());

  Simulator serial(lc.netlist, ddm);
  serial.apply_stimulus(stim);
  (void)serial.run();

  FailPoints::instance().arm("partition.window", 2);
  PartitionedConfig config;
  config.partitions = 4;
  config.threads = 2;
  PartitionedSimulator part(lc.netlist, ddm, tg, config);
  part.apply_stimulus(stim);
  (void)part.run();

  EXPECT_TRUE(part.window_stats().fell_back_serial);
  EXPECT_GE(part.window_stats().violations, 1u);
  // The fallback reproduces the serial kernel bit for bit.
  EXPECT_EQ(part.stats().events_processed, serial.stats().events_processed);
  for (const SignalId po : lc.outputs) {
    const auto ha = serial.history(po);
    const auto hb = part.history(po);
    ASSERT_EQ(ha.size(), hb.size());
    for (std::size_t i = 0; i < ha.size(); ++i) {
      EXPECT_EQ(ha[i].t_start, hb[i].t_start);
      EXPECT_EQ(ha[i].tau, hb[i].tau);
      EXPECT_EQ(ha[i].edge, hb[i].edge);
    }
  }
}

TEST_F(PartitionFailureTest, PartitionBudgetTripsAtAWindowBarrier) {
  const Library lib = Library::default_u6();
  const DdmDelayModel ddm;
  LayeredCircuit lc = make_layered_circuit(lib, 16, 8, 11);
  const Stimulus stim = staggered_random_stimulus(lc.inputs, 12, 5);
  const TimingGraph tg = TimingGraph::build(lc.netlist, ddm.timing_policy());

  RunBudget budget;
  budget.max_events = 8;  // far below the workload's event count
  RunSupervisor supervisor(budget);
  supervisor.arm();
  PartitionedConfig config;
  config.partitions = 4;
  config.threads = 2;
  PartitionedSimulator part(lc.netlist, ddm, tg, config);
  part.supervise(&supervisor);
  part.apply_stimulus(stim);
  try {
    (void)part.run();
    FAIL() << "expected a budget trip at a window barrier";
  } catch (const RunError& e) {
    EXPECT_EQ(e.kind(), RunErrorKind::kBudgetExceeded);
    EXPECT_NE(std::string(e.what()).find("partition barrier"), std::string::npos)
        << e.what();
  }
}

// ---- CLI exit codes ---------------------------------------------------------

class CliSupervisionTest : public FailPointTest {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("halotis_sup_cli_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    FailPointTest::TearDown();
    std::filesystem::remove_all(dir_);
  }

  std::string write(const std::string& name, const std::string& content) {
    const std::string path = (dir_ / name).string();
    std::ofstream out(path);
    out << content;
    return path;
  }

  int run(const std::vector<std::string>& args) {
    out_.str("");
    err_.str("");
    return run_cli(args, out_, err_);
  }

  std::filesystem::path dir_;
  std::ostringstream out_;
  std::ostringstream err_;

  static constexpr const char* kBench = R"(INPUT(a)
INPUT(b)
OUTPUT(y)
n1 = NAND(a, b)
y = NOT(n1)
)";
  static constexpr const char* kStim = R"(slew 0.4
init a 0
init b 1
edge a 5.0 1
edge a 10.0 0
)";
};

TEST_F(CliSupervisionTest, InjectedWriteFailureExitsSixWithNoArtifact) {
  const std::string netlist = write("and2.bench", kBench);
  const std::string stim = write("and2.stim", kStim);
  const std::string vcd = (dir_ / "waves.vcd").string();
  EXPECT_EQ(run({"sim", "--netlist", netlist, "--stim", stim, "--vcd", vcd,
                 "--failpoints", "io.write"}),
            6);
  EXPECT_NE(err_.str().find("I/O error"), std::string::npos) << err_.str();
  EXPECT_FALSE(std::filesystem::exists(vcd));
  EXPECT_FALSE(std::filesystem::exists(vcd + ".tmp"));
  // The per-invocation disarm guard: the same command succeeds afterwards.
  EXPECT_EQ(run({"sim", "--netlist", netlist, "--stim", stim, "--vcd", vcd}), 0);
  EXPECT_TRUE(std::filesystem::exists(vcd));
}

TEST_F(CliSupervisionTest, EnvVarArmsFailPoints) {
  const std::string netlist = write("and2.bench", kBench);
  const std::string stim = write("and2.stim", kStim);
  const std::string vcd = (dir_ / "waves.vcd").string();
  ASSERT_EQ(::setenv("HALOTIS_FAILPOINTS", "io.write", 1), 0);
  EXPECT_EQ(run({"sim", "--netlist", netlist, "--stim", stim, "--vcd", vcd}), 6);
  ASSERT_EQ(::unsetenv("HALOTIS_FAILPOINTS"), 0);
  EXPECT_FALSE(std::filesystem::exists(vcd));
  EXPECT_EQ(run({"sim", "--netlist", netlist, "--stim", stim, "--vcd", vcd}), 0);
}

TEST_F(CliSupervisionTest, MalformedFailpointsSpecExitsOne) {
  const std::string netlist = write("and2.bench", kBench);
  const std::string stim = write("and2.stim", kStim);
  EXPECT_EQ(run({"sim", "--netlist", netlist, "--stim", stim,
                 "--failpoints", "x@"}),
            1);
}

TEST_F(CliSupervisionTest, EventBudgetExitsThree) {
  const std::string netlist = write("and2.bench", kBench);
  const std::string stim = write("and2.stim", kStim);
  EXPECT_EQ(run({"sim", "--netlist", netlist, "--stim", stim,
                 "--budget-events", "1"}),
            3);
  EXPECT_NE(err_.str().find("budget exceeded"), std::string::npos) << err_.str();
}

// Cancels the process-wide CLI token, which has no reset: this test must
// stay LAST in this file (gtest runs tests in declaration order).
TEST_F(CliSupervisionTest, CancelledTokenExitsFive) {
  const std::string netlist = write("and2.bench", kBench);
  const std::string stim = write("and2.stim", kStim);
  cli_cancel_token().cancel();
  EXPECT_EQ(run({"sim", "--netlist", netlist, "--stim", stim}), 5);
  EXPECT_NE(err_.str().find("cancelled"), std::string::npos) << err_.str();
}

}  // namespace
}  // namespace halotis
