// Parallel stuck-at fault-campaign engine: the one fault simulator.
//
// The textbook fault simulator rebuilds a full netlist copy (receivers of
// the faulted line rewired to a constant net) and a fresh Simulator per
// fault and replays the complete stimulus even when the fault is
// observable at the first sample.  The test suite keeps that simulator as
// this engine's oracle; the engine itself removes all three costs:
//
//   * each worker owns ONE reusable Simulator on the *good* netlist, all of
//     them reading the caller's one elaborated TimingGraph (the daemon's
//     cached graph on a warm hit); per fault it reset()s the dynamic state
//     and injects the stuck-at site (Simulator::inject_stuck_at), so no
//     netlist copy and no table rebuild ever happens;
//   * the fault list is sharded across a WorkerPool by an atomic ticket,
//     one fault per ticket;
//   * each faulty run executes in segments between output-sample instants
//     (Simulator::run_until) and stops at the first sampled primary-output
//     divergence -- the early-exit observation hook.
//
// Determinism: every fault's verdict depends only on its own single-fault
// run, and verdicts are aggregated in fault-index order after the sweep, so
// the detected set, the coverage and every derived number are bit-identical
// for any thread count (and identical to the rewiring oracle's verdicts).
//
// Early-exit exactness: a sample is evaluated only after the run has
// advanced to the *next* sample instant (one-segment lag) or finished, so
// every annihilation that could retroactively erase a pulse near the sample
// has already been applied -- the inertial/degradation windows (sub-ns) are
// orders of magnitude shorter than a vector period.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/base/worker_pool.hpp"
#include "src/core/delay_model.hpp"
#include "src/core/simulator.hpp"
#include "src/core/stimulus.hpp"
#include "src/fault/fault.hpp"
#include "src/netlist/netlist.hpp"
#include "src/timing/timing_graph.hpp"

namespace halotis {

/// Per-fault verdict bytes (CampaignResult::verdicts).
inline constexpr std::uint8_t kVerdictUndetected = 0;
inline constexpr std::uint8_t kVerdictDetected = 1;
/// The faulty run failed (injected fault-point, allocation failure, budget
/// trip) even after one retry; the fault is neither detected nor counted
/// as coverage-undetected -- see CampaignResult::errors.
inline constexpr std::uint8_t kVerdictError = 2;

struct CampaignResult {
  std::size_t total = 0;
  std::size_t detected = 0;
  std::vector<Fault> undetected;        ///< in fault-index order
  std::vector<std::uint8_t> verdicts;   ///< per input fault index; see kVerdict*
  /// Per input fault index: the failure message when verdicts[i] ==
  /// kVerdictError, empty otherwise.
  std::vector<std::string> error_messages;
  std::size_t errors = 0;   ///< faults whose run failed (verdict kVerdictError)
  std::size_t retried = 0;  ///< faulty runs retried after a transient failure
  std::string first_error;  ///< message of the lowest-index error fault
  int threads_used = 1;
  /// Events processed across all faulty runs plus the good-machine run.
  /// Deterministic (each per-fault count is), so it doubles as a work
  /// metric for the bench trajectory.
  std::uint64_t events_processed = 0;

  /// Detected over total.  Error faults stay in the denominator: a fault
  /// whose run failed was not shown detected, so coverage never improves
  /// because of failures.
  [[nodiscard]] double coverage() const {
    return total > 0 ? static_cast<double>(detected) / static_cast<double>(total) : 0.0;
  }
};

/// The reusable heavy state of a campaign: the worker pool (threads stay
/// alive across runs) and one Simulator per worker plus the good-machine
/// Simulator (static tables built once, dynamic state recycled per run).
/// ATPG constructs one engine and evaluates every candidate vector through
/// it.  Not thread-safe: one run() at a time.
class CampaignEngine {
 public:
  /// `timing` must be elaborated over this same `netlist` under the model's
  /// policy; `halotis fault` passes the shared elaboration's graph (the
  /// daemon's cached one on a warm hit).  `netlist`, `model` and `timing`
  /// must outlive the engine; 0 threads means one per hardware thread.
  CampaignEngine(const Netlist& netlist, const DelayModel& model, const TimingGraph& timing,
                 int threads = 0);
  /// A temporary graph would dangle: bind it to a variable first.
  CampaignEngine(const Netlist&, const DelayModel&, TimingGraph&&, int = 0) = delete;

  [[nodiscard]] int threads() const { return pool_.size(); }

  /// Attaches a run supervisor (nullptr detaches); `supervisor` must
  /// outlive the runs.  Every worker Simulator and the good machine get
  /// per-event supervision; the event / memory budgets therefore apply per
  /// faulty run (each worker sim reset()s between faults), which makes a
  /// budget trip a deterministic property of the single fault -- reported
  /// as a kVerdictError verdict, not a campaign abort.  Deadline expiry
  /// and cancellation abort the whole campaign with the original RunError
  /// rethrown from run() after the in-flight faults drain.
  void supervise(const RunSupervisor* supervisor);
  [[nodiscard]] const RunSupervisor* supervisor() const { return supervisor_; }

  /// Simulates every fault in `faults` (or all 2N enumerated faults when
  /// empty) against `stimulus`: a fault is detected iff some primary output
  /// differs from the good machine at some fault_sample_times() instant,
  /// with a faulted primary output observed as the stuck constant itself.
  /// `early_exit` stops each faulty run at its first divergence; verdicts
  /// are identical either way.
  [[nodiscard]] CampaignResult run(const Stimulus& stimulus,
                                   std::vector<Fault> faults = {},
                                   const FaultSimOptions& sampling = {},
                                   bool early_exit = true);

 private:
  const Netlist* netlist_;
  WorkerPool pool_;
  Simulator good_;
  std::vector<std::unique_ptr<Simulator>> sims_;  ///< one per worker
  const RunSupervisor* supervisor_ = nullptr;
};

}  // namespace halotis
