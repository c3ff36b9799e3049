// Partitioned parallel event kernel (PR 6).
//
// The netlist is split into K partitions over the flattened fanout table
// (topological seeding + KL-style boundary refinement, partition.cpp); each
// partition runs the *unmodified* serial kernel -- its own heads-only event
// heap, transition/track arenas and packed-input-word gate state -- over the
// gates it owns, and the partitions advance in lockstep conservative time
// windows.  The window length is the minimum boundary-arc delay read
// straight off the shared TimingGraph: an event processed inside a window
// can only schedule work in *another* partition at least one boundary delay
// later, so boundary transitions always land in a future window.  They are
// exchanged as RemoteMsg records over per-(src, dst) staging vectors --
// single-producer single-consumer by construction -- and applied at the
// barrier in deterministic (source partition, staging order) sequence, so
// the receiving partition assigns them arena ids (its (time, seq) tie-break)
// in an order that does not depend on thread count or OS scheduling.
//
// The determinism argument, spelled out:
//   1. The partition count K and the gate->partition map are pure functions
//      of the netlist and the requested K -- never of the thread count.
//   2. Within a window each partition executes sequentially; what it
//      executes is a pure function of its own state plus the messages
//      delivered at the preceding barrier.
//   3. Barriers deliver messages in fixed (src, staging-order) sequence and
//      the window schedule itself (next window = global minimum pending
//      time + lookahead) is derived from deterministic state only.
//   4. Threads enter only inside WorkerPool::for_each_index, which runs
//      disjoint partitions concurrently between barriers; no partition ever
//      reads another's state during a window (outboxes are drained only at
//      the barrier).  Hence every thread count produces the bit-identical
//      event order, SimStats and FNV-1a history hash.
//
// Degradation can shrink a boundary gate's delay below any static positive
// lookahead (eq. 1: tp -> 0 as T -> T0), so conservative windows alone
// cannot be safe on every workload.  Every barrier therefore *detects*
// late messages -- an insert into an already-simulated window, or a cancel
// arriving after its event fired -- and falls back to the serial kernel for
// the whole run.  Detection depends only on the (deterministic) window
// schedule and message stream, so the fallback decision is itself
// thread-count invariant, and the fallback result is the serial result.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/base/worker_pool.hpp"
#include "src/core/simulator.hpp"

namespace halotis {

/// A K-way split of the netlist's gates, plus everything the windowed
/// driver derives from it.  Pure function of (netlist, timing, k).
struct PartitionPlan {
  std::uint32_t k = 1;
  std::vector<std::uint32_t> gate_part;     ///< gate -> partition
  std::vector<std::uint32_t> signal_owner;  ///< signal -> owning partition
  std::uint64_t cut_fanout = 0;   ///< fanout entries crossing a boundary
  std::uint64_t cut_signals = 0;  ///< driven signals with remote receivers
  /// Conservative window length: the minimum over boundary-crossing
  /// signals of (driver's smallest nominal arc delay minus the worst
  /// threshold-crossing offset of its remote receivers), floored at
  /// kMinLookahead.  See partition.cpp for the derivation.
  TimeNs lookahead = 0.0;

  [[nodiscard]] std::uint32_t owner_of(SignalId signal) const {
    return signal_owner[signal.value()];
  }
  /// Gates in each partition (diagnostics / balance tests).
  [[nodiscard]] std::vector<std::size_t> partition_sizes() const;
};

/// Windows shorter than this are pointless (every barrier costs more than
/// the work inside); also the floor that keeps a degraded boundary delay
/// from demanding a zero-length window.  1 ps, the kernel's minimum pulse
/// width.
inline constexpr TimeNs kMinLookahead = 0.001;

/// Splits `netlist` into `k` partitions: contiguous blocks of the
/// topological order (cuts fall between levels of a feed-forward circuit),
/// then greedy KL-style refinement moving boundary gates to the partition
/// holding most of their neighbours while the sizes stay balanced.
/// Deterministic; `k` is clamped to [1, num_gates].
[[nodiscard]] PartitionPlan partition_netlist(const Netlist& netlist,
                                              const TimingGraph& timing,
                                              std::uint32_t k);

/// The automatic partition count `halotis sim --threads N` uses when
/// --partitions is absent: one partition per ~4k gates, capped at 8.  A
/// pure function of the netlist, NOT of the thread count -- that is what
/// makes the history hash thread-count invariant.
[[nodiscard]] std::uint32_t default_partition_count(const Netlist& netlist);

struct PartitionedConfig {
  int threads = 0;               ///< worker threads; 0 = hardware, 1 = inline
  std::uint32_t partitions = 0;  ///< 0 = default_partition_count(netlist)
  /// Test seam: > 0 replaces the plan's computed lookahead, e.g. an
  /// absurdly large value forces boundary messages to arrive late and
  /// pins the violation -> serial-fallback path deterministically.
  TimeNs lookahead_override = 0.0;
  SimConfig sim;
};

/// Per-run window/synchronization statistics.
struct WindowStats {
  std::uint64_t windows = 0;
  std::uint64_t messages = 0;    ///< boundary inserts + cancels exchanged
  std::uint64_t violations = 0;  ///< total causality/simultaneity violations
  std::uint64_t violations_insert = 0;  ///< inserts into an already-run window
  std::uint64_t violations_cancel = 0;  ///< revocations after the target fired
  std::uint64_t violations_tie = 0;     ///< cross-channel bit-equal-time ties
  bool fell_back_serial = false;
  /// Sum over windows of the busiest partition's processed-event count:
  /// the event-parallel critical path.  total events / this = the model
  /// speedup an ideal K-core host would see; a balance figure, not a
  /// measured speedup.
  std::uint64_t critical_path_events = 0;
};

/// The partitioned simulation driver.  API mirrors the serial Simulator
/// closely enough for the CLI and the tests to swap one for the other;
/// results (histories, stats, final values) are routed to the owning
/// partition and are bit-identical across thread counts by construction.
///
/// Semantic differences from the serial kernel, both documented in
/// docs/ARCHITECTURE.md: the event limit is enforced at window barriers
/// (the serial kernel stops mid-storm at exactly max_events), and
/// run_until()-style segmented running is not offered.
class PartitionedSimulator {
 public:
  /// `netlist`, `model` and `timing` must outlive the driver; `timing`
  /// must be elaborated over `netlist` (shared-database path, one
  /// elaboration for all partitions).
  PartitionedSimulator(const Netlist& netlist, const DelayModel& model,
                       const TimingGraph& timing, PartitionedConfig config = {});
  /// A temporary graph would dangle: bind it to a variable first.
  PartitionedSimulator(const Netlist&, const DelayModel&, TimingGraph&&,
                       PartitionedConfig = {}) = delete;

  /// Attaches a run supervisor (nullptr detaches); `supervisor` must
  /// outlive the runs.  Budgets / deadline / cancellation are enforced at
  /// window barriers -- like max_events, the run may overshoot within one
  /// window (documented difference from the serial kernel's per-event
  /// checks).  With a single partition, and in the serial-fallback path,
  /// the underlying serial kernel is supervised per event.
  void supervise(const RunSupervisor* supervisor);
  [[nodiscard]] const RunSupervisor* supervisor() const { return supervisor_; }

  void apply_stimulus(const Stimulus& stimulus);
  RunResult run();
  /// Re-arms for another stimulus, bit-identical to a fresh driver (the
  /// partitioned analogue of Simulator::reset()).
  void reset();

  // ---- results (owner-routed) ----------------------------------------------
  [[nodiscard]] const PartitionPlan& plan() const { return plan_; }
  [[nodiscard]] const Netlist& netlist() const { return *netlist_; }
  [[nodiscard]] const DelayModel& model() const { return *model_; }
  [[nodiscard]] const TimingGraph& timing() const { return *timing_; }
  /// Summed over partitions; equals the serial kernel's stats on the same
  /// workload when no fallback occurred (each logical decision is counted
  /// exactly once, by the partition that made it).
  [[nodiscard]] const SimStats& stats() const { return stats_; }
  [[nodiscard]] const WindowStats& window_stats() const { return window_stats_; }
  [[nodiscard]] bool initial_value(SignalId signal) const;
  [[nodiscard]] bool final_value(SignalId signal) const;
  [[nodiscard]] std::vector<Transition> history(SignalId signal) const;
  [[nodiscard]] bool value_at(SignalId signal, TimeNs t) const;
  [[nodiscard]] std::size_t toggle_count(SignalId signal) const;
  [[nodiscard]] std::uint64_t total_activity() const;

 private:
  void run_serial_fallback(RunResult* result);
  [[nodiscard]] const Simulator& owner_sim(SignalId signal) const;
  void sum_stats();

  const Netlist* netlist_;
  const DelayModel* model_;
  const TimingGraph* timing_;
  PartitionedConfig config_;
  PartitionPlan plan_;
  std::vector<std::unique_ptr<Simulator>> parts_;
  /// outbox_[src][dst]: messages staged by `src` during a window, drained
  /// into `dst` at the barrier.
  std::vector<std::vector<std::vector<RemoteMsg>>> outbox_;
  WorkerPool pool_;
  Stimulus stimulus_;  ///< retained for the serial fallback re-run
  bool stimulus_applied_ = false;
  bool ran_ = false;
  std::unique_ptr<Simulator> serial_;  ///< set after a violation fallback
  const RunSupervisor* supervisor_ = nullptr;
  SimStats stats_;
  WindowStats window_stats_;
};

}  // namespace halotis
