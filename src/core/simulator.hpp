// The HALOTIS simulation engine (paper section 3, Fig. 4).
//
// The loop pops the earliest event, updates the receiving gate input's
// perceived value, evaluates the gate, computes the output transition with
// the configured delay model (DDM or CDM) and generates the fanout events,
// applying the inertial pair rule: a new event Ej that does not come after
// the pending previous event Ej-1 on the same input annihilates both
// (the pulse never crossed that input's threshold).
//
// Output-pulse annihilation: when the model reports a collapse (DDM's
// T <= T0), the new midswing crossing would not come after the previous
// one, or the CDM inertial window swallows the pulse, the previous output
// transition and the new one are both removed.  If part of the previous
// transition's fanout already consumed it, the engine instead emits a
// minimum-width pulse and lets the receiving inputs filter it (the paper's
// philosophy: filtering belongs to the inputs).
//
// Hot-path layout (PR 2, PR 5): the per-event cost is allocation-free,
// devirtualized and mostly sequential reads.
//   * All per-arc timing comes from the elaborated TimingGraph (PR 5): gate
//     evaluation computes DDM/CDM delays by indexing a dense TimingArc
//     table (load already folded, eval_arc() inlined); the DelayModel is
//     only the policy that elaborated the table.
//   * Gate functions are compiled to per-instance truth tables (PR 5): a
//     packed input word is maintained incrementally (one XOR per event) and
//     the output is one shift -- no per-event input-array walk, no
//     `eval_cell` call.
//   * A flattened fanout table built at construction stores, per
//     (signal, fanout pin): the receiving pin, its flattened input index
//     and the threshold crossing fraction VT/VDD copied from
//     TimingGraph::threshold_fraction -- so spawn_events() walks one
//     contiguous array with no cell lookups.
//   * Transition bookkeeping (spawned events, suppressed pairs) lives in
//     pooled, reclaimable `TrackRec` slots with inline small-buffer storage
//     spilling to shared pools, allocated lazily on first use; a record is
//     reclaimed -- and its pool nodes recycled -- as soon as the transition
//     can neither be annihilated nor resurrect a partner, so live
//     bookkeeping is bounded by circuit activity, not by stimulus length.
//     Only the 32-byte POD per transition survives (it is the waveform
//     history).
//   * Per-input pending events form intrusive doubly-linked lists threaded
//     through the event records themselves: O(1) pop-front in run(), O(1)
//     unlink on cancellation, O(k) ordered insert on resurrection.  Only
//     each list's head is scheduled in the d-ary heap (PR 5): the lists are
//     time-ordered, so the heap arbitrates one event per active input and
//     mid-list cancellations never pay heap maintenance.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/ids.hpp"
#include "src/base/supervision.hpp"
#include "src/base/units.hpp"
#include "src/core/delay_model.hpp"
#include "src/core/event_queue.hpp"
#include "src/core/stats.hpp"
#include "src/core/stimulus.hpp"
#include "src/core/transition.hpp"
#include "src/netlist/netlist.hpp"
#include "src/timing/timing_graph.hpp"

namespace halotis {

namespace replay {
class TraceRecorder;
}  // namespace replay

struct SimConfig {
  /// Simulation horizon; events after it stay unprocessed.
  TimeNs t_end = kNeverNs;
  /// Hard safety bound on processed events (oscillating feedback guard).
  std::uint64_t max_events = 100'000'000;
  /// Minimum output pulse width used when a collapse cannot be executed
  /// cleanly because the previous edge was already consumed downstream.
  TimeNs min_pulse_width = 0.001;  // 1 ps
};

/// Why run() returned.
enum class StopReason { kQueueExhausted, kHorizonReached, kEventLimit };

/// One boundary message between partitions (PR 6: partitioned kernel).
/// `kInsert` ships a threshold-crossing event together with the POD of its
/// causing transition, so the receiving partition can evaluate the gate
/// without reaching into the owner's arena; `kCancel` revokes a previously
/// inserted event by its owner-side handle (the pair rule or an output
/// annihilation removed it before it could fire).  Messages travel over
/// per-(src, dst) staging vectors written only by the owner during a time
/// window and drained only at the barrier, so every channel is
/// single-producer single-consumer by construction.
struct RemoteMsg {
  enum class Kind : std::uint8_t { kInsert, kCancel };
  Kind kind = Kind::kInsert;
  Edge edge = Edge::kRise;       ///< causing transition sense (kInsert)
  PinRef target;                 ///< receiving gate input (receiver-owned)
  std::uint32_t handle = 0;      ///< owner-side EventId: unique per channel
  std::uint32_t cause = 0;       ///< owner-side TransitionId (copy-map key)
  SignalId signal;               ///< driving signal (kInsert)
  TimeNs time = 0.0;             ///< threshold-crossing instant, clamped
  TimeNs t_start = 0.0;          ///< causing transition ramp start (kInsert)
  TimeNs tau = 0.0;              ///< causing transition ramp duration (kInsert)
};

struct RunResult {
  StopReason reason = StopReason::kQueueExhausted;
  TimeNs end_time = 0.0;
};

class Simulator {
 public:
  /// `netlist` and `model` must outlive the simulator.  Elaborates the
  /// netlist's TimingGraph under the model's policy internally.
  Simulator(const Netlist& netlist, const DelayModel& model, SimConfig config = {});

  /// Runs on an externally elaborated TimingGraph -- the shared-database
  /// path used by the fault campaign (one elaboration for every worker) and
  /// by SDF back-annotation (`halotis sim --sdf`).  `timing` must be built
  /// over this same `netlist` and must outlive the simulator; `model` is
  /// retained for reporting only.
  Simulator(const Netlist& netlist, const DelayModel& model, const TimingGraph& timing,
            SimConfig config = {});
  /// A temporary graph would dangle: bind it to a variable first.
  Simulator(const Netlist&, const DelayModel&, TimingGraph&&, SimConfig = {}) = delete;

  /// Sets initial values (steady state from the stimulus initial word) and
  /// schedules every stimulus edge.  Must be called exactly once per re-arm
  /// cycle (construction or reset()), before run().
  void apply_stimulus(const Stimulus& stimulus);

  /// Re-arms the simulator for another stimulus on the same netlist: clears
  /// every piece of dynamic state (queue, transitions, tracks, histories,
  /// pending lists, stats, any injected fault) while keeping the static
  /// tables and the arenas' capacity, so a reset + apply_stimulus + run
  /// cycle is bit-identical to a freshly constructed Simulator but performs
  /// no per-cycle reallocation.  The fault-campaign engine's workers rely on
  /// this to recycle one Simulator across thousands of faulty runs.
  void reset();

  /// Injects a single stuck-at fault before the next apply_stimulus():
  /// every receiver of `signal` perceives the constant `value` for the whole
  /// run (steady-state initialization included) and transitions on `signal`
  /// generate no events -- exactly the observable behaviour of rewiring the
  /// line's receivers to a constant net (the test suite's fault oracle),
  /// without copying the netlist or rebuilding the static tables.  The signal's own history
  /// still records its driver, which feeds nothing; a faulted primary
  /// *output* must be observed as the constant by the caller.  Cleared by
  /// reset().
  void inject_stuck_at(SignalId signal, bool value);

  /// Re-arms the simulator onto a *different* elaborated design: swaps in
  /// `netlist`/`model`/`timing` (same contract as the external-graph
  /// constructor), rebuilds the static tables, and reset()s -- bit-identical
  /// to constructing a fresh Simulator on the new design while keeping the
  /// arenas' capacity.  The daemon's per-worker simulator pool depends on
  /// this.  Rebinding onto the graph already bound is a plain reset() (the
  /// static tables are reused).  Detaches any supervisor and recorder: they
  /// are per-design configuration, re-attach after rebinding.
  void rebind(const Netlist& netlist, const DelayModel& model, const TimingGraph& timing,
              SimConfig config = {});

  /// Attaches a run supervisor (nullptr detaches).  The kernel then trips
  /// the event budget on the exact over-budget event and polls the
  /// deadline / cancellation / memory budgets every RunBudget::poll_events
  /// events,
  /// throwing RunError from run() when a limit trips; the simulator itself
  /// stays valid and inspectable (history, stats) at the stop point, which
  /// is bit-deterministic for the budget checks.  `supervisor` must
  /// outlive the runs; survives reset() (it is configuration, not state).
  void supervise(const RunSupervisor* supervisor) {
    supervisor_ = supervisor;
    if (supervisor != nullptr) sup_countdown_ = sup_reload();
  }
  [[nodiscard]] const RunSupervisor* supervisor() const { return supervisor_; }

  /// Attaches a causal-trace recorder (nullptr detaches); serial mode only.
  /// Must be called before apply_stimulus(): the recorder captures every
  /// scheduling decision of exactly one apply_stimulus() + run() cycle.
  /// After run() returns, finish_recording() seals the trace for replay
  /// (src/replay/).  Recording another cycle needs a fresh record_into().
  void record_into(replay::TraceRecorder* recorder);
  /// Seals the attached recorder's trace: enumerates residual pending
  /// events, snapshots the surviving history and the stop condition.
  /// `result` must be the RunResult of the recorded run() (not run_until():
  /// the trace horizon is the config horizon).
  void finish_recording(const RunResult& result);

  /// Runs until the queue empties, the horizon passes or the event limit
  /// trips.
  RunResult run();

  /// Runs until every event with time <= t_end has been processed (bounded
  /// by the config horizon and event limit).  Repeated calls with growing
  /// horizons advance the same run in segments -- the campaign engine's
  /// early-exit observation hook samples primary outputs between segments.
  RunResult run_until(TimeNs t_end);

  // ---- results --------------------------------------------------------------

  [[nodiscard]] TimeNs now() const { return now_; }
  [[nodiscard]] const SimStats& stats() const { return stats_; }
  [[nodiscard]] const Netlist& netlist() const { return *netlist_; }
  [[nodiscard]] const DelayModel& model() const { return *model_; }
  /// The elaborated timing database the kernel evaluates.
  [[nodiscard]] const TimingGraph& timing() const { return *timing_; }

  /// Value of `signal` before any transition.
  [[nodiscard]] bool initial_value(SignalId signal) const;
  /// Scheduled driver value after all surviving transitions.
  [[nodiscard]] bool final_value(SignalId signal) const;
  /// Surviving transitions on `signal`, time-ordered.
  [[nodiscard]] std::vector<Transition> history(SignalId signal) const;
  /// Logic value of `signal` at time `t`, midswing-referenced -- identical
  /// to DigitalWaveform::value_at over the surviving history, but
  /// allocation-free (backward scan).  Valid for any `t` not later than the
  /// horizon already simulated.
  [[nodiscard]] bool value_at(SignalId signal, TimeNs t) const;
  /// Number of surviving transitions (toggle count) on `signal`.
  [[nodiscard]] std::size_t toggle_count(SignalId signal) const;
  /// Total surviving transitions across all signals (switching activity).
  [[nodiscard]] std::uint64_t total_activity() const;
  /// Perceived logic value at a gate input (for consistency checks).
  [[nodiscard]] bool perceived_value(const PinRef& pin) const;
  /// The `n` signals with the most transitions, most active first --
  /// the oscillation-diagnosis aid when run() stops on the event limit
  /// (combinational feedback loops show up at the top of this list).
  [[nodiscard]] std::vector<SignalId> most_active_signals(std::size_t n) const;

  /// Peak number of simultaneously-live transition bookkeeping records
  /// (the bounded-memory metric): how large the reclaimable part of the
  /// transition arena ever got.
  [[nodiscard]] std::uint64_t peak_live_transitions() const { return peak_live_tracks_; }
  /// Transition bookkeeping records live right now (pending or still
  /// annihilatable / resurrectable transitions).
  [[nodiscard]] std::uint64_t live_transitions() const { return live_tracks_; }
  /// Approximate byte footprint of the transition arena and its pools.
  [[nodiscard]] std::uint64_t transition_arena_bytes() const;
  /// Approximate byte footprint of the event arena and heap.
  [[nodiscard]] std::uint64_t event_arena_bytes() const { return queue_.arena_bytes(); }

 private:
  // ---- static tables (built once in the constructor) ----------------------

  /// One receiving pin of a signal, with everything spawn_events() needs
  /// resolved: the flattened input index and the precomputed crossing
  /// fractions (VT/VDD for rising ramps, 1 - VT/VDD for falling ones,
  /// read once from TimingGraph::threshold_fraction).
  struct FanoutEntry {
    GateId gate;               ///< receiving gate
    std::uint16_t pin = 0;     ///< receiving input pin of `gate`
    std::uint32_t input = 0;   ///< index into inputs_ (flattened gate pins)
    double vt_frac = 0.5;      ///< rising crossing = t_start + tau * vt_frac;
                               ///< falling uses (1 - vt_frac), computed inline
  };

  /// One per-gate record holding both the static tables (flattened-pin
  /// range, TimingArc range, the boolean function compiled to a truth table
  /// indexed by the packed input word; fan-in <= 4 by CellKind) and the
  /// dynamic state (packed perceived-input word, scheduled output value,
  /// last surviving output transition) -- 24 bytes, so an event touches one
  /// cache line of gate state instead of three parallel arrays.
  struct GateRec {
    std::uint32_t input_base = 0;  ///< first flattened input index
    std::uint32_t arc_base = 0;    ///< first TimingArc of this gate
    SignalId output;
    TransitionId last_out;         ///< dynamic: last surviving output transition
    std::uint16_t truth = 0;       ///< bit w = output for input word w
    std::uint8_t num_inputs = 0;
    std::uint8_t word = 0;         ///< dynamic: packed perceived-input word
    bool output_value = false;     ///< dynamic: scheduled output value
  };

  // ---- dynamic state -------------------------------------------------------

  /// Snapshot allowing resurrection of a pair-cancelled event.
  struct SuppressedPair {
    PinRef target;
    TransitionId partner_cause;  ///< transition whose event was deleted
    EventId partner_event;       ///< the deleted event (trace identity)
    TimeNs partner_time = 0.0;
  };

  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  /// Track sentinel: bookkeeping reclaimed, transition can never be
  /// annihilated (an event fired, or it was itself annihilated).
  static constexpr std::uint32_t kNoTrackDead = 0xFFFFFFFFu;
  /// Track sentinel: bookkeeping reclaimed trivially (no fanout events, no
  /// suppressed pairs); the transition is still annihilatable, which needs
  /// no data.
  static constexpr std::uint32_t kNoTrackFree = 0xFFFFFFFEu;
  static constexpr std::uint32_t kTrackSentinelMin = kNoTrackFree;

  /// Per-transition record: the waveform POD plus compact lifetime
  /// counters.  Grows with the history (that is the waveform output); the
  /// variable-size bookkeeping lives in reclaimable TrackRec slots.
  struct TransitionRec {
    Transition tr;
    std::uint32_t track = kNoTrackFree;  ///< live slot in tracks_, or sentinel
    std::uint32_t partner_refs = 0;  ///< live suppressed pairs naming me partner
    std::uint32_t pending = 0;       ///< my spawned events still pending
    std::uint8_t fired_any = 0;      ///< any spawned event fired => never annihilatable
  };

  /// Reclaimable bookkeeping slot: spawned events (inline, spilling to
  /// spawn_pool_) and suppressed pairs (chained in pair_pool_).
  struct TrackRec {
    static constexpr std::uint32_t kInlineSpawned = 6;
    std::array<EventId, kInlineSpawned> spawned;
    std::uint32_t spawned_count = 0;     ///< total, inline + overflow
    std::uint32_t overflow_head = kNil;  ///< chain in spawn_pool_, append order
    std::uint32_t overflow_tail = kNil;
    std::uint32_t sup_head = kNil;  ///< chain in pair_pool_, append order
    std::uint32_t sup_tail = kNil;
    std::uint32_t next_free = kNil;  ///< tracks_ free list link
  };
  struct SpawnNode {
    EventId id;
    std::uint32_t next = kNil;
  };
  struct PairNode {
    SuppressedPair pair;
    std::uint32_t next = kNil;
  };

  /// Intrusive doubly-linked, time-ordered pending list per gate input,
  /// threaded through the event records themselves (EventQueue::links --
  /// the event, its state and its links share one arena record).
  struct InputState {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };
  using EvLink = EventQueue::EventLinks;

  [[nodiscard]] std::size_t input_index(const PinRef& pin) const {
    return gates_[pin.gate.value()].input_base + static_cast<std::size_t>(pin.pin);
  }

  RunResult run_impl(TimeNs horizon);
  TransitionId create_transition(SignalId signal, Edge edge, TimeNs t_start, TimeNs tau,
                                 TransitionId prev);
  /// Generates fanout events for a fresh transition, applying the pair rule.
  void spawn_events(TransitionId tr_id);
  void handle_event(const Event& ev);
  void schedule_output(GateId gate_id, int pin, const Event& ev, bool new_output);
  [[nodiscard]] bool can_annihilate(TransitionId tr_id) const;
  void annihilate(GateId gate_id, TransitionId tr_id);
  /// Cancels a pending event and updates its causing transition's counters.
  void cancel_pending_event(EventId id);

  // -- track pool -------------------------------------------------------------
  std::uint32_t alloc_track();
  void track_append_spawned(std::uint32_t track, EventId id);
  void track_append_pair(std::uint32_t track, const SuppressedPair& pair);
  /// Walks and recycles a suppressed-pair chain, releasing each partner
  /// reference (cascading reclamation).  With `resurrect` set, a
  /// non-cancelled partner's deleted event is restored first (the
  /// output-pulse annihilation path).
  void consume_pair_chain(std::uint32_t head, bool resurrect);
  /// Frees `rec`'s track slot and pool nodes; unconsumed suppressed pairs
  /// release their partner references (cascading reclamation).
  void reclaim_track(TransitionRec& rec, std::uint32_t sentinel);
  /// Reclaims the transition's bookkeeping when it can no longer be
  /// annihilated (an event fired) nor referenced by a live suppressed pair.
  void maybe_reclaim(TransitionId id);

  // -- pending lists ----------------------------------------------------------
  /// Wraps queue_.push and grows the intrusive link arrays.
  EventId push_event(TimeNs time, TransitionId transition, PinRef target);
  void list_push_back(InputState& in, EventId id);
  void list_remove(InputState& in, EventId id);
  /// Ordered insert by (time, seq), scanning from the tail (resurrection).
  void list_insert_sorted(InputState& in, EventId id);

  /// Shared table-build step of both constructors.
  void build_static_tables();

  // ---- partitioned-mode hooks (PR 6) ---------------------------------------
  // A partitioned run (core/partition.hpp) instantiates one Simulator per
  // partition over the *whole* netlist and attaches an ownership map: the
  // partition executes only events targeting its own gates, mirrors the
  // pending lists of remote inputs it drives (so every pair-rule /
  // annihilation / resurrection decision stays owner-local and replays the
  // serial algorithm verbatim), and exchanges boundary events as RemoteMsg
  // records at window barriers.  With no attachment (part_of_gate_ ==
  // nullptr) every hook collapses to a predicted-not-taken branch and the
  // serial hot path is unchanged.
  friend class PartitionedSimulator;

  /// Owner-side replay slot: a remote-target event this partition created,
  /// ordered by the same (time, id) key the receiving partition fires it
  /// under.  Min-heap over retire_ with lazy deletion of cancelled entries.
  struct RetireSlot {
    TimeNs time = 0.0;
    std::uint32_t id = 0;
  };
  [[nodiscard]] static bool retire_later(const RetireSlot& a, const RetireSlot& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.id > b.id;
  }

  [[nodiscard]] bool part_remote(GateId gate) const {
    return part_of_gate_ != nullptr && part_of_gate_[gate.value()] != part_self_;
  }
  /// Owning partition of a signal: its driver's partition; a primary input
  /// is owned by its first fanout gate's partition (partition 0 if unused).
  [[nodiscard]] std::uint32_t part_owner_of_signal(SignalId signal) const;
  /// Enters partition mode.  `gate_part` (size num_gates) and `outbox`
  /// (size `count`, staging vector per destination) must outlive the run.
  void part_attach(std::uint32_t self, std::uint32_t count,
                   const std::uint32_t* gate_part, std::vector<RemoteMsg>* outbox);
  void part_stage_insert(GateId gate, EventId id, const Transition& tr);
  void retire_push(TimeNs time, EventId id);
  void retire_prune();
  /// Owner-side bookkeeping replay of a remote firing (no gate evaluation,
  /// no events_processed -- the receiving partition counts those).
  void retire_shadow(EventId id);
  /// Earliest pending work (local heap or retirement replay); kNeverNs when
  /// idle.  Prunes cancelled retirement entries, hence non-const.
  [[nodiscard]] TimeNs part_next_time();
  /// Processes every event and retirement with time < w_end in (time, id)
  /// order -- one conservative time window.
  void part_run_window(TimeNs w_end);
  /// Causality violations one barrier delivery detected; any non-zero
  /// field makes the driver fall back to the serial kernel.
  struct InboxResult {
    std::uint64_t late_inserts = 0;  ///< inserts into an already-run window
    std::uint64_t late_cancels = 0;  ///< revocations after the target fired
  };
  /// Applies one channel's barrier-delivered messages in staging order.
  [[nodiscard]] InboxResult part_apply_inbox(std::uint32_t src,
                                             std::span<const RemoteMsg> msgs,
                                             TimeNs prev_w_end);
  /// Cross-channel simultaneity ties detected while firing: two pending
  /// events at the same gate with bit-equal times whose causes arrived
  /// through different channels.  The serial kernel orders such a pair by
  /// global creation sequence, which partitions cannot reconstruct, so the
  /// driver treats a nonzero count like a causality violation (serial
  /// fallback).  Same-channel ties are safe: FIFO delivery preserves the
  /// owner's creation order, which matches the serial kernel's.
  [[nodiscard]] std::uint64_t part_tie_violations() const {
    return part_tie_violations_;
  }

  const Netlist* netlist_;
  const DelayModel* model_;
  SimConfig config_;

  // static tables
  std::unique_ptr<TimingGraph> owned_timing_;  ///< set by the internal-build ctor
  const TimingGraph* timing_ = nullptr;
  const TimingArc* arcs_ = nullptr;  ///< timing_->arcs().data(), cached
  std::vector<GateRec> gates_;  ///< static + dynamic per-gate record
  std::vector<FanoutEntry> fanout_;          // flattened over signals
  std::vector<std::uint32_t> fanout_base_;   // signal -> first index; size+1
  std::vector<GateId> topo_order_;           // cached: steady-state sweep order
  int depth_ = 0;                            // cached: arena reserve estimate
  bool has_cycles_ = false;                  // cached: steady-state sweep bound

  // dynamic state
  EventQueue queue_;
  std::vector<TransitionRec> transitions_;
  std::vector<TrackRec> tracks_;
  std::uint32_t track_free_ = kNil;
  std::vector<SpawnNode> spawn_pool_;
  std::uint32_t spawn_free_ = kNil;
  std::vector<PairNode> pair_pool_;
  std::uint32_t pair_free_ = kNil;
  std::uint64_t live_tracks_ = 0;
  std::uint64_t peak_live_tracks_ = 0;
  std::vector<std::vector<TransitionId>> signal_history_;
  std::vector<bool> initial_values_;
  std::vector<InputState> inputs_;          // flattened (gate, pin)
  TimeNs now_ = 0.0;
  bool stimulus_applied_ = false;
  const RunSupervisor* supervisor_ = nullptr;  ///< optional; see supervise()
  std::uint32_t sup_countdown_ = 0;  ///< events until the next slow check
  replay::TraceRecorder* recorder_ = nullptr;  ///< optional; see record_into()

  /// Events until the next supervision slow path: the poll cadence, pulled
  /// in so the countdown expires exactly on the first over-budget event
  /// ordinal.  The hot path then only decrements -- the event-budget
  /// compare lives in the slow path without losing the bit-exact stop
  /// point.  Requires stats_.events_processed <= max_events (the slow path
  /// has already thrown otherwise).
  [[nodiscard]] std::uint32_t sup_reload() const {
    std::uint64_t steps = supervisor_->budget().poll_events;
    const std::uint64_t max_events = supervisor_->budget().max_events;
    if (max_events != 0) {
      const std::uint64_t remaining = max_events - stats_.events_processed;
      if (remaining < steps) steps = remaining + 1;
    }
    return static_cast<std::uint32_t>(steps);
  }
  SignalId fault_signal_;        ///< injected stuck-at site (invalid: none)
  bool fault_value_ = false;
  SimStats stats_;

  // partitioned-mode state (inert in serial mode; see part_attach())
  std::uint32_t part_self_ = 0;
  std::uint32_t part_count_ = 1;
  const std::uint32_t* part_of_gate_ = nullptr;   ///< null => serial mode
  std::vector<RemoteMsg>* part_outbox_ = nullptr;  ///< per-destination staging
  std::vector<RetireSlot> retire_;                 ///< owner-side replay heap
  /// Per-source-partition maps: owner handle -> local EventId, and owner
  /// TransitionId -> local copy of the causing transition.
  std::vector<std::unordered_map<std::uint32_t, std::uint32_t>> part_handle_map_;
  std::vector<std::unordered_map<std::uint32_t, std::uint32_t>> part_cause_map_;
  std::uint64_t part_tie_violations_ = 0;
};

}  // namespace halotis
