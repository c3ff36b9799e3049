#include "src/core/simulator.hpp"

#include <algorithm>
#include <new>

#include "src/base/check.hpp"
#include "src/base/failpoint.hpp"
#include "src/replay/trace.hpp"

namespace halotis {

Simulator::Simulator(const Netlist& netlist, const DelayModel& model, SimConfig config)
    : netlist_(&netlist), model_(&model), config_(config) {
  owned_timing_ =
      std::make_unique<TimingGraph>(TimingGraph::build(netlist, model.timing_policy()));
  timing_ = owned_timing_.get();
  build_static_tables();
}

Simulator::Simulator(const Netlist& netlist, const DelayModel& model,
                     const TimingGraph& timing, SimConfig config)
    : netlist_(&netlist), model_(&model), config_(config), timing_(&timing) {
  require(&timing.netlist() == &netlist,
          "Simulator: TimingGraph was elaborated over a different netlist");
  build_static_tables();
}

void Simulator::rebind(const Netlist& netlist, const DelayModel& model,
                       const TimingGraph& timing, SimConfig config) {
  require(&timing.netlist() == &netlist,
          "Simulator::rebind(): TimingGraph was elaborated over a different netlist");
  require(config.min_pulse_width > 0.0, "SimConfig::min_pulse_width must be positive");
  const bool same_tables = netlist_ == &netlist && timing_ == &timing;
  netlist_ = &netlist;
  model_ = &model;
  config_ = config;
  supervisor_ = nullptr;
  recorder_ = nullptr;
  if (!same_tables) {
    owned_timing_.reset();
    timing_ = &timing;
    build_static_tables();
  }
  reset();
}

void Simulator::build_static_tables() {
  require(config_.min_pulse_width > 0.0, "SimConfig::min_pulse_width must be positive");
  netlist_->check();
  arcs_ = timing_->arcs().data();

  const std::size_t num_signals = netlist_->num_signals();
  const std::size_t num_gates = netlist_->num_gates();
  signal_history_.resize(num_signals);
  initial_values_.assign(num_signals, false);
  gates_.assign(num_gates, GateRec{});

  std::size_t total_pins = 0;
  for (std::size_t g = 0; g < num_gates; ++g) {
    const GateId gid{static_cast<GateId::underlying_type>(g)};
    const Gate& gate = netlist_->gate(gid);
    GateRec& gi = gates_[g];
    gi.output = gate.output;
    gi.input_base = static_cast<std::uint32_t>(total_pins);
    gi.arc_base = timing_->arc_base(gid);
    gi.num_inputs = static_cast<std::uint8_t>(gate.inputs.size());
    total_pins += gate.inputs.size();

    // Compile the gate's boolean function to a truth table indexed by the
    // packed input word (bit p = perceived value of pin p).
    require(gate.inputs.size() <= 4, "Simulator: fan-in too large for truth table");
    bool ins[4] = {};
    std::uint16_t truth = 0;
    for (std::uint32_t word = 0; word < (1u << gate.inputs.size()); ++word) {
      for (std::size_t p = 0; p < gate.inputs.size(); ++p) ins[p] = ((word >> p) & 1u) != 0;
      if (eval_cell(netlist_->cell_of(gid).kind,
                    std::span<const bool>(ins, gate.inputs.size()))) {
        truth |= static_cast<std::uint16_t>(1u << word);
      }
    }
    gi.truth = truth;
  }
  inputs_.assign(total_pins, InputState{});

  // Flattened fanout table: resolve, once, everything spawn_events() needs
  // per (signal, receiving pin) -- the receiving pin's flattened input index
  // and its TimingGraph threshold crossing fractions.
  std::size_t total_fanout = 0;
  for (std::size_t s = 0; s < num_signals; ++s) {
    total_fanout +=
        netlist_->signal(SignalId{static_cast<SignalId::underlying_type>(s)}).fanout.size();
  }
  fanout_.clear();  // rebind() rebuilds over the new design's fanout
  fanout_.reserve(total_fanout);
  fanout_base_.resize(num_signals + 1);
  for (std::size_t s = 0; s < num_signals; ++s) {
    fanout_base_[s] = static_cast<std::uint32_t>(fanout_.size());
    const Signal& sig = netlist_->signal(SignalId{static_cast<SignalId::underlying_type>(s)});
    for (const PinRef& target : sig.fanout) {
      FanoutEntry entry;
      entry.gate = target.gate;
      entry.pin = static_cast<std::uint16_t>(target.pin);
      entry.input = static_cast<std::uint32_t>(input_index(target));
      entry.vt_frac = timing_->threshold_fraction(target.gate, target.pin);
      fanout_.push_back(entry);
    }
  }
  fanout_base_[num_signals] = static_cast<std::uint32_t>(fanout_.size());

  // Cached once for the reset()/re-arm path: apply_stimulus runs once per
  // fault in a campaign, and these are all O(gates + signals) walks with
  // allocations.
  topo_order_ = netlist_->topological_order();
  depth_ = netlist_->depth();
  has_cycles_ = netlist_->has_combinational_cycles();
}

void Simulator::reset() {
  queue_.clear();
  transitions_.clear();
  tracks_.clear();
  track_free_ = kNil;
  spawn_pool_.clear();
  spawn_free_ = kNil;
  pair_pool_.clear();
  pair_free_ = kNil;
  live_tracks_ = 0;
  peak_live_tracks_ = 0;
  for (auto& history : signal_history_) history.clear();
  initial_values_.assign(initial_values_.size(), false);
  for (GateRec& gate : gates_) {
    gate.word = 0;
    gate.output_value = false;
    gate.last_out = TransitionId{};
  }
  inputs_.assign(inputs_.size(), InputState{});
  now_ = 0.0;
  stimulus_applied_ = false;
  fault_signal_ = SignalId{};
  fault_value_ = false;
  stats_ = SimStats{};
  // Re-prime the slow-poll countdown so every run polls on the same event
  // ordinals regardless of what previous runs consumed.
  if (supervisor_ != nullptr) sup_countdown_ = sup_reload();
  retire_.clear();
  for (auto& map : part_handle_map_) map.clear();
  for (auto& map : part_cause_map_) map.clear();
  part_tie_violations_ = 0;
}

void Simulator::inject_stuck_at(SignalId signal, bool value) {
  require(!stimulus_applied_,
          "Simulator::inject_stuck_at(): must be called before apply_stimulus()");
  require(signal.valid() && signal.value() < netlist_->num_signals(),
          "Simulator::inject_stuck_at(): signal out of range");
  fault_signal_ = signal;
  fault_value_ = value;
}

void Simulator::apply_stimulus(const Stimulus& stimulus) {
  require(!stimulus_applied_, "Simulator::apply_stimulus(): stimulus already applied");
  stimulus_applied_ = true;

  // 1. Steady-state initialization from the stimulus initial word, with the
  // injected fault (if any) pinned so downstream logic settles around it.
  // Netlist::settle() over the cached topological order: the same fixpoint
  // as Netlist::steady_state(), but the campaign's per-fault re-arm pays no
  // graph walk.
  const auto pis = netlist_->primary_inputs();
  initial_values_.assign(netlist_->num_signals(), false);
  for (const SignalId pi : pis) initial_values_[pi.value()] = stimulus.initial_value(pi);
  if (fault_signal_.valid()) initial_values_[fault_signal_.value()] = fault_value_;
  const int max_sweeps = has_cycles_ ? depth_ + static_cast<int>(gates_.size()) + 2 : 1;
  (void)netlist_->settle(topo_order_, max_sweeps, fault_signal_, initial_values_);

  for (std::size_t g = 0; g < gates_.size(); ++g) {
    const Gate& gate = netlist_->gate(GateId{static_cast<GateId::underlying_type>(g)});
    std::uint8_t word = 0;
    for (std::size_t pin = 0; pin < gate.inputs.size(); ++pin) {
      if (initial_values_[gate.inputs[pin].value()]) {
        word |= static_cast<std::uint8_t>(1u << pin);
      }
    }
    gates_[g].word = word;
    gates_[g].output_value = initial_values_[gate.output.value()];
  }

  // 2. Pre-size the arenas from the stimulus and netlist so the run does
  // not pay growth reallocations mid-flight.  The estimate is a heuristic
  // (edges ripple through at most `depth` gate levels), capped so a huge
  // stimulus cannot demand a huge up-front allocation.
  std::size_t num_edges = 0;
  for (SignalId pi : pis) num_edges += stimulus.edges(pi).size();
  {
    constexpr std::size_t kReserveCap = std::size_t{1} << 21;
    const auto depth = static_cast<std::size_t>(std::max(depth_, 1));
    const std::size_t est_transitions = std::min(64 + num_edges * (depth + 1), kReserveCap);
    // Deterministic OOM injection: the arena pre-reserve is the simulator's
    // one big up-front allocation, so the fail-point models allocation
    // failure exactly where a constrained host would actually hit it.
    if (failpoint("alloc.simulator.arena")) throw std::bad_alloc();
    transitions_.reserve(est_transitions);
    tracks_.reserve(std::min<std::size_t>(est_transitions / 8 + 64, 1u << 16));
    const std::size_t est_events = std::min(2 * est_transitions, kReserveCap);
    queue_.reserve(est_events);
    for (SignalId pi : pis) {
      signal_history_[pi.value()].reserve(stimulus.edges(pi).size());
    }
  }

  // 3. Schedule every stimulus edge as a transition on its primary input.
  // In partition mode each partition enumerates the same global loop but
  // materializes only the primary inputs it owns: the relative creation
  // order of the events every owner produces matches the serial kernel's.
  for (SignalId pi : pis) {
    if (part_of_gate_ != nullptr && part_owner_of_signal(pi) != part_self_) continue;
    bool value = stimulus.initial_value(pi);
    TransitionId prev;
    for (const StimulusEdge& edge : stimulus.edges(pi)) {
      if (edge.value == value) continue;
      value = edge.value;
      const TimeNs tau = edge.tau > 0.0 ? edge.tau : stimulus.default_slew();
      const Edge sense = edge.value ? Edge::kRise : Edge::kFall;
      const TimeNs t_start = edge.time - 0.5 * tau;
      const TransitionId id = create_transition(pi, sense, t_start, tau, prev);
      if (recorder_ != nullptr) recorder_->on_stim_transition(id, t_start, tau);
      spawn_events(id);
      prev = id;
    }
  }
}

TransitionId Simulator::create_transition(SignalId signal, Edge edge, TimeNs t_start,
                                          TimeNs tau, TransitionId prev) {
  require(tau > 0.0, "Simulator: transition tau must be positive");
  const TransitionId id{static_cast<TransitionId::underlying_type>(transitions_.size())};
  TransitionRec rec;
  rec.tr.signal = signal;
  rec.tr.edge = edge;
  rec.tr.t_start = t_start;
  rec.tr.tau = tau;
  rec.tr.prev = prev;
  // rec.track stays kNoTrackFree: a bookkeeping slot is allocated lazily by
  // spawn_events() only if the transition actually spawns events or records
  // suppressed pairs -- fanout-free lines (primary outputs) never pay the
  // alloc/reclaim round trip.
  transitions_.push_back(rec);
  signal_history_[signal.value()].push_back(id);
  ++stats_.transitions_created;
  return id;
}

void Simulator::spawn_events(TransitionId tr_id) {
  // Copy the POD part: pool appends below must not read through a stale
  // reference.
  const Transition tr = transitions_[tr_id.value()].tr;
  const std::uint32_t sig = tr.signal.value();
  const std::uint32_t begin = fanout_base_[sig];
  // A transition on the stuck-at site is gagged: receivers perceive the
  // injected constant, so the line's ramps generate no events (the
  // constant-net rewiring, without the netlist copy).
  const std::uint32_t end =
      tr.signal == fault_signal_ ? begin : fanout_base_[sig + 1];
  const bool rising = tr.edge == Edge::kRise;
  // The loop never grows transitions_, so one lookup serves every fanout;
  // the bookkeeping slot is allocated on the first append only (fanout-free
  // transitions keep the kNoTrackFree sentinel and need no reclamation).
  TransitionRec& rec = transitions_[tr_id.value()];
  std::uint32_t track = rec.track;
  const auto live_track = [&]() {
    if (track >= kTrackSentinelMin) rec.track = track = alloc_track();
    return track;
  };
  for (std::uint32_t i = begin; i < end; ++i) {
    const FanoutEntry& fo = fanout_[i];
    const PinRef target{fo.gate, fo.pin};
    const double frac = rising ? fo.vt_frac : 1.0 - fo.vt_frac;
    TimeNs ej = tr.t_start + tr.tau * frac;
    InputState& in = inputs_[fo.input];
    const std::uint32_t prev_tail = in.tail;

    if (prev_tail != kNil) {
      const EventId prev_id{prev_tail};
      const Event& prev_ev = queue_.event_unchecked(prev_id);
      if (ej <= prev_ev.time) {
        // Paper Fig. 4: the pulse never crosses this input's threshold.
        // Delete Ej-1, do not insert Ej.
        SuppressedPair pair;
        pair.target = target;
        pair.partner_cause = prev_ev.transition;
        pair.partner_event = prev_id;
        pair.partner_time = prev_ev.time;
        track_append_pair(live_track(), pair);
        // The pair keeps the partner's bookkeeping alive until consumed.
        ++transitions_[pair.partner_cause.value()].partner_refs;
        const bool was_head = in.head == prev_tail;
        list_remove(in, prev_id);
        cancel_pending_event(prev_id);
        if (recorder_ != nullptr) {
          recorder_->on_pair_cancel(prev_id, tr_id, frac, fo.input, was_head);
        }
        ++stats_.pair_cancellations;
        ++stats_.events_suppressed;
        continue;
      }
    }
    if (ej < now_) ej = now_;  // causality clamp for extreme slope ratios
    const EventId id = push_event(ej, tr_id, target);
    if (recorder_ != nullptr) recorder_->on_spawn(id, tr_id, frac, prev_tail, fo.input);
    ++stats_.events_created;
    const bool was_empty = in.head == kNil;
    list_push_back(in, id);
    if (part_remote(fo.gate)) {
      // Remote receiver: the event fires in the receiving partition's heap;
      // this owner keeps a mirror record (the pending list + bookkeeping
      // above) replayed through the retirement heap, and ships the event.
      retire_push(ej, id);
      part_stage_insert(fo.gate, id, tr);
    } else if (was_empty) {
      // Only the head of a (time-ordered) pending list competes in the
      // heap; later events are promoted when they reach the front.
      queue_.enqueue(id);
    }
    track_append_spawned(live_track(), id);
    ++rec.pending;
  }
}

void Simulator::cancel_pending_event(EventId id) {
  const Event& ev = queue_.event_unchecked(id);
  const TransitionId cause = ev.transition;
  if (part_remote(ev.target.gate)) {
    // Revoke the shipped copy; the owner-side mirror is cancelled below and
    // its retirement entry is dropped lazily.
    RemoteMsg msg;
    msg.kind = RemoteMsg::Kind::kCancel;
    msg.handle = id.value();
    msg.target = ev.target;
    part_outbox_[part_of_gate_[ev.target.gate.value()]].push_back(msg);
  }
  queue_.cancel(id);
  ++stats_.events_cancelled;
  TransitionRec& rec = transitions_[cause.value()];
  debug_ensure(rec.pending > 0, "Simulator: pending-event accounting out of sync");
  --rec.pending;
  maybe_reclaim(cause);
}

RunResult Simulator::run() { return run_impl(config_.t_end); }

RunResult Simulator::run_until(TimeNs t_end) {
  return run_impl(std::min(t_end, config_.t_end));
}

void Simulator::record_into(replay::TraceRecorder* recorder) {
  require(recorder == nullptr || part_of_gate_ == nullptr,
          "Simulator::record_into(): trace recording is serial-only");
  require(recorder == nullptr || !stimulus_applied_,
          "Simulator::record_into(): attach the recorder before apply_stimulus()");
  recorder_ = recorder;
  if (recorder != nullptr) recorder->clear();
}

void Simulator::finish_recording(const RunResult& result) {
  require(recorder_ != nullptr, "Simulator::finish_recording(): no recorder attached");
  // Deterministic trace-I/O failure injection: sealing is the moment the
  // trace becomes an artifact replay sessions depend on.
  failpoint_throw("replay.trace");

  // Residual pending events, in creation order: the replayer verifies each
  // stays beyond the horizon under perturbation.
  const auto created = static_cast<std::uint32_t>(queue_.created_count());
  for (std::uint32_t e = 0; e < created; ++e) {
    const EventId id{e};
    if (queue_.state_unchecked(id) == EventState::kPending) recorder_->on_residual(id);
  }

  // Surviving-history snapshot, identical membership to history().
  std::vector<std::vector<replay::TraceHistoryEntry>> history(signal_history_.size());
  for (std::size_t s = 0; s < signal_history_.size(); ++s) {
    history[s].reserve(signal_history_[s].size());
    for (const TransitionId id : signal_history_[s]) {
      const TransitionRec& rec = transitions_[id.value()];
      if (rec.tr.cancelled) continue;
      history[s].push_back(replay::TraceHistoryEntry{
          id.value(), static_cast<std::uint8_t>(rec.tr.edge == Edge::kRise ? 1 : 0)});
    }
  }
  std::vector<std::uint8_t> initial(initial_values_.size());
  for (std::size_t s = 0; s < initial.size(); ++s) initial[s] = initial_values_[s] ? 1 : 0;

  replay::TraceStop stop = replay::TraceStop::kQueueExhausted;
  if (result.reason == StopReason::kHorizonReached) {
    stop = replay::TraceStop::kHorizonReached;
  } else if (result.reason == StopReason::kEventLimit) {
    stop = replay::TraceStop::kEventLimit;
  }

  recorder_->seal(std::move(history), std::move(initial), transitions_.size(),
                  queue_.created_count(), timing_->arcs().size(), inputs_.size(),
                  gates_.size(), config_.min_pulse_width, config_.t_end, stop);
}

RunResult Simulator::run_impl(TimeNs horizon) {
  require(stimulus_applied_, "Simulator::run(): apply_stimulus() first");
  RunResult result;
  while (!queue_.empty()) {
    const EventId eid = queue_.peek();
    const Event ev = queue_.event_unchecked(eid);  // copy: queue mutates below
    // The two random-access records this event will touch; issue the loads
    // early so the pop/list maintenance below covers their latency.
    __builtin_prefetch(&transitions_[ev.transition.value()], 0);
    __builtin_prefetch(&gates_[ev.target.gate.value()], 1);
    if (ev.time > horizon) {
      result.reason = StopReason::kHorizonReached;
      result.end_time = now_;
      return result;
    }
    if (stats_.events_processed >= config_.max_events) {
      result.reason = StopReason::kEventLimit;
      result.end_time = now_;
      return result;
    }
    InputState& in = inputs_[input_index(ev.target)];
    debug_ensure(in.head == eid.value(),
                 "Simulator: fired event is not the input's earliest pending event");
    list_remove(in, eid);
    // Pop, promoting the input's next pending event into the vacated root
    // in the same sift when there is one.
    if (in.head != kNil) {
      (void)queue_.pop_replacing(EventId{in.head});
    } else {
      (void)queue_.pop();
    }
    now_ = std::max(now_, ev.time);
    ++stats_.events_processed;
    if (supervisor_ != nullptr && --sup_countdown_ == 0) {
      // Slow path, reached every poll_events events AND exactly on the
      // first over-budget event ordinal (sup_reload() pulls the countdown
      // in), so the event-budget stop point stays bit-deterministic while
      // the hot path only decrements.  Partition mode is supervised at
      // window barriers instead (PartitionedSimulator).
      supervisor_->check_events(stats_.events_processed, "simulator");
      supervisor_->check_poll(live_tracks_,
                              transition_arena_bytes() + queue_.arena_bytes(),
                              "simulator");
      sup_countdown_ = sup_reload();
    }

    // Once any spawned event fires the causing transition can never be
    // annihilated; its bookkeeping frees as soon as nothing else needs it.
    TransitionRec& cause = transitions_[ev.transition.value()];
    debug_ensure(cause.pending > 0, "Simulator: pending-event accounting out of sync");
    cause.fired_any = 1;
    --cause.pending;
    maybe_reclaim(ev.transition);

    if (recorder_ != nullptr) {
      recorder_->on_fire(eid, static_cast<std::uint32_t>(input_index(ev.target)),
                         ev.target.gate.value());
    }
    handle_event(ev);
  }
  result.reason = StopReason::kQueueExhausted;
  result.end_time = now_;
  return result;
}

void Simulator::handle_event(const Event& ev) {
  const TransitionRec& cause = transitions_[ev.transition.value()];
  debug_ensure(!cause.tr.cancelled,
               "Simulator: fired event belongs to a cancelled transition");

  const std::size_t g = ev.target.gate.value();
  GateRec& gi = gates_[g];
  const auto pin = static_cast<std::uint32_t>(ev.target.pin);
  const std::uint8_t bit = static_cast<std::uint8_t>(1u << pin);
  const std::uint8_t old_word = gi.word;
  const bool new_value = cause.tr.final_value();
  if (((old_word >> pin) & 1u) == static_cast<unsigned>(new_value)) {
    // Can only happen after a resurrected event re-delivered a level the
    // input already holds; harmless.
    return;
  }
  // The packed perceived-input word is the whole input state; the compiled
  // truth table turns gate evaluation into one shift.
  const std::uint8_t word = old_word ^ bit;
  gi.word = word;

  ++stats_.gate_evaluations;
  const bool out = ((gi.truth >> word) & 1u) != 0;
  if (out == gi.output_value) return;
  schedule_output(ev.target.gate, ev.target.pin, ev, out);
}

void Simulator::schedule_output(GateId gate_id, int pin, const Event& ev, bool new_output) {
  GateRec& gate = gates_[gate_id.value()];
  // Only two fields of the causing transition matter here; read them before
  // any arena mutation instead of copying the whole record.
  const TimeNs tau_in = transitions_[ev.transition.value()].tr.tau;
  const TimeNs in50 = transitions_[ev.transition.value()].tr.t50();

  const TransitionId prev_id = gate.last_out;
  const bool has_prev = prev_id.valid();
  const TimeNs prev50 = has_prev ? transitions_[prev_id.value()].tr.t50() : 0.0;

  // Devirtualized delay computation: index the elaborated TimingArc of
  // (gate, pin, out-edge) -- the load is already folded in -- and evaluate
  // it inline.  This is the whole delay model on the hot path.
  const std::uint32_t arc_index =
      gate.arc_base + 2u * static_cast<std::uint32_t>(pin) + (new_output ? 0u : 1u);
  const ArcDelay delay = eval_arc(arcs_[arc_index], tau_in, ev.time, has_prev, prev50);
  TimeNs t_out50 = in50 + delay.tp;

  bool collapse = false;
  std::uint8_t rflags = has_prev ? replay::kOpHasPrev : 0;
  if (delay.filtered) {
    collapse = true;
    rflags |= replay::kOpFiltered;
    ++stats_.ddm_collapses;
  }
  if (has_prev) {
    if (!collapse && t_out50 <= prev50 + config_.min_pulse_width) {
      collapse = true;  // ordering collapse: the pulse has no width
      rflags |= replay::kOpOrdCollapse;
    }
    if (!collapse && delay.inertial_window > 0.0 &&
        (t_out50 - prev50) < delay.inertial_window) {
      collapse = true;  // CDM classical inertial filtering
      rflags |= replay::kOpInertial;
      ++stats_.cdm_inertial_filtered;
    }
  }

  if (collapse) {
    ensure(has_prev, "Simulator: collapse without a previous output transition");
    if (can_annihilate(prev_id)) {
      if (recorder_ != nullptr) {
        // The gate-eval op precedes the annihilation's cancel/resurrect ops.
        recorder_->on_gate_transition(replay::kNone, arc_index, ev.transition,
                                      prev_id.value(),
                                      rflags | replay::kOpAnnihilated);
      }
      annihilate(gate_id, prev_id);
      gate.output_value = new_output;  // back to the pre-pulse value
      return;
    }
    // Part of the fanout already consumed the previous edge: emit a
    // minimum-width pulse instead and let the receiving inputs filter it.
    t_out50 = prev50 + config_.min_pulse_width;
    rflags |= replay::kOpClamped;
    ++stats_.clamped_pulses;
  }

  const Edge out_edge = new_output ? Edge::kRise : Edge::kFall;
  const TimeNs tau_out = std::max(delay.tau_out, config_.min_pulse_width);
  const TransitionId id = create_transition(gate.output, out_edge,
                                            t_out50 - 0.5 * tau_out, tau_out, prev_id);
  if (recorder_ != nullptr) {
    recorder_->on_gate_transition(id.value(), arc_index, ev.transition,
                                  has_prev ? prev_id.value() : replay::kNone, rflags);
  }
  gate.last_out = id;
  gate.output_value = new_output;
  spawn_events(id);
}

bool Simulator::can_annihilate(TransitionId tr_id) const {
  const TransitionRec& rec = transitions_[tr_id.value()];
  if (rec.track == kNoTrackFree) return true;   // nothing ever spawned
  if (rec.track == kNoTrackDead) return false;  // an event fired long ago
  return rec.fired_any == 0;
}

void Simulator::annihilate(GateId gate_id, TransitionId tr_id) {
  TransitionRec& rec = transitions_[tr_id.value()];
  ensure(!rec.tr.cancelled, "Simulator::annihilate(): transition already cancelled");

  if (rec.track < kTrackSentinelMin) {
    const std::uint32_t t = rec.track;

    // Remove the transition's still-pending fanout events, in spawn order.
    // A cancelled head hands its heap slot to the input's next pending
    // event (heads-only heap discipline).
    const auto cancel_if_pending = [this](EventId ev_id) {
      if (queue_.state_unchecked(ev_id) != EventState::kPending) return;
      const Event ev = queue_.event_unchecked(ev_id);
      InputState& in = inputs_[input_index(ev.target)];
      const bool was_head = in.head == ev_id.value();
      list_remove(in, ev_id);
      cancel_pending_event(ev_id);
      if (recorder_ != nullptr) {
        recorder_->on_cancel(ev_id, static_cast<std::uint32_t>(input_index(ev.target)),
                             was_head);
      }
      // Mirror lists of remote inputs have no entry in this heap.
      if (was_head && in.head != kNil && !part_remote(ev.target.gate)) {
        queue_.enqueue(EventId{in.head});
      }
    };
    {
      const TrackRec& track = tracks_[t];
      const std::uint32_t inline_n =
          std::min(track.spawned_count, TrackRec::kInlineSpawned);
      for (std::uint32_t i = 0; i < inline_n; ++i) cancel_if_pending(track.spawned[i]);
    }
    for (std::uint32_t n = tracks_[t].overflow_head; n != kNil;
         n = spawn_pool_[n].next) {
      cancel_if_pending(spawn_pool_[n].id);
    }

    // The annihilated pulse never existed at the output, so pair
    // cancellations it performed at spawn time were premature: the partner
    // events (from the still-live preceding transition) must be restored.
    const std::uint32_t sup_head = tracks_[t].sup_head;
    tracks_[t].sup_head = tracks_[t].sup_tail = kNil;
    consume_pair_chain(sup_head, /*resurrect=*/true);

    reclaim_track(rec, kNoTrackDead);
  } else {
    rec.track = kNoTrackDead;  // annihilated: never resurrectable again
  }

  rec.tr.cancelled = true;
  auto& history = signal_history_[rec.tr.signal.value()];
  ensure(!history.empty() && history.back() == tr_id,
         "Simulator::annihilate(): not the most recent transition on the line");
  history.pop_back();
  gates_[gate_id.value()].last_out = rec.tr.prev;
  ++stats_.transitions_annihilated;
  ++stats_.annihilations;
}

// ---- track pool -------------------------------------------------------------

std::uint32_t Simulator::alloc_track() {
  std::uint32_t t;
  if (track_free_ != kNil) {
    t = track_free_;
    track_free_ = tracks_[t].next_free;
    // Reset only the live fields; the inline spawned array is dead storage
    // below spawned_count, so recycling never pays the full 48-byte clear.
    TrackRec& track = tracks_[t];
    track.spawned_count = 0;
    track.overflow_head = track.overflow_tail = kNil;
    track.sup_head = track.sup_tail = kNil;
    track.next_free = kNil;
  } else {
    t = static_cast<std::uint32_t>(tracks_.size());
    tracks_.emplace_back();
  }
  ++live_tracks_;
  peak_live_tracks_ = std::max(peak_live_tracks_, live_tracks_);
  return t;
}

void Simulator::track_append_spawned(std::uint32_t track_index, EventId id) {
  TrackRec& track = tracks_[track_index];
  if (track.spawned_count < TrackRec::kInlineSpawned) {
    track.spawned[track.spawned_count++] = id;
    return;
  }
  std::uint32_t n;
  if (spawn_free_ != kNil) {
    n = spawn_free_;
    spawn_free_ = spawn_pool_[n].next;
    spawn_pool_[n] = SpawnNode{id, kNil};
  } else {
    n = static_cast<std::uint32_t>(spawn_pool_.size());
    spawn_pool_.push_back(SpawnNode{id, kNil});
  }
  if (track.overflow_tail == kNil) {
    track.overflow_head = n;
  } else {
    spawn_pool_[track.overflow_tail].next = n;
  }
  track.overflow_tail = n;
  ++track.spawned_count;
}

void Simulator::track_append_pair(std::uint32_t track_index, const SuppressedPair& pair) {
  std::uint32_t n;
  if (pair_free_ != kNil) {
    n = pair_free_;
    pair_free_ = pair_pool_[n].next;
    pair_pool_[n] = PairNode{pair, kNil};
  } else {
    n = static_cast<std::uint32_t>(pair_pool_.size());
    pair_pool_.push_back(PairNode{pair, kNil});
  }
  TrackRec& track = tracks_[track_index];
  if (track.sup_tail == kNil) {
    track.sup_head = n;
  } else {
    pair_pool_[track.sup_tail].next = n;
  }
  track.sup_tail = n;
}

void Simulator::consume_pair_chain(std::uint32_t head, bool resurrect) {
  std::uint32_t n = head;
  while (n != kNil) {
    const PairNode node = pair_pool_[n];  // copy before recycling the slot
    pair_pool_[n].next = pair_free_;
    pair_free_ = n;
    n = node.next;

    const TransitionId partner = node.pair.partner_cause;
    if (resurrect && !transitions_[partner.value()].tr.cancelled) {
      const TimeNs when = std::max(node.pair.partner_time, now_);
      const EventId id = push_event(when, partner, node.pair.target);
      ++stats_.events_created;
      ++stats_.events_resurrected;
      // Keep the per-input pending list time-ordered: O(k) insert from
      // the tail instead of the seed kernel's full re-sort.  A resurrection
      // that lands at the front displaces the old head's heap slot.
      InputState& in = inputs_[input_index(node.pair.target)];
      const std::uint32_t old_head = in.head;
      list_insert_sorted(in, id);
      if (recorder_ != nullptr) {
        const EventQueue::EventLinks& links = queue_.links(id);
        recorder_->on_resurrect(id, node.pair.partner_event, links.prev, links.next,
                                static_cast<std::uint32_t>(input_index(node.pair.target)));
      }
      if (part_remote(node.pair.target.gate)) {
        // Resurrected remote event: new mirror entry, new shipped copy.
        retire_push(when, id);
        part_stage_insert(node.pair.target.gate, id, transitions_[partner.value()].tr);
      } else if (in.head != old_head) {
        if (old_head != kNil) queue_.dequeue(EventId{old_head});
        queue_.enqueue(id);
      }
      TransitionRec& pc = transitions_[partner.value()];
      ensure(pc.track < kTrackSentinelMin,
             "Simulator: partner bookkeeping already reclaimed");
      track_append_spawned(pc.track, id);
      ++pc.pending;
    }
    TransitionRec& pc = transitions_[partner.value()];
    debug_ensure(pc.partner_refs > 0, "Simulator: suppressed-pair refcount out of sync");
    --pc.partner_refs;
    maybe_reclaim(partner);
  }
}

void Simulator::reclaim_track(TransitionRec& rec, std::uint32_t sentinel) {
  const std::uint32_t t = rec.track;
  ensure(t < kTrackSentinelMin, "Simulator::reclaim_track(): no live track");
  rec.track = sentinel;  // before any cascade: breaks reclamation cycles

  // Recycle the spawned-overflow chain.
  std::uint32_t n = tracks_[t].overflow_head;
  while (n != kNil) {
    const std::uint32_t next = spawn_pool_[n].next;
    spawn_pool_[n].next = spawn_free_;
    spawn_free_ = n;
    n = next;
  }

  // Unconsumed suppressed pairs will never resurrect anything (this
  // transition can no longer be annihilated): release the partner
  // references, cascading reclamation into partners that were only kept
  // alive by them.
  consume_pair_chain(tracks_[t].sup_head, /*resurrect=*/false);

  // The stale contents stay in place; alloc_track() resets the live fields
  // when the slot is reused.
  tracks_[t].next_free = track_free_;
  track_free_ = t;
  debug_ensure(live_tracks_ > 0, "Simulator: live-track accounting out of sync");
  --live_tracks_;
}

void Simulator::maybe_reclaim(TransitionId id) {
  TransitionRec& rec = transitions_[id.value()];
  if (rec.track >= kTrackSentinelMin) return;  // already reclaimed
  if (rec.pending != 0 || rec.partner_refs != 0 || rec.fired_any == 0) return;
  reclaim_track(rec, kNoTrackDead);
}

// ---- pending lists ----------------------------------------------------------

EventId Simulator::push_event(TimeNs time, TransitionId transition, PinRef target) {
  // Arena-only creation: heap scheduling is the caller's decision (only
  // pending-list heads live in the heap).  The pending-list links live in
  // the event's own queue record (EventQueue::links), initialized unlinked.
  return queue_.create(time, transition, target);
}

void Simulator::list_push_back(InputState& in, EventId id) {
  const std::uint32_t v = id.value();
  queue_.links(id) = EvLink{in.tail, kNil};
  if (in.tail == kNil) {
    in.head = v;
  } else {
    queue_.links(EventId{in.tail}).next = v;
  }
  in.tail = v;
}

void Simulator::list_remove(InputState& in, EventId id) {
  const std::uint32_t v = id.value();
  const EvLink link = queue_.links(id);
  if (link.prev == kNil) {
    debug_ensure(in.head == v, "Simulator: pending list out of sync");
    in.head = link.next;
  } else {
    queue_.links(EventId{link.prev}).next = link.next;
  }
  if (link.next == kNil) {
    debug_ensure(in.tail == v, "Simulator: pending list out of sync");
    in.tail = link.prev;
  } else {
    queue_.links(EventId{link.next}).prev = link.prev;
  }
  queue_.links(id) = EvLink{};
}

void Simulator::list_insert_sorted(InputState& in, EventId id) {
  const Event& nev = queue_.event_unchecked(id);
  const std::uint32_t v_new = id.value();
  std::uint32_t after = in.tail;
  while (after != kNil) {
    const Event& cev = queue_.event_unchecked(EventId{after});
    // Ids are creation-ordered, so (time, id) is the paper's (time, seq).
    if (cev.time < nev.time || (cev.time == nev.time && after < v_new)) break;
    after = queue_.links(EventId{after}).prev;
  }
  const std::uint32_t v = id.value();
  if (after == kNil) {  // new head
    queue_.links(id) = EvLink{kNil, in.head};
    if (in.head == kNil) {
      in.tail = v;
    } else {
      queue_.links(EventId{in.head}).prev = v;
    }
    in.head = v;
  } else {
    const std::uint32_t next = queue_.links(EventId{after}).next;
    queue_.links(id) = EvLink{after, next};
    queue_.links(EventId{after}).next = v;
    if (next == kNil) {
      in.tail = v;
    } else {
      queue_.links(EventId{next}).prev = v;
    }
  }
}

// ---- results ----------------------------------------------------------------

bool Simulator::initial_value(SignalId signal) const {
  return initial_values_.at(signal.value());
}

bool Simulator::final_value(SignalId signal) const {
  const auto& history = signal_history_.at(signal.value());
  if (history.empty()) return initial_values_[signal.value()];
  return transitions_[history.back().value()].tr.final_value();
}

std::vector<Transition> Simulator::history(SignalId signal) const {
  std::vector<Transition> out;
  for (TransitionId id : signal_history_.at(signal.value())) {
    const TransitionRec& rec = transitions_[id.value()];
    if (!rec.tr.cancelled) out.push_back(rec.tr);
  }
  return out;
}

bool Simulator::value_at(SignalId signal, TimeNs t) const {
  const auto& history = signal_history_.at(signal.value());
  for (auto it = history.rbegin(); it != history.rend(); ++it) {
    const TransitionRec& rec = transitions_[it->value()];
    if (rec.tr.cancelled) continue;
    if (rec.tr.t50() <= t) return rec.tr.final_value();
  }
  return initial_values_[signal.value()];
}

std::size_t Simulator::toggle_count(SignalId signal) const {
  return signal_history_.at(signal.value()).size();
}

std::uint64_t Simulator::total_activity() const {
  std::uint64_t total = 0;
  for (const auto& history : signal_history_) total += history.size();
  return total;
}

bool Simulator::perceived_value(const PinRef& pin) const {
  require(pin.gate.valid() && pin.gate.value() < gates_.size(),
          "Simulator::perceived_value(): gate out of range");
  const GateRec& gi = gates_[pin.gate.value()];
  require(pin.pin >= 0 && pin.pin < static_cast<int>(gi.num_inputs),
          "Simulator::perceived_value(): pin out of range");
  return ((gi.word >> static_cast<unsigned>(pin.pin)) & 1u) != 0;
}

std::uint64_t Simulator::transition_arena_bytes() const {
  return transitions_.capacity() * sizeof(TransitionRec) +
         tracks_.capacity() * sizeof(TrackRec) +
         spawn_pool_.capacity() * sizeof(SpawnNode) +
         pair_pool_.capacity() * sizeof(PairNode);
}

// ---- partitioned-mode hooks (PR 6) ------------------------------------------

std::uint32_t Simulator::part_owner_of_signal(SignalId signal) const {
  const Signal& sig = netlist_->signal(signal);
  if (sig.driver.valid()) return part_of_gate_[sig.driver.value()];
  if (!sig.fanout.empty()) return part_of_gate_[sig.fanout.front().gate.value()];
  return 0;
}

void Simulator::part_attach(std::uint32_t self, std::uint32_t count,
                            const std::uint32_t* gate_part,
                            std::vector<RemoteMsg>* outbox) {
  require(!stimulus_applied_,
          "Simulator::part_attach(): must attach before apply_stimulus()");
  require(gate_part != nullptr && outbox != nullptr && self < count,
          "Simulator::part_attach(): invalid partition attachment");
  part_self_ = self;
  part_count_ = count;
  part_of_gate_ = gate_part;
  part_outbox_ = outbox;
  part_handle_map_.assign(count, {});
  part_cause_map_.assign(count, {});
}

void Simulator::part_stage_insert(GateId gate, EventId id, const Transition& tr) {
  const Event& ev = queue_.event_unchecked(id);
  RemoteMsg msg;
  msg.kind = RemoteMsg::Kind::kInsert;
  msg.edge = tr.edge;
  msg.target = ev.target;
  msg.handle = id.value();
  msg.cause = ev.transition.value();
  msg.signal = tr.signal;
  msg.time = ev.time;
  msg.t_start = tr.t_start;
  msg.tau = tr.tau;
  part_outbox_[part_of_gate_[gate.value()]].push_back(msg);
}

void Simulator::retire_push(TimeNs time, EventId id) {
  retire_.push_back(RetireSlot{time, id.value()});
  std::push_heap(retire_.begin(), retire_.end(), retire_later);
}

void Simulator::retire_prune() {
  while (!retire_.empty() &&
         queue_.state_unchecked(EventId{retire_.front().id}) != EventState::kPending) {
    std::pop_heap(retire_.begin(), retire_.end(), retire_later);
    retire_.pop_back();
  }
}

void Simulator::retire_shadow(EventId id) {
  const Event ev = queue_.event_unchecked(id);
  InputState& in = inputs_[input_index(ev.target)];
  debug_ensure(in.head == id.value(),
               "Simulator: retired mirror event is not its list's earliest");
  list_remove(in, id);
  queue_.mark_fired_unscheduled(id);
  // The receiving partition evaluates the gate and counts the processing;
  // this owner replays only the lifecycle bookkeeping the serial kernel
  // would have performed at this instant.
  now_ = std::max(now_, ev.time);
  TransitionRec& cause = transitions_[ev.transition.value()];
  debug_ensure(cause.pending > 0, "Simulator: pending-event accounting out of sync");
  cause.fired_any = 1;
  --cause.pending;
  maybe_reclaim(ev.transition);
}

TimeNs Simulator::part_next_time() {
  retire_prune();
  TimeNs t = kNeverNs;
  if (!queue_.empty()) t = queue_.event_unchecked(queue_.peek()).time;
  if (!retire_.empty()) t = std::min(t, retire_.front().time);
  return t;
}

void Simulator::part_run_window(TimeNs w_end) {
  require(stimulus_applied_, "Simulator::part_run_window(): apply_stimulus() first");
  while (true) {
    retire_prune();
    const bool have_main = !queue_.empty();
    if (!retire_.empty()) {
      // Interleave owner-side retirements with local firings in the exact
      // (time, id) order the serial kernel fires them: both live in this
      // partition's event-id space.
      const RetireSlot slot = retire_.front();
      bool retire_first = true;
      if (have_main) {
        const EventId mid = queue_.peek();
        const Event& mev = queue_.event_unchecked(mid);
        retire_first = slot.time < mev.time ||
                       (slot.time == mev.time && slot.id < mid.value());
      }
      if (retire_first) {
        if (slot.time >= w_end) return;
        std::pop_heap(retire_.begin(), retire_.end(), retire_later);
        retire_.pop_back();
        retire_shadow(EventId{slot.id});
        continue;
      }
    } else if (!have_main) {
      return;
    }
    const EventId eid = queue_.peek();
    const Event ev = queue_.event_unchecked(eid);  // copy: queue mutates below
    if (ev.time >= w_end) return;
    __builtin_prefetch(&transitions_[ev.transition.value()], 0);
    __builtin_prefetch(&gates_[ev.target.gate.value()], 1);
    {
      // Cross-channel simultaneity tie (see part_tie_violations()): another
      // pending event at this gate with the bit-equal time whose cause is
      // owned by a different partition.  The serial kernel orders the pair
      // by global creation sequence, which no partition can reconstruct;
      // count it and keep going -- the driver discards this run.
      const GateRec& gi = gates_[ev.target.gate.value()];
      for (std::uint32_t p = 0; p < gi.num_inputs; ++p) {
        if (static_cast<int>(p) == ev.target.pin) continue;
        const std::uint32_t h = inputs_[gi.input_base + p].head;
        if (h == kNil) continue;
        const Event& other = queue_.event_unchecked(EventId{h});
        if (other.time != ev.time) continue;
        const SignalId sa = transitions_[ev.transition.value()].tr.signal;
        const SignalId sb = transitions_[other.transition.value()].tr.signal;
        if (sa != sb && part_owner_of_signal(sa) != part_owner_of_signal(sb)) {
          ++part_tie_violations_;
        }
      }
    }
    InputState& in = inputs_[input_index(ev.target)];
    debug_ensure(in.head == eid.value(),
                 "Simulator: fired event is not the input's earliest pending event");
    list_remove(in, eid);
    if (in.head != kNil) {
      (void)queue_.pop_replacing(EventId{in.head});
    } else {
      (void)queue_.pop();
    }
    now_ = std::max(now_, ev.time);
    ++stats_.events_processed;
    TransitionRec& cause = transitions_[ev.transition.value()];
    debug_ensure(cause.pending > 0, "Simulator: pending-event accounting out of sync");
    cause.fired_any = 1;
    --cause.pending;
    maybe_reclaim(ev.transition);
    handle_event(ev);
  }
}

Simulator::InboxResult Simulator::part_apply_inbox(std::uint32_t src,
                                                   std::span<const RemoteMsg> msgs,
                                                   TimeNs prev_w_end) {
  InboxResult violations;
  auto& handle_map = part_handle_map_[src];
  auto& cause_map = part_cause_map_[src];
  for (const RemoteMsg& msg : msgs) {
    if (msg.kind == RemoteMsg::Kind::kInsert) {
      if (msg.time < prev_w_end) {
        // The event belongs to a window this partition already simulated:
        // the conservative lookahead was insufficient (a degraded or
        // clamped boundary pulse).  The driver reruns serially.
        ++violations.late_inserts;
        continue;
      }
      TransitionId cause;
      if (const auto it = cause_map.find(msg.cause); it != cause_map.end()) {
        cause = TransitionId{it->second};
      } else {
        // Local copy of the causing transition: just the POD the receiver
        // needs to evaluate gates.  Lifecycle decisions stay with the
        // owner, so the copy carries no bookkeeping slot and never joins a
        // signal history.
        cause = TransitionId{static_cast<TransitionId::underlying_type>(transitions_.size())};
        TransitionRec rec;
        rec.tr.signal = msg.signal;
        rec.tr.edge = msg.edge;
        rec.tr.t_start = msg.t_start;
        rec.tr.tau = msg.tau;
        rec.track = kNoTrackDead;
        transitions_.push_back(rec);
        cause_map.emplace(msg.cause, cause.value());
      }
      const EventId id = queue_.create(msg.time, cause, msg.target);
      handle_map.emplace(msg.handle, id.value());
      ++transitions_[cause.value()].pending;
      InputState& in = inputs_[input_index(msg.target)];
      const std::uint32_t old_head = in.head;
      list_insert_sorted(in, id);
      if (in.head != old_head) {
        if (old_head != kNil) queue_.dequeue(EventId{old_head});
        queue_.enqueue(id);
      }
    } else {
      const auto it = handle_map.find(msg.handle);
      if (it == handle_map.end()) {
        ++violations.late_inserts;  // its insert was itself dropped
        continue;
      }
      const EventId id{it->second};
      handle_map.erase(it);
      if (queue_.state_unchecked(id) != EventState::kPending) {
        ++violations.late_cancels;  // fired before the revocation arrived
        continue;
      }
      const Event ev = queue_.event_unchecked(id);
      InputState& in = inputs_[input_index(ev.target)];
      const bool was_head = in.head == id.value();
      list_remove(in, id);
      // No stats: the owning partition already counted the cancellation.
      queue_.cancel(id);
      TransitionRec& rec = transitions_[ev.transition.value()];
      debug_ensure(rec.pending > 0, "Simulator: remote pending accounting out of sync");
      --rec.pending;
      if (was_head && in.head != kNil) queue_.enqueue(EventId{in.head});
    }
  }
  return violations;
}

std::vector<SignalId> Simulator::most_active_signals(std::size_t n) const {
  std::vector<SignalId> ids;
  ids.reserve(signal_history_.size());
  for (std::size_t s = 0; s < signal_history_.size(); ++s) {
    ids.push_back(SignalId{static_cast<SignalId::underlying_type>(s)});
  }
  std::sort(ids.begin(), ids.end(), [this](SignalId a, SignalId b) {
    const auto ta = signal_history_[a.value()].size();
    const auto tb = signal_history_[b.value()].size();
    return ta != tb ? ta > tb : a < b;
  });
  if (ids.size() > n) ids.resize(n);
  return ids;
}

}  // namespace halotis
