#include "src/replay/replayer.hpp"

#include <algorithm>

#include "src/base/check.hpp"
#include "src/replay/history_hash.hpp"

namespace halotis::replay {

namespace {

/// The pre-run stimulus phase: every op before the first kFire.
inline constexpr std::uint32_t kPreRun = 0;

}  // namespace

TraceReplayer::TraceReplayer(const Trace& trace) : trace_(&trace) {
  require(trace.replayable, "TraceReplayer: trace is not sealed as replayable");
  tr_.resize(trace.num_transitions);
  ev_.resize(trace.num_events);
  birth_.resize(trace.num_events);
  last_list_.resize(trace.num_inputs);
  last_gate_.resize(trace.num_gates);
  // Stimulus ramps are fixed (never perturbed) and their transition slots
  // are never overwritten by gate ops, so one application outlives every
  // replay() walk.
  for (const StimInit& s : trace.stim) {
    tr_[s.transition] = Ramp{s.t_start, s.tau};
  }
  // Creation records are a function of the op sequence alone -- which fire
  // (by ordinal and event) executes each creating op, and the creation
  // index within that fire -- so they are precomputed once per trace.
  std::uint32_t s_cur = kPreRun;
  std::uint32_t e_cur = kNone;
  std::uint32_t birth_idx = 0;
  for (const TraceOp& op : trace.ops) {
    switch (op.kind) {
      case OpKind::kFire:
        ++s_cur;
        e_cur = op.a;
        birth_idx = 0;
        break;
      case OpKind::kSpawn:
      case OpKind::kResurrect:
        birth_[op.a] = BirthMeta{s_cur, birth_idx++, e_cur};
        break;
      default:
        break;
    }
  }
}

bool TraceReplayer::replay(std::span<const TimingArc> arcs,
                           const RunSupervisor* supervisor) {
  require(arcs.size() == trace_->num_arcs,
          "TraceReplayer::replay(): arc table size differs from the recording graph");
  have_times_ = false;

  const TimeNs mpw = trace_->min_pulse_width;
  const TimeNs horizon = trace_->horizon;
  std::fill(last_list_.begin(), last_list_.end(), Touch{});
  std::fill(last_gate_.begin(), last_gate_.end(), Touch{});

  // The currently executing fire.  The kernel processes every event with
  // now_ equal to the event's own time (pops are time-sorted), so `now` is
  // the current fire's perturbed time, not a running maximum.
  TimeNs now = 0.0;
  std::uint32_t s_cur = kPreRun;  // fire ordinal (0 = stimulus phase)
  std::uint32_t e_cur = kNone;    // current fire's event
  std::uint32_t n_fires = 0;

  // True when event x is provably created after event y in *every*
  // execution consistent with the certified op order -- i.e. x's creation
  // id (the kernel's equal-time tie-break) is provably larger.  Creation
  // order equals the creating fires' pop order; fires tied at the same
  // perturbed time pop in *their* creation-id order, so the proof walks up
  // the creation chain until the tie resolves (distinct birth times, a
  // shared creating fire, or the fixed-order pre-run phase).
  const auto certified_after = [&](std::uint32_t x, std::uint32_t y) -> bool {
    while (true) {
      const BirthMeta& bx = birth_[x];
      const BirthMeta& by = birth_[y];
      if (bx.seq == by.seq) return bx.idx > by.idx;  // same fire: order fixed
      if (bx.seq == kPreRun) return false;           // pre-run precedes fires
      if (by.seq == kPreRun) return true;
      // The creating fire's pop time is its event's own recomputed time
      // (event slots are written once, before the creator pops).
      const TimeNs btx = ev_[bx.born_of];
      const TimeNs bty = ev_[by.born_of];
      if (btx != bty) return btx > bty;
      x = bx.born_of;  // creators tied: their pop order is their creation order
      y = by.born_of;
    }
  };

  // Serializes ops on one resource: the current fire must provably come
  // after the resource's previous toucher.  Pre-run ops precede every fire
  // and run in a fixed (delay-independent) order among themselves.  The
  // strictly-earlier test leads: it is the overwhelmingly common outcome.
  const auto touch = [&](Touch& last) -> bool {
    const bool ok = last.time < now || last.seq == s_cur || last.seq == kNone ||
                    last.seq == kPreRun ||
                    (last.time == now && certified_after(e_cur, last.ev));
    last = Touch{now, s_cur, e_cur};
    return ok;
  };

  // A cancelled list head is live in the heap; the perturbed run must not
  // have popped it before the current instant.
  const auto head_still_pending = [&](std::uint32_t a) -> bool {
    if (s_cur == kPreRun) return true;  // nothing pops before the run starts
    return ev_[a] > now || (ev_[a] == now && certified_after(a, e_cur));
  };

  const std::vector<TraceOp>& ops = trace_->ops;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if ((i & 0xFFFFu) == 0u && supervisor != nullptr) {
      supervisor->check_coarse("replay");
    }
    const TraceOp& op = ops[i];
    switch (op.kind) {
      case OpKind::kSpawn: {
        // Same expression shape as Simulator::spawn_events so FP contraction
        // matches: crossing = t_start + tau * fraction.
        const Ramp& cause = tr_[op.b];
        TimeNs ej = cause.t_start + cause.tau * op.x;
        // Pair rule must still have let this event through: it must come
        // strictly after the pending tail of the same input's list.
        if (op.c != kNone && !(ej > ev_[op.c])) {
          return false;
        }
        if (!touch(last_list_[op.d])) {
          return false;
        }
        if (ej < now) ej = now;  // the kernel's causality clamp
        ev_[op.a] = ej;
        break;
      }

      case OpKind::kPairCancel: {
        // The recorded run cancelled the pending tail `a` because the new
        // crossing did not come after it; a cancelled head must also still
        // be pending (not yet popped) at this instant.
        const Ramp& cause = tr_[op.b];
        const TimeNs ej = cause.t_start + cause.tau * op.x;
        if (!(ej <= ev_[op.a])) {
          return false;
        }
        if (!touch(last_list_[op.c])) {
          return false;
        }
        if ((op.flags & kOpWasHead) != 0 && !head_still_pending(op.a)) {
          return false;
        }
        break;
      }

      case OpKind::kFire: {
        const TimeNs t = ev_[op.a];
        if (t > horizon) {
          return false;
        }
        ++n_fires;
        s_cur = n_fires;
        e_cur = op.a;
        now = t;
        // The pop must keep its recorded order against everything touching
        // the same pending list and the same gate's input/output state.
        if (!touch(last_list_[op.b]) || !touch(last_gate_[op.c])) {
          return false;
        }
        break;
      }

      case OpKind::kGateTr: {
        const bool has_prev = (op.flags & kOpHasPrev) != 0;
        const Ramp& cause = tr_[op.c];
        const TimeNs tau_in = cause.tau;
        const TimeNs in50 = cause.t_start + 0.5 * cause.tau;
        const TimeNs prev50 =
            has_prev ? tr_[op.d].t_start + 0.5 * tr_[op.d].tau : 0.0;
        const ArcDelay delay = eval_arc(arcs[op.b], tau_in, now, has_prev, prev50);
        TimeNs t_out50 = in50 + delay.tp;

        // Re-take schedule_output()'s collapse decisions; each must agree
        // with the recorded branch or the schedule is invalid.
        if (delay.filtered != ((op.flags & kOpFiltered) != 0)) {
          return false;
        }
        bool collapse = delay.filtered;
        if (has_prev) {
          if (!collapse) {
            const bool ord = t_out50 <= prev50 + mpw;
            if (ord != ((op.flags & kOpOrdCollapse) != 0)) {
              return false;
            }
            collapse = collapse || ord;
          }
          if (!collapse) {
            const bool inertial = delay.inertial_window > 0.0 &&
                                  (t_out50 - prev50) < delay.inertial_window;
            if (inertial != ((op.flags & kOpInertial) != 0)) {
              return false;
            }
            collapse = collapse || inertial;
          }
        }
        if ((op.flags & kOpAnnihilated) != 0) {
          break;  // collapse removed the previous output; no new transition
        }
        if ((op.flags & kOpClamped) != 0) {
          t_out50 = prev50 + mpw;
        }
        const TimeNs tau_out = std::max(delay.tau_out, mpw);
        tr_[op.a] = Ramp{t_out50 - 0.5 * tau_out, tau_out};
        break;
      }

      case OpKind::kCancel:
        // Annihilation cancelled a spawned event; a cancelled head must
        // still be pending (a non-head is covered by list serialization).
        if (!touch(last_list_[op.b])) {
          return false;
        }
        if ((op.flags & kOpWasHead) != 0 && !head_still_pending(op.a)) {
          return false;
        }
        break;

      case OpKind::kResurrect: {
        const auto input = static_cast<std::uint32_t>(op.x);
        // Same expression as consume_pair_chain: when = max(partner, now).
        const TimeNs when = std::max(ev_[op.b], now);
        ev_[op.a] = when;
        if (!touch(last_list_[input])) {
          return false;
        }
        // The sorted re-insert must land between the same neighbours.  The
        // new event's id is globally newest, so list_insert_sorted places
        // it after the last node with time <= when: the recorded neighbours
        // are kept iff prev <= when < next.
        if (op.c != kNone && !(ev_[op.c] <= when)) {
          return false;
        }
        if (op.d != kNone && !(ev_[op.d] > when)) {
          return false;
        }
        break;
      }

      case OpKind::kResidual:
        // Still pending at the stop point: must remain beyond the horizon.
        if (!(ev_[op.a] > horizon)) {
          return false;
        }
        break;
    }
  }

  have_times_ = true;
  return true;
}

std::uint64_t TraceReplayer::history_hash() const {
  require(have_times_, "TraceReplayer::history_hash(): no successful replay");
  std::uint64_t hash = kFnvOffset;
  for (std::size_t s = 0; s < trace_->history.size(); ++s) {
    const SignalId id{static_cast<SignalId::underlying_type>(s)};
    hash = hash_signal_header(hash, id);
    for (const TraceHistoryEntry& e : trace_->history[s]) {
      const Edge edge = e.rise != 0 ? Edge::kRise : Edge::kFall;
      hash = hash_transition(hash, edge, tr_[e.transition].t_start,
                             tr_[e.transition].tau);
    }
  }
  return hash;
}

TimeNs TraceReplayer::latest_t50(std::span<const SignalId> signals) const {
  require(have_times_, "TraceReplayer::latest_t50(): no successful replay");
  TimeNs latest = 0.0;
  for (const SignalId s : signals) {
    require(s.value() < trace_->history.size(),
            "TraceReplayer::latest_t50(): signal out of range");
    const std::vector<TraceHistoryEntry>& entries = trace_->history[s.value()];
    if (entries.empty()) continue;
    const TraceHistoryEntry& e = entries.back();
    const TimeNs t50 = tr_[e.transition].t_start + 0.5 * tr_[e.transition].tau;
    latest = std::max(latest, t50);
  }
  return latest;
}

}  // namespace halotis::replay
