// TraceReplayer: re-times a recorded causal trace under perturbed arcs.
//
// The replayer owns per-sample state (recomputed transition ramps and
// event times) and walks the shared, immutable Trace.  Every op either
// recomputes a time through the exact floating-point expressions the
// kernel used -- so a passing replay is bit-identical to a full run --
// or checks that a recorded ordering / filtering decision still holds:
//
//   kSpawn        the new crossing still comes after the pending tail
//   kPairCancel   ... and the pair rule still fires the other way round,
//                 with a cancelled head not yet due
//   kFire         within horizon; the pop keeps its recorded order
//                 against every earlier op on the same pending list and
//                 the same gate (commuting fires are free to reorder)
//   kCancel       a cancelled head is still pending at that instant
//   kResurrect    the sorted re-insert lands between the same neighbours
//   kGateTr       eval_arc reproduces the recorded DDM filter / ordering
//                 / inertial-window collapse decisions
//   kResidual     still beyond the horizon at the stop point
//
// Dependent-order certification: ops touching the same resource (one
// input's pending list, or one gate's input-level/output state) must keep
// their recorded relative order in the perturbed run.  Strictly increasing
// times certify themselves; equal times are certified through the kernel's
// (time, creation id) tie-break using each event's *birth record* -- ids
// are assigned in creation order, so "created during a later-popping fire"
// or "created later within the same fire" proves the larger id.  Anything
// not certifiable fails the replay (sound, conservative).
//
// Any violated check means the perturbed run may have diverged from the
// recorded schedule: replay() returns false and the caller falls back to
// full event simulation.  State buffers are reused across replay() calls,
// so a session evaluates thousands of samples with zero allocation.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/base/supervision.hpp"
#include "src/base/units.hpp"
#include "src/replay/trace.hpp"
#include "src/timing/timing_arc.hpp"

namespace halotis::replay {

class TraceReplayer {
 public:
  /// `trace` must be sealed (replayable) and outlive the replayer.
  explicit TraceReplayer(const Trace& trace);

  /// Walks the trace under `arcs` (same layout as the recording graph's
  /// arcs() -- trace.num_arcs entries).  Returns false on the first
  /// violated check; the recomputed times are then meaningless.
  /// `supervisor` (optional) is polled coarsely every ~64k ops.
  [[nodiscard]] bool replay(std::span<const TimingArc> arcs,
                            const RunSupervisor* supervisor = nullptr);

  // ---- results (valid only after replay() returned ok) ----------------------

  /// The canonical waveform hash (history_hash.hpp) over the recomputed
  /// surviving history -- bit-identical to hash_sim_history of a full run
  /// with the same arcs.
  [[nodiscard]] std::uint64_t history_hash() const;

  /// Latest surviving t50 over `signals` (0.0 when none transitioned).
  [[nodiscard]] TimeNs latest_t50(std::span<const SignalId> signals) const;

  [[nodiscard]] const Trace& trace() const { return *trace_; }

 private:
  /// Recomputed ramp of one transition (one cache line per access: the walk
  /// always reads/writes t_start and tau together).
  struct Ramp {
    TimeNs t_start = 0.0;
    TimeNs tau = 0.0;
  };
  /// Delay-independent creation record (precomputed once per trace): which
  /// fire created the event and at which in-fire creation index.  The
  /// creating fire's perturbed pop time needs no separate storage: event
  /// slots are written once and never reused, so it is simply the creator
  /// event's own recomputed time.  Together these order creation ids --
  /// the kernel's equal-time (time, creation id) tie-break.
  struct BirthMeta {
    std::uint32_t seq = 0;    ///< creating fire ordinal (0 = pre-run phase)
    std::uint32_t idx = 0;    ///< creation counter within that fire
    std::uint32_t born_of = kNone;  ///< the creating fire's event (kNone pre-run)
  };
  /// Last op that touched a serialization resource.
  struct Touch {
    TimeNs time = 0.0;
    std::uint32_t seq = kNone;  ///< executing fire ordinal; kNone = untouched
    std::uint32_t ev = kNone;   ///< executing fire's event
  };

  const Trace* trace_;
  std::vector<Ramp> tr_;          ///< recomputed ramps, per transition
  std::vector<TimeNs> ev_;        ///< recomputed (clamped) event times
  std::vector<BirthMeta> birth_;  ///< static creation records, per event
  std::vector<Touch> last_list_;  ///< per-input serialization clocks
  std::vector<Touch> last_gate_;  ///< per-gate serialization clocks
  bool have_times_ = false;
};

}  // namespace halotis::replay
