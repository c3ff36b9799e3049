#include "src/replay/resim.hpp"

#include <algorithm>

#include "src/base/check.hpp"
#include "src/base/failpoint.hpp"
#include "src/replay/history_hash.hpp"

namespace halotis::replay {

ResimEngine::ResimEngine(const Netlist& netlist, const DelayModel& model,
                         const Stimulus& stimulus, SimConfig config)
    : netlist_(&netlist),
      model_(&model),
      stimulus_(&stimulus),
      config_(config),
      base_graph_(TimingGraph::build(netlist, model.timing_policy())) {}

TimingGraph& ResimEngine::base_graph_mutable() {
  require(!recorded_, "ResimEngine::base_graph_mutable(): trace already recorded");
  return base_graph_;
}

void ResimEngine::record(const RunSupervisor* supervisor) {
  require(!recorded_, "ResimEngine::record(): already recorded");
  Simulator sim(*netlist_, *model_, base_graph_, config_);
  sim.record_into(&recorder_);
  sim.supervise(supervisor);
  sim.apply_stimulus(*stimulus_);
  base_result_ = sim.run();
  sim.finish_recording(base_result_);
  base_stats_ = sim.stats();
  recorded_ = true;
}

ResimSession::ResimSession(const ResimEngine& engine) : engine_(&engine) {
  require(engine.recorded(), "ResimSession: engine has not recorded a trace");
  if (engine.trace().replayable) {
    replayer_ = std::make_unique<TraceReplayer>(engine.trace());
  }
}

ResimSample ResimSession::evaluate(const TimingGraph& graph,
                                   std::span<const SignalId> observed, bool want_hash,
                                   const RunSupervisor* supervisor) {
  ++evaluated_;
  if (replayer_ != nullptr && replayer_->replay(graph.arcs(), supervisor)) {
    ResimSample sample;
    if (want_hash) sample.history_hash = replayer_->history_hash();
    sample.critical_t50 = replayer_->latest_t50(observed);
    return sample;
  }

  // A recorded decision no longer holds under this perturbation (or the
  // trace was never replayable): from-scratch full event simulation, which
  // is always bit-exact by definition.
  failpoint_throw("replay.fallback");
  ++fallbacks_;
  Simulator sim(engine_->netlist(), engine_->model(), graph, engine_->config());
  sim.supervise(supervisor);
  sim.apply_stimulus(engine_->stimulus());
  (void)sim.run();
  ResimSample sample;
  sample.fallback = true;
  if (want_hash) sample.history_hash = hash_sim_history(sim);
  sample.critical_t50 = latest_t50(sim, observed);
  return sample;
}

TimeNs latest_t50(const Simulator& sim, std::span<const SignalId> signals) {
  TimeNs latest = 0.0;
  for (const SignalId s : signals) {
    const std::vector<Transition> history = sim.history(s);
    if (history.empty()) continue;
    latest = std::max(latest, history.back().t50());
  }
  return latest;
}

}  // namespace halotis::replay
