// Trace 1: the workload's ops in-process, calling each layer's public
// function in the order cli.cpp does, with a span around every call.
//
// Every traced op also runs untraced through run_cli (the daemon's
// executor, run_cli_service, on daemon_requests) and as a real process, so
// the trace can be compared with what a user sees: process overhead is the
// process time minus the in-process time of the same argv, and the
// tracing overhead is the traced in-process time over the untraced one.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>

#include "perfbench/src/bench.hpp"
#include "src/core/delay_model.hpp"
#include "src/core/partition.hpp"
#include "src/core/simulator.hpp"
#include "src/fault/campaign.hpp"
#include "src/lint/lint.hpp"
#include "src/netlist/library.hpp"
#include "src/parsers/bench_format.hpp"
#include "src/parsers/stimulus_file.hpp"
#include "src/replay/history_hash.hpp"
#include "src/replay/variation.hpp"
#include "src/serve/client.hpp"
#include "src/serve/elab_cache.hpp"
#include "src/serve/elaboration.hpp"
#include "src/serve/service.hpp"
#include "src/sta/sta.hpp"
#include "src/timing/timing_graph.hpp"
#include "src/tools/cli.hpp"
#include "src/waveform/vcd.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
namespace hz = halotis;

/// Spans kept in memory and aggregated when the run ends.  A span's parent
/// is the span open when it started; spans of one op share its op id.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    int op = -1;
  };

  /// Runs `f` inside a span named `name` and returns its result.
  template <class F>
  decltype(auto) span(const std::string& name, F&& f) {
    const int id = open(name);
    const Closer closer{this, id};
    return f();
  }
  void set_op(int op) { op_ = op; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Duration minus the time its direct children cover, per span.
  [[nodiscard]] std::vector<double> self_times() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].end - spans_[i].start;
    for (const Span& s : spans_) {
      if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
    }
    return self;
  }

 private:
  struct Closer {
    Tracer* tracer;
    int id;
    ~Closer() {
      Span& s = tracer->spans_[static_cast<std::size_t>(id)];
      s.end = tracer->now();
      tracer->current_ = s.parent;
    }
  };
  int open(const std::string& name) {
    spans_.push_back(Span{name, now(), 0.0, current_, op_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  int current_ = -1;
  int op_ = -1;
};

/// Deterministic counters, taken from the first pass over the traced ops
/// only, so they repeat exactly for a seed whatever the run length.
struct Counters {
  hz::SimStats sim;
  std::uint64_t peak_live_transitions = 0;
  std::uint64_t arena_bytes = 0;
  hz::WindowStats windows;
  std::uint64_t partition_events = 0;
  std::uint64_t variation_rows = 0;
  std::uint64_t variation_fallbacks = 0;
  std::uint64_t lint_findings = 0;
};

const hz::Library& library() {
  static const hz::Library lib = hz::Library::default_u6();
  return lib;
}

std::unique_ptr<hz::DelayModel> make_model(const std::string& name) {
  if (name == "cdm") return std::make_unique<hz::CdmDelayModel>();
  return std::make_unique<hz::DdmDelayModel>();
}


std::string arg_value(const Op& op, const std::string& flag) {
  const auto it = std::find(op.args.begin(), op.args.end(), flag);
  return it != op.args.end() && it + 1 != op.args.end() ? *(it + 1) : std::string();
}

std::string hex64(std::uint64_t v) {
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "%016llx", static_cast<unsigned long long>(v));
  return buffer;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

class TracedRun {
 public:
  explicit TracedRun(Context& ctx) : ctx_(ctx), untraced_cache_(256u << 20) {}

  Result run();

 private:
  bool traced_op(std::size_t index);
  bool traced_sim(const Op& op, const Expected& expected);
  bool traced_partitioned(const Op& op, const Expected& expected);
  bool traced_sta(const Op& op, const Expected& expected);
  bool traced_lint(const Op& op, const Expected& expected);
  bool traced_fault(const Op& op, const Expected& expected);
  bool traced_variation(const Op& op, const Expected& expected);
  /// Outside any op: the serial kernel on the partitioned op's design (the
  /// base of its speed-up, and the source of core.* on parallel_jobs) and
  /// the fault op's campaign on one thread (the base of fault.scaling_4t).
  /// Their parsing is not traced.
  bool reference_serial(const Op& op, const Expected& expected);
  bool reference_fault_1t(const Op& op, const Expected& expected);
  /// The op's netlist and TimingGraph as cli.cpp gets them: read_bench and
  /// TimingGraph::build per op in local mode, serve::build_elaboration on
  /// the first touch of each design on the daemon.
  std::shared_ptr<const hz::serve::Elaboration> front_end(const Op& op,
                                                         const hz::TimingPolicy& policy,
                                                         const std::string& policy_name);
  hz::Stimulus stimulus(const Op& op, const hz::Netlist& netlist);
  hz::CampaignResult campaign(const Op& op, const hz::serve::Elaboration& elab,
                              const hz::Stimulus& stim, int threads);
  bool untraced_op(std::size_t index, double* seconds);
  std::vector<std::pair<std::string, std::string>> shipped_files(const Op& op) const;
  void count_sim(const hz::Simulator& sim);
  [[nodiscard]] std::filesystem::path input(const std::string& name) const {
    return ctx_.work / "inputs" / name;
  }

  Context& ctx_;
  Tracer tracer_;
  Counters counters_;
  bool counting_ = true;  ///< first pass only
  int next_op_ = 0;
  std::vector<int> op_roots_;   ///< span ids of traced op roots
  double events_in_runs_ = 0;   ///< events of every core.run span
  double gates_parsed_ = 0;     ///< gates of every parsers.read_bench span
  std::vector<double> untraced_s_;
  std::vector<double> process_overhead_ms_;
  std::vector<double> roundtrip_ms_;
  // Daemon emulation: the request path of `halotis serve` in this process.
  std::map<std::string, std::shared_ptr<const hz::serve::Elaboration>> elab_cache_;
  hz::serve::SimulatorLease lease_;
  hz::serve::ElabCache untraced_cache_;
  hz::serve::SimulatorLease untraced_lease_;
};

void TracedRun::count_sim(const hz::Simulator& sim) {
  if (!counting_) return;
  const hz::SimStats& s = sim.stats();
  hz::SimStats& c = counters_.sim;
  c.events_processed += s.events_processed;
  c.events_cancelled += s.events_cancelled;
  c.events_suppressed += s.events_suppressed;
  c.events_resurrected += s.events_resurrected;
  c.annihilations += s.annihilations;
  c.pair_cancellations += s.pair_cancellations;
  c.gate_evaluations += s.gate_evaluations;
  counters_.peak_live_transitions =
      std::max(counters_.peak_live_transitions, sim.peak_live_transitions());
  counters_.arena_bytes = std::max(counters_.arena_bytes,
                                   sim.transition_arena_bytes() + sim.event_arena_bytes());
}

std::shared_ptr<const hz::serve::Elaboration> TracedRun::front_end(
    const Op& op, const hz::TimingPolicy& policy, const std::string& policy_name) {
  if (ctx_.workload.daemon) {
    // The daemon builds each (design, policy) once, on its first touch.
    const std::string key = op.netlist + "|" + policy_name;
    const auto it = elab_cache_.find(key);
    if (it != elab_cache_.end()) return it->second;
    const std::string text = read_file(input(op.netlist));
    auto elab = tracer_.span("serve.build_elaboration", [&] {
      return hz::serve::build_elaboration(library(), text, "bench", policy, nullptr);
    });
    elab_cache_.emplace(key, elab);
    return elab;
  }
  const std::string text = read_file(input(op.netlist));
  auto elab = tracer_.span("parsers.read_bench", [&] {
    return std::make_shared<hz::serve::Elaboration>(hz::read_bench(text, library()));
  });
  gates_parsed_ += static_cast<double>(elab->netlist.num_gates());
  tracer_.span("timing.build",
               [&] { elab->graph = hz::TimingGraph::build(elab->netlist, policy); });
  return elab;
}

hz::Stimulus TracedRun::stimulus(const Op& op, const hz::Netlist& netlist) {
  const std::string text = read_file(input(op.stim));
  return tracer_.span("parsers.read_stimulus",
                      [&] { return hz::read_stimulus(text, netlist); });
}

bool TracedRun::traced_sim(const Op& op, const Expected& expected) {
  const std::unique_ptr<hz::DelayModel> model = make_model(op.model);
  hz::SimConfig config;
  config.t_end = hz::kNeverNs;
  const auto elab = front_end(op, model->timing_policy(), op.model);
  const hz::Netlist& nl = elab->netlist;
  const hz::Stimulus stim = stimulus(op, nl);

  // Local mode constructs a simulator per op; the daemon rebinds a pooled one.
  std::unique_ptr<hz::Simulator> owned;
  hz::Simulator& sim = tracer_.span("core.construct", [&]() -> hz::Simulator& {
    if (ctx_.workload.daemon) return lease_.acquire(elab, *model, config);
    owned = std::make_unique<hz::Simulator>(nl, *model, elab->graph, config);
    return *owned;
  });
  tracer_.span("core.apply_stimulus", [&] { sim.apply_stimulus(stim); });
  (void)tracer_.span("core.run", [&] { return sim.run(); });
  events_in_runs_ += static_cast<double>(sim.stats().events_processed);
  count_sim(sim);

  // The final-value report, as cli.cpp prints it.
  std::ostringstream finals;
  finals << "final output values:\n";
  for (const hz::SignalId po : nl.primary_outputs()) {
    finals << "  " << nl.signal(po).name << " = " << (sim.final_value(po) ? 1 : 0) << "\n";
  }
  const std::uint64_t hash =
      tracer_.span("replay.hash", [&] { return hz::replay::hash_sim_history(sim); });
  const std::string events =
      "events: processed " + std::to_string(sim.stats().events_processed) + ",";
  bool ok = expected.out.find("history hash: " + hex64(hash)) != std::string::npos &&
            expected.out.find(events) != std::string::npos &&
            expected.out.find(finals.str()) != std::string::npos;
  if (!op.vcd.empty()) {
    const std::string vcd = tracer_.span("waveform.vcd", [&] {
      const hz::VcdWriter writer = hz::vcd_from_simulator(sim);
      std::ostringstream bytes;
      writer.write(bytes);
      return bytes.str();
    });
    ok = ok && vcd == expected.vcd;
  }
  return ok;
}

bool TracedRun::traced_partitioned(const Op& op, const Expected& expected) {
  const std::unique_ptr<hz::DelayModel> model = make_model(op.model);
  const auto elab = front_end(op, model->timing_policy(), op.model);
  const hz::Stimulus stim = stimulus(op, elab->netlist);
  hz::PartitionedConfig pconfig;
  pconfig.threads = op.threads;
  pconfig.partitions = static_cast<std::uint32_t>(std::stoul(arg_value(op, "--partitions")));
  pconfig.sim.t_end = hz::kNeverNs;
  auto psim = tracer_.span("partition.construct", [&] {
    return std::make_unique<hz::PartitionedSimulator>(elab->netlist, *model, elab->graph,
                                                      pconfig);
  });
  tracer_.span("partition.apply_stimulus", [&] { psim->apply_stimulus(stim); });
  (void)tracer_.span("partition.run", [&] { return psim->run(); });
  const std::uint64_t hash =
      tracer_.span("replay.hash", [&] { return hz::replay::hash_sim_history(*psim); });
  if (counting_) {
    const hz::WindowStats& ws = psim->window_stats();
    counters_.windows.windows += ws.windows;
    counters_.windows.messages += ws.messages;
    counters_.windows.fell_back_serial = counters_.windows.fell_back_serial || ws.fell_back_serial;
    counters_.windows.critical_path_events += ws.critical_path_events;
    counters_.partition_events += psim->stats().events_processed;
  }
  return expected.out.find("history hash: " + hex64(hash)) != std::string::npos;
}

bool TracedRun::reference_serial(const Op& op, const Expected& expected) {
  const std::unique_ptr<hz::DelayModel> model = make_model(op.model);
  const auto elab = hz::serve::build_elaboration(library(), read_file(input(op.netlist)),
                                                 "bench", model->timing_policy(), nullptr);
  const hz::Stimulus stim = hz::read_stimulus(read_file(input(op.stim)), elab->netlist);
  hz::SimConfig config;
  config.t_end = hz::kNeverNs;
  tracer_.set_op(-1);
  return tracer_.span("reference.serial_kernel", [&] {
    auto sim = tracer_.span("core.construct", [&] {
      return std::make_unique<hz::Simulator>(elab->netlist, *model, elab->graph, config);
    });
    tracer_.span("core.apply_stimulus", [&] { sim->apply_stimulus(stim); });
    (void)tracer_.span("core.run", [&] { return sim->run(); });
    events_in_runs_ += static_cast<double>(sim->stats().events_processed);
    count_sim(*sim);
    const std::string hash = hex64(hz::replay::hash_sim_history(*sim));
    return expected.out.find("history hash: " + hash) != std::string::npos;
  });
}

bool TracedRun::traced_sta(const Op& op, const Expected& expected) {
  const auto elab = front_end(op, hz::TimingPolicy{}, "conventional");
  const hz::TimingReport report = tracer_.span("sta.analyze", [&] {
    const hz::StaticTimingAnalyzer sta(elab->netlist, elab->graph, 0.5);
    return sta.analyze();
  });
  const std::string text = tracer_.span(
      "sta.format", [&] { return hz::StaticTimingAnalyzer::format(report, elab->netlist); });
  return text == expected.out;
}

bool TracedRun::traced_lint(const Op& op, const Expected& expected) {
  const std::unique_ptr<hz::DelayModel> model = make_model(op.model);
  const auto elab = front_end(op, model->timing_policy(), op.model);
  hz::lint::LintOptions options;
  options.input_slew = 0.5;
  options.fanout_limit = 64;
  const hz::lint::LintReport report = tracer_.span(
      "lint.run", [&] { return hz::lint::run_lint(elab->netlist, elab->graph, options); });
  const std::string json = tracer_.span(
      "lint.format", [&] { return hz::lint::format_json(report, elab->netlist); });
  if (counting_) counters_.lint_findings += report.findings.size();
  return json == expected.out;
}

/// Runs the fault op's campaign on `threads` threads inside a span.
hz::CampaignResult TracedRun::campaign(const Op& op, const hz::serve::Elaboration& elab,
                                       const hz::Stimulus& stim, int threads) {
  const std::unique_ptr<hz::DelayModel> model = make_model(op.model);
  hz::FaultSimOptions sampling;
  sampling.sample_period = 5.0;
  return tracer_.span("fault.campaign_" + std::to_string(threads) + "t", [&] {
    hz::CampaignEngine engine(elab.netlist, *model, elab.graph, threads);
    return engine.run(stim, {}, sampling, true);
  });
}

bool coverage_matches(const hz::CampaignResult& result, const Expected& expected) {
  return expected.out.rfind("stuck-at coverage: " + std::to_string(result.detected) + " / " +
                                std::to_string(result.total) + " (",
                            0) == 0;
}

bool TracedRun::traced_fault(const Op& op, const Expected& expected) {
  const auto elab = front_end(op, make_model(op.model)->timing_policy(), op.model);
  const hz::Stimulus stim = stimulus(op, elab->netlist);
  return coverage_matches(campaign(op, *elab, stim, op.threads), expected);
}

bool TracedRun::reference_fault_1t(const Op& op, const Expected& expected) {
  const auto elab =
      hz::serve::build_elaboration(library(), read_file(input(op.netlist)), "bench",
                                   make_model(op.model)->timing_policy(), nullptr);
  const hz::Stimulus stim = hz::read_stimulus(read_file(input(op.stim)), elab->netlist);
  tracer_.set_op(-1);
  return tracer_.span("reference.fault_1t", [&] {
    return coverage_matches(campaign(op, *elab, stim, 1), expected);
  });
}

bool TracedRun::traced_variation(const Op& op, const Expected& expected) {
  const std::unique_ptr<hz::DelayModel> model = make_model(op.model);
  // cli.cpp elaborates through the shared path even though variation
  // builds its per-sample graphs itself.
  const auto elab = front_end(op, model->timing_policy(), op.model);
  const hz::Netlist& nl = elab->netlist;
  const hz::Stimulus stim = stimulus(op, nl);
  hz::replay::VariationConfig config;
  config.samples = op.samples;
  config.seed = std::stoull(arg_value(op, "--seed"));
  config.sigma = std::stod(arg_value(op, "--sigma"));
  config.threads = op.threads;
  config.use_replay = true;
  config.sim.t_end = hz::kNeverNs;
  const hz::replay::VariationResult result = tracer_.span("replay.variation", [&] {
    return hz::replay::run_variation(nl, *model, stim, nl.primary_outputs(), config);
  });
  if (counting_) {
    counters_.variation_rows += result.rows.size();
    counters_.variation_fallbacks += result.fallbacks;
  }
  return expected.out.rfind(hz::replay::format_variation_report(result, config), 0) == 0;
}

bool TracedRun::traced_op(std::size_t index) {
  const Op& op = ctx_.workload.catalog[index];
  const Expected& expected = ctx_.expected[index];
  tracer_.set_op(next_op_++);
  op_roots_.push_back(static_cast<int>(tracer_.spans().size()));
  return tracer_.span("op." + op.kind, [&] {
    if (op.kind == "sim") {
      return op.threads != 1 ? traced_partitioned(op, expected) : traced_sim(op, expected);
    }
    if (op.kind == "sta") return traced_sta(op, expected);
    if (op.kind == "lint") return traced_lint(op, expected);
    if (op.kind == "fault") return traced_fault(op, expected);
    return traced_variation(op, expected);
  });
}

std::vector<std::pair<std::string, std::string>> TracedRun::shipped_files(const Op& op) const {
  std::vector<std::pair<std::string, std::string>> files;
  files.emplace_back("../inputs/" + op.netlist, read_file(input(op.netlist)));
  if (!op.stim.empty()) files.emplace_back("../inputs/" + op.stim, read_file(input(op.stim)));
  return files;
}

/// The op without spans: run_cli in local mode, or the daemon's executor
/// with a warm elaboration cache and a pooled simulator.
bool TracedRun::untraced_op(std::size_t index, double* seconds) {
  const Op& op = ctx_.workload.catalog[index];
  std::ostringstream out;
  std::ostringstream err;
  int code = 0;
  std::string vcd;
  if (ctx_.workload.daemon) {
    hz::serve::ServeContext context;
    context.cache = &untraced_cache_;
    hz::serve::RequestIo io;
    for (auto& [path, bytes] : shipped_files(op)) io.files.emplace(path, std::move(bytes));
    io.lease = &untraced_lease_;
    const auto start = Clock::now();
    code = hz::run_cli_service(op.args, out, err, &context, &io);
    *seconds = seconds_since(start);
    for (const auto& [path, bytes] : io.artifacts) {
      if (path == op.vcd) vcd = bytes;
    }
  } else {
    const auto start = Clock::now();
    code = hz::run_cli(op.args, out, err);
    *seconds = seconds_since(start);
    if (!op.vcd.empty()) vcd = take_file(op.vcd);
  }
  return output_matches(op, ctx_.expected[index], code, out.str(), vcd);
}

double median_of(const std::map<std::string, std::vector<double>>& by_name,
                 const std::string& name) {
  const auto it = by_name.find(name);
  return it == by_name.end() ? 0.0 : median(it->second);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Ops traced per pass on the request streams (clients interleaved).
constexpr std::size_t kTracedRequestOps = 100;

Result TracedRun::run() {
  const Workload& w = ctx_.workload;
  Result result;
  const std::filesystem::path dir = ctx_.work / "traced";
  // The op argv's relative paths resolve against the traced directory.
  std::filesystem::current_path(dir);

  std::vector<std::size_t> ops;
  if (w.batch) {
    for (std::size_t i = 0; i < w.catalog.size(); ++i) ops.push_back(i);
  } else {
    std::vector<OpStream> streams;
    for (int c = 0; c < w.clients; ++c) streams.emplace_back(w, ctx_.seed, c);
    while (ops.size() < kTracedRequestOps) {
      for (OpStream& s : streams) ops.push_back(s.next());
    }
  }

  Daemon daemon;
  if (w.daemon) daemon = start_daemon(ctx_);
  const std::string socket = "../d.sock";

  const auto check = [&result](bool ok, const char* what, std::size_t index) {
    ++result.attempted;
    if (!ok) {
      ++result.failed;
      std::fprintf(stderr, "%s of op %zu did not match the reference\n", what, index);
    }
  };

  const auto start = Clock::now();
  for (int pass = 0; pass == 0 || seconds_since(start) < ctx_.seconds; ++pass) {
    counting_ = pass == 0;
    for (const std::size_t index : ops) {
      const Op& op = w.catalog[index];
      check(traced_op(index), "traced run", index);
      if (op.kind == "sim" && op.threads != 1) {
        check(reference_serial(op, ctx_.expected[index]), "serial reference", index);
      }
      if (op.kind == "fault") {
        check(reference_fault_1t(op, ctx_.expected[index]), "1-thread reference", index);
      }

      double inproc_s = 0.0;
      check(untraced_op(index, &inproc_s), "in-process run", index);
      untraced_s_.push_back(inproc_s);

      const ProcResult r = run_process(ctx_.halotis, client_args(ctx_, op), dir.string(),
                                       (dir / "err.txt").string());
      const std::string vcd = op.vcd.empty() ? std::string() : take_file(dir / op.vcd);
      check(output_matches(op, ctx_.expected[index], r.exit_code, r.out, vcd), "process",
            index);

      double reference_s = inproc_s;
      if (w.daemon) {
        std::ostringstream out;
        std::ostringstream err;
        const auto t0 = Clock::now();
        const int code =
            hz::serve::run_connected(socket, op.args, shipped_files(op), out, err, nullptr);
        reference_s = seconds_since(t0);
        roundtrip_ms_.push_back(reference_s * 1e3);
        const std::string rt_vcd = op.vcd.empty() ? std::string() : take_file(op.vcd);
        check(output_matches(op, ctx_.expected[index], code, out.str(), rt_vcd), "round trip",
              index);
      }
      process_overhead_ms_.push_back((r.wall_s - reference_s) * 1e3);
    }
  }

  DrainStats drain;
  if (w.daemon) {
    drain = stop_daemon(ctx_, daemon);
    if (!drain.parsed) result.correct = false;
  }
  if (result.failed != 0) result.correct = false;

  // Aggregate the spans: per-name self times, op-root attribution.
  const std::vector<Tracer::Span>& spans = tracer_.spans();
  const std::vector<double> self = tracer_.self_times();
  std::map<std::string, std::vector<double>> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) by_name[spans[i].name].push_back(self[i]);
  const auto total = [&](const std::string& name) {
    double sum = 0.0;
    for (const Tracer::Span& s : spans) {
      if (s.name == name) sum += s.end - s.start;
    }
    return sum;
  };
  double root_total = 0.0;
  double root_self = 0.0;
  for (const int id : op_roots_) {
    const Tracer::Span& s = spans[static_cast<std::size_t>(id)];
    root_total += s.end - s.start;
    root_self += self[static_cast<std::size_t>(id)];
  }
  double untraced_total = 0.0;
  for (const double s : untraced_s_) untraced_total += s;
  const double unattributed = ratio(root_self, root_total);
  if (unattributed > 0.5) {
    std::printf("warning: %.0f%% of traced op time is outside every layer span\n",
                unattributed * 100.0);
  }

  const Counters& c = counters_;
  const double fault_1t = median_of(by_name, "fault.campaign_1t");
  const double fault_4t = median_of(by_name, "fault.campaign_4t");
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  result.metrics = {
      {"tools.process_overhead_ms", median(process_overhead_ms_), "ms"},
      {"tools.run_cli_ms", median(untraced_s_) * 1e3, "ms"},
      {"parsers.read_bench_s", median_of(by_name, "parsers.read_bench"), "s"},
      {"parsers.bench_gates_per_s", ratio(gates_parsed_, total("parsers.read_bench")), "1/s"},
      {"parsers.read_stimulus_s", median_of(by_name, "parsers.read_stimulus"), "s"},
      {"timing.build_s", median_of(by_name, "timing.build"), "s"},
      {"core.construct_s", median_of(by_name, "core.construct"), "s"},
      {"core.apply_stimulus_s", median_of(by_name, "core.apply_stimulus"), "s"},
      {"core.run_s", median_of(by_name, "core.run"), "s"},
      {"core.kernel_events_per_s", ratio(events_in_runs_, total("core.run")), "1/s"},
      {"core.events_processed", count(c.sim.events_processed), "count"},
      {"core.events_cancelled", count(c.sim.events_cancelled), "count"},
      {"core.events_suppressed", count(c.sim.events_suppressed), "count"},
      {"core.events_resurrected", count(c.sim.events_resurrected), "count"},
      {"core.annihilations", count(c.sim.annihilations), "count"},
      {"core.filtered_events", count(c.sim.filtered_events()), "count"},
      {"core.gate_evaluations", count(c.sim.gate_evaluations), "count"},
      {"core.peak_live_transitions", count(c.peak_live_transitions), "count"},
      {"core.arena_bytes", count(c.arena_bytes), "bytes"},
      {"partition.run_s", median_of(by_name, "partition.run"), "s"},
      {"partition.windows", count(c.windows.windows), "count"},
      {"partition.messages", count(c.windows.messages), "count"},
      {"partition.fell_back_serial", c.windows.fell_back_serial ? 1.0 : 0.0, "count"},
      {"partition.critical_path_share",
       ratio(count(c.windows.critical_path_events), count(c.partition_events)), "ratio"},
      {"replay.hash_s", median_of(by_name, "replay.hash"), "s"},
      {"replay.variation_s", median_of(by_name, "replay.variation"), "s"},
      {"replay.replayed_share",
       ratio(count(c.variation_rows - c.variation_fallbacks), count(c.variation_rows)),
       "ratio"},
      {"fault.campaign_1t_s", fault_1t, "s"},
      {"fault.campaign_4t_s", fault_4t, "s"},
      {"fault.scaling_4t", ratio(fault_1t, fault_4t), "ratio"},
      {"sta.analyze_s", median_of(by_name, "sta.analyze"), "s"},
      {"lint.run_s", median_of(by_name, "lint.run"), "s"},
      {"lint.findings", count(c.lint_findings), "count"},
      {"serve.roundtrip_ms", median(roundtrip_ms_), "ms"},
      {"serve.build_elaboration_s", median_of(by_name, "serve.build_elaboration"), "s"},
      {"serve.cache_hit_ratio", ratio(count(drain.hits), count(drain.hits + drain.misses)),
       "ratio"},
      {"serve.protocol_errors", count(drain.protocol_errors), "count"},
      {"waveform.vcd_s", median_of(by_name, "waveform.vcd"), "s"},
      {"trace.unattributed_share", unattributed, "ratio"},
      {"trace.overhead_share", ratio(root_total, untraced_total) - 1.0, "ratio"},
  };

  std::printf("spans (self time per call):\n");
  for (const auto& [name, values] : by_name) print_samples(name, "s", values);
  print_samples("tools.process_overhead_ms", "ms", process_overhead_ms_);
  std::printf("  %zu traced ops, %zu spans; metrics of layers this workload does not call "
              "read 0\n",
              op_roots_.size(), spans.size());
  return result;
}

}  // namespace

Result run_traced(Context& ctx) {
  TracedRun run(ctx);
  return run.run();
}

}  // namespace perfbench
