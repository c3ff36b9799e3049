#include "src/tools/cli.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "src/analog/analog_sim.hpp"
#include "src/base/check.hpp"
#include "src/base/failpoint.hpp"
#include "src/base/fileio.hpp"
#include "src/base/fnv.hpp"
#include "src/base/strings.hpp"
#include "src/core/partition.hpp"
#include "src/core/simulator.hpp"
#include "src/fault/campaign.hpp"
#include "src/fault/fault.hpp"
#include "src/lint/lint.hpp"
#include "src/netlist/library.hpp"
#include "src/parsers/bench_format.hpp"
#include "src/parsers/netlist_io.hpp"
#include "src/parsers/sdf.hpp"
#include "src/parsers/stimulus_file.hpp"
#include "src/parsers/verilog.hpp"
#include "src/power/activity.hpp"
#include "src/replay/history_hash.hpp"
#include "src/replay/resim.hpp"
#include "src/replay/variation.hpp"
#include "src/repro/experiment.hpp"
#include "src/repro/runner.hpp"
#include "src/serve/client.hpp"
#include "src/serve/elaboration.hpp"
#include "src/serve/server.hpp"
#include "src/serve/service.hpp"
#include "src/sta/sta.hpp"
#include "src/timing/timing_graph.hpp"
#include "src/waveform/ascii_plot.hpp"
#include "src/waveform/vcd.hpp"

namespace halotis {

namespace {

/// A malformed or contradictory command line: exits 2 with the usage text
/// (distinct from ContractViolation / RunError failures, which exit 1+).
struct UsageError : std::runtime_error {
  explicit UsageError(const std::string& what) : std::runtime_error(what) {}
};

// ---- The flag table: the one place a command or flag is declared. ----

/// What a flag's value must be.  kPath is any non-empty string (a file, a
/// socket, a fail-point spec, an id list); kEnum is one of `arg`'s
/// '|'-separated choices.
enum class FlagKind : unsigned char { kBool, kNumber, kUnsigned, kPath, kEnum };

/// FlagSpec::traits bits.
enum FlagTrait : unsigned {
  kInputFile = 1,   ///< an input file a --connect client ships to the daemon
  kRequired = 2,
  kClientSide = 4,  ///< consumed by a --connect client, never forwarded
  kAboveLo = 8,     ///< the lower bound is exclusive
};

/// One row of the flag table: a flag of each command whose bit is set in
/// `commands`.  kNumber and kUnsigned values must be finite and lie in
/// [lo, hi], so every integer cast a command makes is defined.
struct FlagSpec {
  unsigned commands;      ///< CommandSpec::bit mask
  std::string_view name;  ///< without the leading "--"
  FlagKind kind;
  std::string_view arg;   ///< usage placeholder ("F", "NS"); a kEnum's choices
  std::string_view help;
  unsigned traits = 0;
  double lo = 0.0;
  double hi = std::numeric_limits<double>::infinity();
};

struct CommandSpec {
  std::string_view name;
  std::string_view summary;
  unsigned bit;
};

using enum FlagKind;
enum : unsigned {
  kSim = 1, kSta = 2, kFault = 4, kVariation = 8, kAnalog = 16,
  kLint = 32, kRepro = 64, kConvert = 128, kServe = 256,
};
constexpr unsigned kDesign = kSim | kSta | kFault | kVariation | kAnalog | kConvert;
constexpr unsigned kRoutable = kSim | kSta | kFault | kVariation;  // `halotis serve` runs them
constexpr unsigned kSupervised = kSim | kFault | kVariation | kLint | kRepro;
constexpr double kIntMax = std::numeric_limits<int>::max();
/// The shared groups: rows declared once for every command in their mask.
constexpr unsigned kGroups[] = {kSupervised, kRoutable, ~0U};

constexpr CommandSpec kCommands[] = {
    {"sim", "event-driven timing simulation", kSim},
    {"sta", "static timing analysis (conventional worst case)", kSta},
    {"fault", "parallel stuck-at fault campaign / test generation", kFault},
    {"variation", "Monte-Carlo delay variation (docs/REPLAY.md)", kVariation},
    {"analog", "transistor-level reference simulation", kAnalog},
    {"lint", "static hazard / timing analysis (docs/LINT.md)", kLint},
    {"repro", "paper-reproduction engine (docs/REPRODUCTION.md)", kRepro},
    {"convert", "netlist conversion / SDF export", kConvert},
    {"serve", "resident daemon; SIGINT/SIGTERM drain it (docs/DAEMON.md)", kServe},
};

// No two rows of one name share a command (ReadmeFlagTableMatchesSpec checks).
constexpr FlagSpec kFlags[] = {
    {kDesign | kLint, "netlist", kPath, "F", "netlist file (`lint F` also takes it bare)",
     kInputFile | kRequired},
    {kDesign, "format", kEnum, "bench|verilog|native", "netlist dialect (default: by suffix)"},
    {kLint, "netlist-format", kEnum, "bench|verilog|native", "netlist dialect"},
    {kLint, "format", kEnum, "text|json", "report format (default text)"},
    {kSim | kFault | kVariation | kAnalog, "stim", kPath, "F",
     "stimulus file (default: quiescent inputs)", kInputFile},
    {kSim | kFault | kVariation | kLint, "model", kEnum, "ddm|cdm|cdm-classical|transport",
     "delay model (default ddm)"},
    {kSim | kVariation | kAnalog, "t-end", kNumber, "NS", "simulation horizon"},
    {kSim | kSta | kLint, "sdf", kPath, "F",
     "back-annotate IOPATH delays (A[,B...] corners for sim --replay)", kInputFile},
    {kSta | kLint | kConvert, "slew", kNumber, "NS", "input ramp (default 0.5)", kAboveLo},
    {kSim, "vcd", kPath, "F", "write a full-design VCD (serial kernel only)"},
    {kSim, "report", kBool, "", "switching-activity table (serial kernel only)"},
    {kSim, "waves", kBool, "", "ASCII waveforms of the primary outputs"},
    {kSim, "hash", kBool, "", "print the waveform history hash"},
    {kSim | kFault | kVariation | kRepro | kServe, "threads", kUnsigned, "N",
     "worker threads, 0 = all hardware (sim: partitioned unless 1)", 0, 0, kIntMax},
    {kSim, "partitions", kUnsigned, "K", "partition count (default: automatic)", 0, 0,
     std::numeric_limits<std::uint32_t>::max()},
    {kSim | kVariation, "replay", kBool, "", "re-time a recorded trace, not re-simulate"},
    {kSta, "per-arc", kBool, "", "dump the elaborated timing-arc table"},
    {kFault, "period", kNumber, "NS", "output sample period (default 5)", kAboveLo,
     kSampleEpsilon},
    {kFault, "atpg", kBool, "", "generate test vectors instead of grading --stim"},
    {kFault, "candidates", kUnsigned, "N", "ATPG candidate words (default 200)", 0, 1, kIntMax},
    {kFault | kVariation, "seed", kUnsigned, "N", "random seed (decimal or 0x hex)"},
    {kVariation, "sigma", kNumber, "S", "lognormal per-gate delay spread, 0..10 (default 0.1)",
     0, 0, kMaxVariationSigma},
    {kVariation, "samples", kUnsigned, "N", "Monte-Carlo samples (default 200)", 0, 1},
    {kVariation | kAnalog, "csv", kPath, "F", "write per-sample / voltage-trace CSV"},
    {kVariation | kLint | kConvert | kRepro, "out", kPath, "F", "output file (repro: a directory)"},
    {kLint, "fanout-limit", kUnsigned, "N", "largest fanout not reported (default 64)", 0, 0,
     kIntMax},
    {kLint, "baseline", kPath, "F", "suppress the findings recorded in F", kInputFile},
    {kLint, "write-baseline", kPath, "F", "record the findings in F"},
    {kLint, "fail-on", kEnum, "error|warn|warning|none", "exit 1 at/above (default error)"},
    {kRepro, "list", kBool, "", "list the registered experiments"},
    {kRepro, "only", kPath, "ID[,ID...]", "run only these experiments"},
    {kRepro, "quick", kBool, "", "reduced sizes (the golden-hash mode)"},
    {kRepro, "golden", kPath, "F", "compare the artifact hashes against F", kInputFile},
    {kConvert, "to", kEnum, "bench|verilog|native|sdf", "target format", kRequired},
    {kServe, "socket", kPath, "PATH", "Unix socket to listen on", kRequired},
    {kServe, "cache-mb", kNumber, "M", "elaboration cache MiB (default 256)", kAboveLo, 0,
     kIntMax},
    {kServe, "idle-timeout-ms", kUnsigned, "T", "mid-frame stall limit (default 30000)", 0, 0,
     kIntMax},
    // The shared groups (kGroups).
    {kSupervised, "budget-events", kUnsigned, "N", "exit 3 after N processed events"},
    {kSupervised, "budget-mem-mb", kNumber, "N", "exit 3 past N MiB of arenas", 0, 0, kIntMax},
    {kSupervised, "deadline-s", kNumber, "S", "exit 4 after S wall-clock seconds"},
    {kRoutable, "connect", kPath, "PATH", "run on a `halotis serve` daemon, same output",
     kClientSide},
    {~0U, "failpoints", kPath, "SPEC",
     "arm fail points, e.g. \"io.write@2;worker.task*\" (or $HALOTIS_FAILPOINTS)",
     kClientSide},
};

const FlagSpec* find_flag(const CommandSpec& command, std::string_view name) {
  const auto it = std::find_if(std::begin(kFlags), std::end(kFlags), [&](const FlagSpec& f) {
    return (f.commands & command.bit) != 0 && f.name == name;
  });
  return it != std::end(kFlags) ? it : nullptr;
}

/// "sim, sta, fault and variation": the commands in `mask`.
std::string command_list(unsigned mask) {
  std::string joined;
  for (const CommandSpec& command : kCommands) {
    if ((command.bit & mask) == 0) continue;
    if (!joined.empty()) joined += ", ";
    joined += command.name;
  }
  const std::size_t last = joined.rfind(", ");
  return last == std::string::npos ? joined : joined.replace(last, 2, " and ");
}

/// A command line checked against the flag table: each given flag with its
/// validated, typed value, in argv order.
struct Options {
  struct Value {
    const FlagSpec* spec;
    std::string text;
    double number = 0.0;      ///< kNumber and kUnsigned
    std::uint64_t count = 0;  ///< kUnsigned
  };
  const CommandSpec* command;
  std::vector<Value> values;

  /// The value of a flag (the last one given), nullptr when absent.
  [[nodiscard]] const Value* find(std::string_view name) const {
    const auto it = std::find_if(values.rbegin(), values.rend(),
                                 [&](const Value& value) { return value.spec->name == name; });
    return it != values.rend() ? &*it : nullptr;
  }
  [[nodiscard]] bool has(std::string_view name) const { return find(name) != nullptr; }
  /// A kPath / kEnum value, or `fallback` when the flag is absent.
  [[nodiscard]] std::string text(std::string_view name, std::string_view fallback = {}) const {
    const Value* value = find(name);
    return value != nullptr ? value->text : std::string(fallback);
  }
  [[nodiscard]] double number(std::string_view name, double fallback) const {
    const Value* value = find(name);
    return value != nullptr ? value->number : fallback;
  }
  [[nodiscard]] std::uint64_t count(std::string_view name, std::uint64_t fallback) const {
    const Value* value = find(name);
    return value != nullptr ? value->count : fallback;
  }
};

[[noreturn]] void bad_value(const FlagSpec& spec, const std::string& text,
                            const std::string& what) {
  throw UsageError("--" + std::string(spec.name) + " " + what + ", got '" + text + "'");
}

/// A bound in its shortest round-trip form: "0.1", not "0.10000000000000001".
std::string format_bound(double bound) {
  char buffer[32];
  return {buffer, std::to_chars(std::begin(buffer), std::end(buffer), bound).ptr};
}

/// Validates one flag value against its table row; only a kBool has none.
Options::Value parse_value(const FlagSpec& spec, std::string text) {
  Options::Value value{&spec, std::move(text)};
  if (spec.kind == kBool) return value;
  if (value.text.empty()) throw UsageError("--" + std::string(spec.name) + " needs a value");
  if (spec.kind == kPath) return value;
  const char* first = value.text.data();
  const char* last = first + value.text.size();
  if (spec.kind == kEnum) {
    for (const std::string& option : split(spec.arg, '|')) {
      if (option == value.text) return value;
    }
    bad_value(spec, value.text, "expects " + std::string(spec.arg));
  }
  if (spec.kind == kUnsigned) {
    const bool hex = value.text.size() > 2 && value.text[0] == '0' &&
                     (value.text[1] == 'x' || value.text[1] == 'X');
    const auto [ptr, ec] = std::from_chars(first + (hex ? 2 : 0), last, value.count,
                                           hex ? 16 : 10);
    if (ec != std::errc{} || ptr != last) {
      bad_value(spec, value.text, "expects an unsigned integer");
    }
    value.number = static_cast<double>(value.count);
  } else {
    const auto [ptr, ec] = std::from_chars(first, last, value.number);
    if (ec != std::errc{} || ptr != last || !std::isfinite(value.number)) {
      bad_value(spec, value.text, "expects a finite number");
    }
  }
  if ((spec.traits & kAboveLo) != 0 ? !(value.number > spec.lo) : !(value.number >= spec.lo)) {
    bad_value(spec, value.text, ((spec.traits & kAboveLo) != 0 ? "must be > " : "must be >= ") +
                                    format_bound(spec.lo));
  }
  if (!(value.number <= spec.hi)) {
    bad_value(spec, value.text, "must be <= " + format_bound(spec.hi));
  }
  return value;
}

/// Levenshtein distance, for the did-you-mean hint on an unknown flag.
std::size_t edit_distance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diagonal = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t above = row[j];
      row[j] = std::min({above + 1, row[j - 1] + 1,
                         diagonal + (a[i - 1] != b[j - 1] ? 1 : 0)});
      diagonal = above;
    }
  }
  return row[b.size()];
}

[[noreturn]] void unknown_flag(const CommandSpec& command, std::string_view name) {
  if (name == "connect") {
    throw UsageError("--connect routes " + command_list(kRoutable) + " only (got '" +
                     std::string(command.name) + "')");
  }
  std::string message =
      "unknown flag --" + std::string(name) + " for " + std::string(command.name);
  std::size_t best = 3;  // hint only at edit distance <= 2
  std::string_view hint;
  for (const FlagSpec& spec : kFlags) {
    if ((spec.commands & command.bit) == 0) continue;
    const std::size_t distance = edit_distance(name, spec.name);
    if (distance < best) {
      best = distance;
      hint = spec.name;
    }
  }
  if (!hint.empty()) message += " (did you mean --" + std::string(hint) + "?)";
  throw UsageError(message);
}

/// Checks `args` (command first) against the command's table rows.
Options parse_args(const CommandSpec& command, const std::vector<std::string>& args) {
  Options options{&command, {}};
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const FlagSpec* spec = nullptr;
    std::string text;
    if (starts_with(arg, "--")) {
      spec = find_flag(command, std::string_view(arg).substr(2));
      if (spec == nullptr) unknown_flag(command, std::string_view(arg).substr(2));
      const bool valued = i + 1 < args.size() && !starts_with(args[i + 1], "--");
      if (spec->kind == kBool && valued) {
        throw UsageError(arg + " takes no value, got '" + args[i + 1] + "'");
      }
      if (valued) text = args[++i];
    } else if (i == 1 && command.bit == kLint) {
      // `halotis lint NETLIST`: the one documented positional form.
      spec = find_flag(command, "netlist");
      text = arg;
    } else {
      throw UsageError("unexpected argument '" + arg + "'");
    }
    options.values.push_back(parse_value(*spec, std::move(text)));
  }
  for (const FlagSpec& spec : kFlags) {
    if ((spec.commands & command.bit) != 0 && (spec.traits & kRequired) != 0 &&
        !options.has(spec.name)) {
      throw UsageError("missing required flag --" + std::string(spec.name));
    }
  }
  return options;
}

/// Which side of the daemon seam this invocation runs on: plain local mode
/// (both null) or a daemon-side request (context + io set; see
/// run_cli_service).  Cheap to copy; threaded by value through the command
/// helpers.
struct ServiceEnv {
  serve::ServeContext* ctx = nullptr;
  serve::RequestIo* io = nullptr;
  [[nodiscard]] bool daemon() const { return io != nullptr; }
};

/// The one process-wide cell library.  Cached Elaborations keep Netlists
/// that point into it across requests, so it must outlive every cache
/// entry -- a function-local static, never a per-command stack copy.
const Library& default_library() {
  static const Library lib = Library::default_u6();
  return lib;
}

/// Builds the run supervisor for a supervised command from the shared budget
/// flags (--budget-events, --budget-mem-mb, --deadline-s; 0 / absent =
/// unlimited) wired to the process-wide SIGINT token -- or, under the
/// daemon, to the daemon's drain token, so shutdown unwinds in-flight
/// requests (exit 5) instead of waiting them out.  Every supervised
/// command attaches one even with no budget set, so Ctrl-C always unwinds
/// cleanly with exit 5.
RunSupervisor make_supervisor(const Options& options, const ServiceEnv& env = {}) {
  RunBudget budget;
  budget.max_events = options.count("budget-events", 0);
  budget.max_arena_bytes =
      static_cast<std::uint64_t>(options.number("budget-mem-mb", 0.0) * 1024.0 * 1024.0);
  budget.deadline_s = options.number("deadline-s", 0.0);
  RunSupervisor supervisor(budget,
                           env.ctx != nullptr ? env.ctx->stop : cli_cancel_token());
  supervisor.arm();
  // A token tripped before the run starts (Ctrl-C during parsing) exits 5
  // here, deterministically -- a tiny workload might otherwise finish
  // without ever reaching a poll.
  supervisor.check_coarse("startup");
  return supervisor;
}

/// Reads one named input through the request's virtual filesystem: a
/// daemon request resolves the path against the files the client shipped
/// in the request frame (the daemon never opens client paths itself);
/// local mode (`env` = {}) reads the real file.  The error text is the
/// same either way, so responses stay byte-identical to local runs.
std::string read_input(const ServiceEnv& env, const std::string& path) {
  if (env.daemon()) {
    const auto it = env.io->files.find(path);
    require(it != env.io->files.end(), "cannot open '" + path + "'");
    return it->second;
  }
  std::ifstream in(path);
  require(in.good(), "cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Publishes one output artifact: collected into the response frame under
/// the daemon (the *client* writes it via write_file_atomic on receipt),
/// written atomically right here in local mode.  Either way the console
/// gets the same "wrote PATH" line at the same position.
void publish_artifact(const ServiceEnv& env, const std::string& path, std::string bytes,
                      std::ostream& out) {
  if (env.daemon()) {
    env.io->artifacts.emplace_back(path, std::move(bytes));
  } else {
    write_file_atomic(path, bytes);
  }
  out << "wrote " << path << "\n";
}

/// The netlist dialect: the flag, else the file extension.  lint's
/// `--format` selects its *report* format, so its dialect flag is
/// `--netlist-format`.
std::string detect_format(const Options& options, const std::string& path) {
  const bool lint = options.command->bit == kLint;
  if (const std::string flag = options.text(lint ? "netlist-format" : "format"); !flag.empty()) {
    return flag;
  }
  if (path.ends_with(".bench")) return "bench";
  if (path.ends_with(".v")) return "verilog";
  return "native";
}

Netlist load_netlist(const Options& options) {
  const std::string path = options.text("netlist");
  return serve::parse_netlist_text(read_input({}, path), detect_format(options, path),
                                   default_library());
}

std::unique_ptr<DelayModel> make_model(const Options& options) {
  const std::string name = options.text("model", "ddm");
  if (name == "ddm") return std::make_unique<DdmDelayModel>();
  if (name == "cdm") return std::make_unique<CdmDelayModel>();
  if (name == "cdm-classical") {
    return std::make_unique<CdmDelayModel>(CdmDelayModel::InertialWindow::kGateDelay);
  }
  return std::make_unique<CdmDelayModel>(CdmDelayModel::InertialWindow::kNone);  // transport
}

Stimulus load_stimulus(const ServiceEnv& env, const Options& options,
                       const Netlist& netlist) {
  if (options.has("stim")) return read_stimulus(read_input(env, options.text("stim")), netlist);
  return Stimulus(0.5);  // quiescent testbench
}

/// The elaboration path shared by sim / sta / fault / variation / lint in
/// both modes: parse + TimingGraph::build + optional SDF annotation, keyed off
/// the input *bytes*.  Daemon requests consult the keyed LRU cache (a warm
/// hit skips the whole pipeline); local mode builds fresh.  Both modes run
/// the identical serve::build_elaboration, so results and console output
/// cannot depend on which side -- or which cache state -- served the
/// request.
std::shared_ptr<const serve::Elaboration> service_elaboration(const ServiceEnv& env,
                                                              const Options& options,
                                                              const TimingPolicy& policy,
                                                              bool want_sdf) {
  const std::string path = options.text("netlist");
  const std::string format = detect_format(options, path);
  const std::string netlist_text = read_input(env, path);
  std::optional<std::string> sdf_text;
  if (want_sdf && options.has("sdf")) sdf_text = read_input(env, options.text("sdf"));
  const std::string* sdf_ptr = sdf_text.has_value() ? &*sdf_text : nullptr;
  if (env.ctx != nullptr && env.ctx->cache != nullptr) {
    const std::uint64_t key =
        serve::elaboration_key(format, netlist_text, policy, sdf_ptr);
    return env.ctx->cache->get_or_build(key, [&] {
      return serve::build_elaboration(default_library(), netlist_text, format, policy,
                                      sdf_ptr);
    });
  }
  return serve::build_elaboration(default_library(), netlist_text, format, policy,
                                  sdf_ptr);
}

/// `sim --sdf A.sdf[,B.sdf...] --replay`: records the causal trace once
/// under library timing, then re-times every SDF corner through the
/// replayer, falling back to a full event simulation for any corner that
/// breaks a recorded ordering/filtering decision (docs/REPLAY.md).
int sim_replay_corners(const ServiceEnv& env, const Options& options,
                       const Netlist& netlist, const DelayModel& model,
                       const Stimulus& stimulus, std::ostream& out) {
  std::vector<std::string> corners;
  for (const std::string& path : split(options.text("sdf"), ',')) {
    if (!path.empty()) corners.push_back(path);
  }
  if (corners.empty()) throw UsageError("--sdf lists no corner files");

  SimConfig config;
  config.t_end = options.number("t-end", kNeverNs);
  const RunSupervisor supervisor = make_supervisor(options, env);

  replay::ResimEngine engine(netlist, model, stimulus, config);
  // Record at the first corner's elaboration: the trace's scheduling
  // decisions then hold exactly for that corner (bit-exact fast replay)
  // and usually for the neighbouring corners of the same annotation.
  const std::size_t ref_applied = apply_sdf(engine.base_graph_mutable(),
                                            read_sdf(read_input(env, corners.front())));
  engine.record(&supervisor);
  const replay::Trace& trace = engine.trace();
  out << "model: " << model.name() << "\n";
  out << "reference corner " << corners.front() << ": " << ref_applied
      << " IOPATH records annotate the recording\n";
  out << "recorded trace: " << trace.ops.size() << " ops ("
      << (trace.op_bytes() + 1023) / 1024 << " KiB), " << trace.num_events
      << " events"
      << (trace.replayable ? "" : " -- not replayable (event limit), corners run full")
      << "\n";

  replay::ResimSession session(engine);
  for (const std::string& path : corners) {
    TimingGraph corner = engine.base_graph();
    const SdfFile sdf = read_sdf(read_input(env, path));
    const std::size_t applied = apply_sdf(corner, sdf);
    const replay::ResimSample sample = session.evaluate(
        corner, netlist.primary_outputs(), /*want_hash=*/true, &supervisor);
    out << "corner " << path << ": " << applied << " IOPATH record"
        << (applied == 1 ? "" : "s") << ", critical t50 "
        << format_double(sample.critical_t50, 9) << " ns, hash "
        << fnv_hex(sample.history_hash)
        << (sample.fallback ? " [full fallback]" : " [replayed]") << "\n";
  }
  if (session.fallbacks() > 0) {
    out << "fallbacks: " << session.fallbacks() << " / " << corners.size()
        << " corners\n";
  }
  return 0;
}

int cmd_sim(const Options& options, std::ostream& out, const ServiceEnv& env) {
  // The cross-flag rules the flag table cannot express.
  const bool serial = options.count("threads", 1) == 1 && options.count("partitions", 0) == 0;
  const bool replay = options.has("replay");
  if (replay && !options.has("sdf")) {
    throw UsageError("sim --replay needs --sdf corner file(s) to re-time");
  }
  if (replay && !serial) throw UsageError("sim --replay requires the serial kernel (--threads 1)");
  if (replay && (options.has("report") || options.has("vcd") || options.has("waves"))) {
    throw UsageError(
        "sim --replay re-times arrival times and waveform hashes only; "
        "drop --report/--vcd/--waves");
  }
  if (!serial && options.has("report")) {
    throw UsageError("--report requires the serial kernel (--threads 1)");
  }
  const std::unique_ptr<DelayModel> model = make_model(options);
  // One elaborated timing database for the run; --sdf back-annotates it
  // (the third-party-netlist scenario: IOPATH delays replace the library's
  // conventional part, the inertial/degradation treatment stays).  Under
  // --replay the flag instead lists corner files, so the elaboration skips
  // it (sim_replay_corners annotates its own graphs per corner).
  const std::shared_ptr<const serve::Elaboration> elab =
      service_elaboration(env, options, model->timing_policy(), /*want_sdf=*/!replay);
  const Netlist& netlist = elab->netlist;
  const Stimulus stimulus = load_stimulus(env, options, netlist);
  if (replay) {
    return sim_replay_corners(env, options, netlist, *model, stimulus, out);
  }
  if (options.has("sdf")) serve::print_sdf_facts(out, elab->sdf, options.text("sdf"));
  const TimingGraph& timing = elab->graph;

  SimConfig config;
  config.t_end = options.number("t-end", kNeverNs);
  const RunSupervisor supervisor = make_supervisor(options, env);

  const auto threads = static_cast<int>(options.count("threads", 1));
  const auto partitions = static_cast<std::uint32_t>(options.count("partitions", 0));

  const auto print_run = [&](const RunResult& result, const SimStats& stats) {
    out << "model: " << model->name() << "\n";
    out << "finished at t = " << format_double(result.end_time, 6) << " ns ("
        << (result.reason == StopReason::kQueueExhausted    ? "queue exhausted"
            : result.reason == StopReason::kHorizonReached  ? "horizon reached"
                                                            : "event limit")
        << ")\n";
    out << "events: processed " << stats.events_processed << ", filtered "
        << stats.filtered_events() << ", transitions "
        << stats.surviving_transitions() << "\n";
  };
  const auto print_finals = [&](const auto& sim) {
    out << "final output values:\n";
    for (const SignalId po : netlist.primary_outputs()) {
      out << "  " << netlist.signal(po).name << " = "
          << (sim.final_value(po) ? 1 : 0) << "\n";
    }
    if (options.has("hash")) {
      out << "history hash: " << fnv_hex(replay::hash_sim_history(sim)) << "\n";
    }
  };
  const auto print_waves = [&](const auto& sim, const RunResult& result) {
    if (!options.has("waves")) return;
    const TimeNs horizon = std::max(result.end_time, 1.0);
    AsciiPlot plot(0.0, horizon * 1.05, 100);
    for (const SignalId po : netlist.primary_outputs()) {
      plot.add_digital(netlist.signal(po).name,
                       DigitalWaveform::from_transitions(sim.initial_value(po),
                                                         sim.history(po)));
    }
    out << '\n' << plot.render();
  };

  if (threads != 1 || partitions != 0) {
    // Partitioned parallel kernel: bit-identical history at any thread
    // count (see src/core/partition.hpp).  The VCD export reads the serial
    // kernel's database, so --vcd fails the run here (exit 1).
    require(!options.has("vcd"), "--vcd requires the serial kernel (--threads 1)");
    PartitionedConfig pconfig;
    pconfig.threads = threads;
    pconfig.partitions = partitions;
    pconfig.sim = config;
    PartitionedSimulator sim(netlist, *model, timing, pconfig);
    sim.supervise(&supervisor);
    sim.apply_stimulus(stimulus);
    const RunResult result = sim.run();
    print_run(result, sim.stats());
    const WindowStats& ws = sim.window_stats();
    out << "partitions: " << sim.plan().k << ", windows " << ws.windows
        << ", boundary messages " << ws.messages;
    if (ws.fell_back_serial) {
      out << " (violations " << ws.violations << " -> serial fallback)";
    }
    out << "\n";
    print_finals(sim);
    print_waves(sim, result);
    return 0;
  }

  // Daemon workers recycle one pooled Simulator across requests
  // (SimulatorLease rebind()s it onto this request's elaboration -- results
  // are bit-identical to a fresh construction); local mode builds its own.
  std::unique_ptr<Simulator> owned_sim;
  Simulator* simp = nullptr;
  if (env.daemon() && env.io->lease != nullptr) {
    simp = &env.io->lease->acquire(elab, *model, config);
  } else {
    owned_sim = std::make_unique<Simulator>(netlist, *model, timing, config);
    simp = owned_sim.get();
  }
  Simulator& sim = *simp;
  sim.supervise(&supervisor);
  sim.apply_stimulus(stimulus);
  const RunResult result = sim.run();

  print_run(result, sim.stats());
  if (result.reason == StopReason::kEventLimit) {
    out << "event limit hit -- most active signals (possible oscillation):\n";
    for (const SignalId sig : sim.most_active_signals(5)) {
      out << "  " << netlist.signal(sig).name << ": " << sim.toggle_count(sig)
          << " transitions\n";
    }
  }
  print_finals(sim);
  if (options.has("report")) {
    out << '\n' << format_activity(compute_activity(sim), 20);
  }
  print_waves(sim, result);
  if (options.has("vcd")) {
    std::ostringstream bytes;
    vcd_from_simulator(sim).write(bytes);
    publish_artifact(env, options.text("vcd"), bytes.str(), out);
  }
  return 0;
}

/// Monte-Carlo per-gate delay variation.  With --replay, samples re-time
/// a recorded trace instead of re-simulating; the CSV/report artifacts
/// are byte-identical with or without it, at any thread count.
int cmd_variation(const Options& options, std::ostream& out, const ServiceEnv& env) {
  const std::unique_ptr<DelayModel> model = make_model(options);
  // Variation builds per-sample graphs itself, so only the parsed netlist
  // is consumed here -- it still flows through the shared elaboration so a
  // daemon serves it from (and primes) the same cache entry sim/sta use.
  const std::shared_ptr<const serve::Elaboration> elab =
      service_elaboration(env, options, model->timing_policy(), /*want_sdf=*/false);
  const Netlist& netlist = elab->netlist;
  const Stimulus stimulus = load_stimulus(env, options, netlist);

  replay::VariationConfig config;
  config.samples = static_cast<std::size_t>(options.count("samples", 200));
  config.seed = options.count("seed", 1);
  config.sigma = options.number("sigma", 0.1);
  config.threads = static_cast<int>(options.count("threads", 1));
  config.use_replay = options.has("replay");
  config.sim.t_end = options.number("t-end", kNeverNs);

  const RunSupervisor supervisor = make_supervisor(options, env);
  const replay::VariationResult result = replay::run_variation(
      netlist, *model, stimulus, netlist.primary_outputs(), config, &supervisor);

  out << replay::format_variation_report(result, config);
  if (result.replay_used) {
    // Console-only diagnostics: the artifacts below carry no mode, thread,
    // or fallback information (byte-identity across modes).
    out << "replay: " << (result.rows.size() - result.fallbacks) << " replayed, "
        << result.fallbacks << " full fallback" << (result.fallbacks == 1 ? "" : "s")
        << "\n";
  }
  if (options.has("csv")) {
    publish_artifact(env, options.text("csv"), replay::format_variation_csv(result), out);
  }
  if (options.has("out")) {
    publish_artifact(env, options.text("out"),
                     replay::format_variation_report(result, config), out);
  }
  return 0;
}

int cmd_analog(const Options& options, std::ostream& out) {
  const Netlist netlist = load_netlist(options);
  const Stimulus stimulus = load_stimulus({}, options, netlist);
  const TimeNs t_end = options.number("t-end", stimulus.last_edge_time() + 10.0);

  AnalogSim sim(netlist);
  sim.apply_stimulus(stimulus);
  sim.run(t_end);
  out << "analog reference: " << sim.steps() << " steps, " << sim.stage_evals()
      << " stage evaluations\n";
  out << "final output values:\n";
  for (const SignalId po : netlist.primary_outputs()) {
    out << "  " << netlist.signal(po).name << " = "
        << format_double(sim.voltage(po), 4) << " V\n";
  }
  if (options.has("csv")) {
    std::ostringstream csv;
    csv << "t_ns";
    for (const SignalId po : netlist.primary_outputs()) {
      csv << ',' << netlist.signal(po).name;
    }
    csv << '\n';
    const AnalogTrace& first = sim.trace(netlist.primary_outputs()[0]);
    for (std::size_t i = 0; i < first.size(); ++i) {
      csv << format_double(first.time_of(i), 6);
      for (const SignalId po : netlist.primary_outputs()) {
        csv << ',' << format_double(sim.trace(po).sample(i), 5);
      }
      csv << '\n';
    }
    publish_artifact({}, options.text("csv"), csv.str(), out);
  }
  return 0;
}

int cmd_sta(const Options& options, std::ostream& out, const ServiceEnv& env) {
  // STA reads the same elaborated arcs the simulator would evaluate;
  // --sdf analyzes the back-annotated database.
  const std::shared_ptr<const serve::Elaboration> elab =
      service_elaboration(env, options, TimingPolicy{}, /*want_sdf=*/true);
  if (options.has("sdf")) serve::print_sdf_facts(out, elab->sdf, options.text("sdf"));
  const StaticTimingAnalyzer sta(elab->netlist, elab->graph,
                                 options.number("slew", 0.5));
  const TimingReport report = sta.analyze();
  out << StaticTimingAnalyzer::format(report, elab->netlist);
  if (options.has("per-arc")) {
    out << '\n' << elab->graph.format_arcs();
  }
  return 0;
}

int cmd_lint(const Options& options, std::ostream& out) {
  const std::unique_ptr<DelayModel> model = make_model(options);
  const RunSupervisor supervisor = make_supervisor(options);
  const std::shared_ptr<const serve::Elaboration> elab =
      service_elaboration({}, options, model->timing_policy(), /*want_sdf=*/true);
  const Netlist& netlist = elab->netlist;
  const TimingGraph& timing = elab->graph;

  // SDF annotation progress and per-pin warnings go to the console only in
  // text mode: `--format json` on stdout must stay a pure JSON document
  // (the same information is in the TIM-SDF-MISSING findings).
  std::ostringstream timing_log;
  if (options.has("sdf")) serve::print_sdf_facts(timing_log, elab->sdf, options.text("sdf"));

  lint::LintOptions lint_options;
  lint_options.input_slew = options.number("slew", 0.5);
  lint_options.fanout_limit = static_cast<int>(options.count("fanout-limit", 64));
  lint_options.sdf_coverage = options.has("sdf");
  lint_options.supervisor = &supervisor;
  lint::LintReport report = lint::run_lint(netlist, timing, lint_options);

  if (options.has("baseline")) {
    lint::apply_baseline(report, lint::parse_baseline(read_input({}, options.text("baseline"))));
  }
  if (options.has("write-baseline")) {
    write_file_atomic(options.text("write-baseline"), lint::format_baseline(report));
  }

  const std::string format = options.text("format", "text");
  const std::string rendered = format == "json" ? lint::format_json(report, netlist)
                                                : lint::format_text(report);
  if (options.has("out")) {
    write_file_atomic(options.text("out"), rendered);
    out << timing_log.str();
    out << "wrote " << options.text("out") << " (" << report.findings.size() << " finding"
        << (report.findings.size() == 1 ? "" : "s") << ")\n";
  } else {
    if (format == "text") out << timing_log.str();
    out << rendered;
  }

  const std::string fail_on = options.text("fail-on", "error");
  if (fail_on == "none") return 0;
  const lint::Severity threshold =
      fail_on == "error" ? lint::Severity::kError : lint::Severity::kWarning;
  return lint::should_fail(report, threshold) ? 1 : 0;
}

int cmd_fault(const Options& options, std::ostream& out, const ServiceEnv& env) {
  const std::unique_ptr<DelayModel> model = make_model(options);
  const std::shared_ptr<const serve::Elaboration> elab =
      service_elaboration(env, options, model->timing_policy(), /*want_sdf=*/false);
  const Netlist& netlist = elab->netlist;
  const auto threads = static_cast<int>(options.count("threads", 0));
  const RunSupervisor supervisor = make_supervisor(options, env);
  const auto print_undetected = [&](const std::vector<Fault>& undetected) {
    if (undetected.empty()) return;
    out << "undetected:";
    for (const Fault& fault : undetected) out << ' ' << fault_name(netlist, fault);
    out << "\n";
  };

  if (options.has("atpg")) {
    AtpgOptions atpg;
    atpg.period = options.number("period", 5.0);
    atpg.max_candidates = static_cast<int>(options.count("candidates", 200));
    atpg.seed = options.count("seed", 1);
    atpg.threads = threads;
    atpg.supervisor = &supervisor;
    const AtpgResult result = generate_tests(netlist, *model, elab->graph, atpg);
    out << "ATPG: " << result.words.size() << " vectors, coverage " << result.detected
        << " / " << result.total_faults << " ("
        << format_double(100.0 * result.coverage(), 4) << "%)\n";
    out << "vectors (hex, PI bit 0 = " << netlist.signal(netlist.primary_inputs()[0]).name
        << "):";
    for (const std::uint64_t word : result.words) {
      char buffer[32];
      std::snprintf(buffer, sizeof buffer, " 0x%llX",
                    static_cast<unsigned long long>(word));
      out << buffer;
    }
    out << "\n";
    print_undetected(result.undetected);
    return 0;
  }

  const Stimulus stimulus = load_stimulus(env, options, netlist);
  require(stimulus.last_edge_time() > 0.0, "fault simulation needs a --stim file");

  FaultSimOptions sampling;
  sampling.sample_period = options.number("period", 5.0);
  const auto start = std::chrono::steady_clock::now();
  // The engine runs on the shared elaboration's graph (the daemon's cached
  // one on a warm hit), as ATPG above does.
  CampaignEngine engine(netlist, *model, elab->graph, threads);
  engine.supervise(&supervisor);
  const CampaignResult result = engine.run(stimulus, {}, sampling, true);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  out << "stuck-at coverage: " << result.detected << " / " << result.total << " ("
      << format_double(100.0 * result.coverage(), 4) << "%) under " << model->name()
      << "\n";
  out << "campaign: " << result.threads_used << " thread"
      << (result.threads_used == 1 ? "" : "s") << ", "
      << result.events_processed << " events, "
      << format_double(wall_s, 4) << " s ("
      << format_double(wall_s > 0.0 ? static_cast<double>(result.total) / wall_s : 0.0, 5)
      << " faults/sec)\n";
  if (result.errors > 0) {
    out << "errors: " << result.errors << " faulty run"
        << (result.errors == 1 ? "" : "s") << " failed";
    if (result.retried > 0) out << " (" << result.retried << " retried)";
    out << "; first: " << result.first_error << "\n";
  } else if (result.retried > 0) {
    out << "retried: " << result.retried << " faulty run"
        << (result.retried == 1 ? "" : "s") << " after a transient failure\n";
  }
  print_undetected(result.undetected);
  return result.errors > 0 ? 1 : 0;
}

int cmd_repro(const Options& options, std::ostream& out) {
  const repro::ExperimentRegistry registry = repro::ExperimentRegistry::builtin();

  if (options.has("list")) {
    out << "registered experiments:\n";
    for (const repro::Experiment& experiment : registry.experiments()) {
      char line[256];
      std::snprintf(line, sizeof line, "  %-24s %-42s %s\n", experiment.id.c_str(),
                    ("[paper " + experiment.paper_ref + "]").c_str(),
                    experiment.description.c_str());
      out << line;
    }
    return 0;
  }

  repro::RunOptions run_options;
  run_options.quick = options.has("quick");
  run_options.threads = static_cast<int>(options.count("threads", 0));
  for (const std::string& id : split(options.text("only"), ',')) {
    if (!id.empty()) run_options.only.push_back(id);
  }
  if (options.has("only") && run_options.only.empty()) {
    throw UsageError("--only needs at least one experiment id");
  }
  if (options.has("golden")) run_options.golden_text = read_input({}, options.text("golden"));
  const RunSupervisor supervisor = make_supervisor(options);
  run_options.supervisor = &supervisor;

  const auto start = std::chrono::steady_clock::now();
  const repro::RunReport report = repro::run_experiments(registry, run_options);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  // Write the artifact tree: <out>/<experiment>/<artifact>, plus the report
  // and the flat hash listing (HASHES.txt is byte-compatible with the
  // committed golden file).  All crash-safe: temp file + atomic rename, so
  // an aborted run never leaves a torn artifact behind.
  const std::filesystem::path out_dir{options.text("out", "repro-out")};
  std::filesystem::create_directories(out_dir);
  for (const repro::ExperimentOutcome& outcome : report.outcomes) {
    std::filesystem::create_directories(out_dir / outcome.id);
    for (const repro::Artifact& artifact : outcome.result.artifacts) {
      write_file_atomic(out_dir / outcome.id / artifact.name, artifact.content);
    }
  }
  write_file_atomic(out_dir / "REPORT.md", repro::format_report_markdown(report));
  // The header makes HASHES.txt self-describing, so blessing new goldens is
  // exactly `cp HASHES.txt tests/repro/golden_quick.txt` (comments survive
  // the copy; parse_goldens skips them).
  const std::string hashes_header =
      std::string("# HALOTIS repro artifact hashes (") +
      (run_options.quick ? "quick" : "full") +
      " mode); format: <experiment> <artifact> <fnv1a64>.\n"
      "# Bless as goldens (quick mode only): cp HASHES.txt "
      "tests/repro/golden_quick.txt -- see docs/REPRODUCTION.md.\n";
  write_file_atomic(out_dir / "HASHES.txt",
                    hashes_header + repro::format_goldens(report.hashes()));

  // Console summary (wall time and verdicts stay out of the artifacts).
  for (const repro::ExperimentOutcome& outcome : report.outcomes) {
    char line[256];
    std::snprintf(line, sizeof line, "  %-24s %-38s %s\n", outcome.id.c_str(),
                  ("[paper " + outcome.paper_ref + "]").c_str(),
                  !outcome.error.empty() ? "ERROR"
                  : outcome.failed()     ? "GOLDEN MISMATCH"
                                         : "ok");
    out << line;
    if (!outcome.error.empty()) out << "    " << outcome.error << "\n";
  }
  out << "wrote " << (out_dir / "REPORT.md").string() << " ("
      << report.outcomes.size() << " experiments, " << report.artifacts_total
      << " artifacts, " << format_double(wall_s, 4) << " s)\n";
  if (report.compared_goldens) {
    out << "golden hashes: " << report.golden_matches << "/" << report.artifacts_total
        << " match";
    if (report.golden_mismatches > 0) {
      out << ", " << report.golden_mismatches << " MISMATCH";
    }
    if (report.golden_missing > 0) out << ", " << report.golden_missing << " without golden";
    if (!report.stale_goldens.empty()) {
      out << ", " << report.stale_goldens.size() << " stale";
    }
    out << "\n";
  }
  return report.ok() ? 0 : 1;
}

int cmd_convert(const Options& options, std::ostream& out) {
  const Netlist netlist = load_netlist(options);
  const std::string to = options.text("to");
  std::string text;
  if (to == "bench") {
    text = write_bench(netlist);
  } else if (to == "verilog") {
    text = write_verilog(netlist);
  } else if (to == "native") {
    text = write_netlist(netlist);
  } else {  // sdf
    text = write_sdf(netlist, options.number("slew", 0.5));
  }
  if (options.has("out")) {
    publish_artifact({}, options.text("out"), std::move(text), out);
  } else {
    out << text;
  }
  return 0;
}

/// `halotis serve`: the resident daemon (docs/DAEMON.md).  Binds the Unix
/// socket, parks the worker pool in accept loops, and blocks until SIGINT
/// or SIGTERM trips the process token -- then drains, unlinks the socket
/// and reports what it served.
int cmd_serve(const Options& options, std::ostream& out) {
  serve::ServeOptions serve_options;
  serve_options.socket_path = options.text("socket");
  serve_options.threads = static_cast<int>(options.count("threads", 0));
  serve_options.cache_bytes =
      static_cast<std::size_t>(options.number("cache-mb", 256.0) * 1024.0 * 1024.0);
  serve_options.idle_timeout_ms = static_cast<int>(options.count("idle-timeout-ms", 30000));
  serve_options.stop = cli_cancel_token();
  // SIGTERM drains exactly like Ctrl-C: systemd stop / CI teardown get a
  // clean socket unlink and only whole artifacts.
  install_sigterm_cancel(cli_cancel_token());

  serve::Server server(
      serve_options,
      [](const std::vector<std::string>& request_args, serve::ServeContext& context,
         serve::RequestIo& io, std::ostream& request_out, std::ostream& request_err) {
        return run_cli_service(request_args, request_out, request_err, &context, &io);
      });
  out << "serving on " << serve_options.socket_path << " (" << server.threads()
      << " worker" << (server.threads() == 1 ? "" : "s") << ", cache "
      << serve_options.cache_bytes / (1024 * 1024) << " MiB)\n";
  out.flush();
  server.run();

  const serve::Server::Stats stats = server.stats();
  const serve::ElabCache::Stats cache = server.cache_stats();
  out << "drained: " << stats.requests << " request" << (stats.requests == 1 ? "" : "s")
      << " over " << stats.connections << " connection"
      << (stats.connections == 1 ? "" : "s") << ", cache " << cache.hits << " hit"
      << (cache.hits == 1 ? "" : "s") << " / " << cache.misses << " miss"
      << (cache.misses == 1 ? "" : "es") << ", " << stats.protocol_errors
      << " protocol error" << (stats.protocol_errors == 1 ? "" : "s") << ", "
      << stats.aborted_connections << " aborted connection"
      << (stats.aborted_connections == 1 ? "" : "s") << "\n";
  return 0;
}

/// `--connect PATH` interception (local mode): ship the command's argv and
/// input files to a resident daemon, write the returned artifacts
/// atomically on this side, relay the captured console bytes -- a
/// successful exchange is byte-identical to running the command locally.
/// The table decides what ships (the files of kInputFile rows) and what
/// stays here (kClientSide rows: --connect itself, and --failpoints, already
/// armed in this process so the io.* sites fire on the client-side writes).
int run_connect(const Options& options, std::ostream& out, std::ostream& err) {
  std::vector<std::pair<std::string, std::string>> files;
  std::vector<std::string> forwarded{std::string(options.command->name)};
  for (const Options::Value& value : options.values) {
    if ((value.spec->traits & kClientSide) != 0) continue;
    forwarded.push_back("--" + std::string(value.spec->name));
    if (value.spec->kind != kBool) forwarded.push_back(value.text);
    if ((value.spec->traits & kInputFile) == 0) continue;
    // `sim --replay` corners: --sdf lists several files, comma-separated.
    const bool corners =
        value.spec->name == "sdf" && options.command->bit == kSim && options.has("replay");
    for (const std::string& path : corners ? split(value.text, ',')
                                           : std::vector<std::string>{value.text}) {
      if (!path.empty()) files.emplace_back(path, read_input({}, path));
    }
  }
  return serve::run_connected(options.text("connect"), forwarded, files, out, err,
                              &cli_cancel_token());
}

}  // namespace

const CancelToken& cli_cancel_token() {
  static const CancelToken token;
  return token;
}

std::string cli_usage() {
  std::string usage =
      "halotis -- high-accuracy logic timing simulator (IDDM)\n\n"
      "usage: halotis <command> [flags]\n\ncommands:\n";
  const auto add_flag = [&usage](const FlagSpec& spec) {
    std::string synopsis = "    --" + std::string(spec.name);
    if (!spec.arg.empty()) synopsis += " " + std::string(spec.arg);
    synopsis.resize(std::max<std::size_t>(synopsis.size() + 2, 30), ' ');
    usage += synopsis + std::string(spec.help) +
             ((spec.traits & kRequired) != 0 ? " (required)\n" : "\n");
  };
  for (const CommandSpec& command : kCommands) {
    usage += "  " + std::string(command.name) + " -- " + std::string(command.summary) + "\n";
    for (const FlagSpec& spec : kFlags) {
      const bool shared = std::ranges::find(kGroups, spec.commands) != std::end(kGroups);
      if ((spec.commands & command.bit) != 0 && !shared) add_flag(spec);
    }
  }
  for (const unsigned group : kGroups) {  // each under the commands that take it
    usage += "\n" + command_list(group) + ":\n";
    for (const FlagSpec& spec : kFlags) {
      if (spec.commands == group) add_flag(spec);
    }
  }
  return usage +
         "\nCtrl-C cancels cooperatively (exit 5); artifacts are written via temp file +\n"
         "atomic rename, so no partial file survives any failure.\n\n"
         "exit codes: 0 ok, 1 error, 2 usage, 3 budget, 4 deadline, 5 cancelled, 6 I/O\n";
}

int run_cli(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  return run_cli_service(args, out, err, nullptr, nullptr);
}

int run_cli_service(const std::vector<std::string>& args, std::ostream& out,
                    std::ostream& err, serve::ServeContext* context,
                    serve::RequestIo* io) {
  const ServiceEnv env{context, io};
  // Fail-point arming is scoped to this invocation: sites armed from the
  // environment or --failpoints are disarmed on every exit path so repeated
  // in-process calls (tests) stay isolated.  Sites armed through the test
  // API before the call are intentionally cleared too -- arm per call.
  // Daemon-side requests never touch the registry: the sites stay whatever
  // the daemon process armed (per-request arming would race across
  // workers).
  bool armed_failpoints = false;
  struct DisarmGuard {
    bool* armed;
    ~DisarmGuard() {
      if (*armed) FailPoints::instance().disarm_all();
    }
  } disarm_guard{&armed_failpoints};
  try {
    if (args.empty() || args[0] == "help" || args[0] == "--help") {
      out << cli_usage();
      return args.empty() ? 2 : 0;
    }
    const auto command = std::find_if(std::begin(kCommands), std::end(kCommands),
                                      [&](const CommandSpec& c) { return c.name == args[0]; });
    if (command == std::end(kCommands)) {
      err << "unknown command '" << args[0] << "'\n" << cli_usage();
      return 2;
    }
    const Options options = parse_args(*command, args);
    if (env.daemon()) {
      // The daemon serves the commands whose inputs ship in the request
      // frame and whose elaborations cache; everything else -- and anything
      // process-global -- is a usage error back to the client.
      if ((command->bit & kRoutable) == 0) {
        throw UsageError("daemon serves " + command_list(kRoutable) + " (got '" + args[0] +
                         "')");
      }
      for (const Options::Value& value : options.values) {
        if ((value.spec->traits & kClientSide) != 0) {
          throw UsageError("--" + std::string(value.spec->name) +
                           " is client-side; it cannot be forwarded to a daemon");
        }
      }
    } else {
      const char* env_spec = std::getenv("HALOTIS_FAILPOINTS");
      const std::string failpoint_spec =
          options.text("failpoints", env_spec != nullptr ? env_spec : "");
      if (!failpoint_spec.empty()) {
        FailPoints::instance().arm_spec(failpoint_spec);
        armed_failpoints = true;
      }
      if (options.has("connect")) return run_connect(options, out, err);
    }
    const std::string_view name = command->name;
    if (name == "sim") return cmd_sim(options, out, env);
    if (name == "variation") return cmd_variation(options, out, env);
    if (name == "analog") return cmd_analog(options, out);
    if (name == "sta") return cmd_sta(options, out, env);
    if (name == "lint") return cmd_lint(options, out);
    if (name == "fault") return cmd_fault(options, out, env);
    if (name == "repro") return cmd_repro(options, out);
    if (name == "convert") return cmd_convert(options, out);
    return cmd_serve(options, out);
  } catch (const UsageError& e) {
    err << "usage error: " << e.what() << "\n" << cli_usage();
    return 2;
  } catch (const RunError& e) {
    // The structured taxonomy maps onto documented exit codes (README.md):
    // 3 budget, 4 deadline, 5 cancelled, 6 I/O, 1 contract violation.
    err << "error (" << RunError::kind_name(e.kind()) << "): " << e.what() << "\n";
    return e.exit_code();
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace halotis
