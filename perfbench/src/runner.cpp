// The HALOTIS benchmark runner.
//
//   perfbench_runner --workload W --seed N --seconds S --trace 0|1
//                    --halotis PATH [--commit SHA] [--corrupt-expected]
//
// Run from the checkout root (perfbench/run.py builds and invokes it).  It
// generates the workload's inputs from the seed, records the reference
// output of every distinct op in-process, then either times real
// `halotis` processes (trace 0) or runs the same ops in-process with a
// span around every layer call (trace 1).  The last stdout line is the
// JSON result; the lines before it name every metric with its unit and
// the spread of the samples behind it.  perfbench/README.md has the
// workloads and metrics.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "perfbench/src/bench.hpp"
#include "src/base/supervision.hpp"
#include "src/serve/socket_io.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}


}  // namespace

std::vector<std::string> client_args(const Context& ctx, const Op& op) {
  std::vector<std::string> args = op.args;
  if (ctx.workload.daemon) {
    args.push_back("--connect");
    args.push_back("../d.sock");
  }
  return args;
}

Daemon start_daemon(const Context& ctx) {
  Daemon daemon;
  const auto start = Clock::now();
  daemon.child = std::make_unique<Child>(
      ctx.halotis, std::vector<std::string>{"serve", "--socket", "d.sock", "--threads", "4"},
      ctx.work.string(), (ctx.work / "daemon.out").string(),
      (ctx.work / "daemon.err").string());
  // A relative socket path fits sun_path wherever the checkout lives.
  const std::string socket = std::filesystem::relative(ctx.work / "d.sock").string();
  for (;;) {
    try {
      (void)halotis::serve::connect_unix(socket);
      break;
    } catch (const halotis::RunError&) {
      if (seconds_since(start) > 60.0) throw std::runtime_error("daemon never accepted");
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  daemon.setup_s = seconds_since(start);
  return daemon;
}

DrainStats stop_daemon(const Context& ctx, Daemon& daemon) {
  DrainStats stats;
  (void)daemon.child->terminate();
  stats.max_rss_kb = daemon.child->max_rss_kb();
  daemon.child.reset();
  const std::string out = read_file(ctx.work / "daemon.out");
  const std::size_t at = out.find("drained: ");
  if (at == std::string::npos) return stats;
  // "drained: R requests over C connections, cache H hits / M misses, P protocol errors, ..."
  const std::string line = out.substr(at, out.find('\n', at) - at);
  const auto requests = parse_count(line, "drained: ");
  const auto hits = parse_count(line, "cache ");
  const auto misses = parse_count(line, "/ ");
  const std::size_t errors_at = line.find(" protocol error");
  const std::size_t comma = line.rfind(", ", errors_at);
  if (!requests || !hits || !misses || errors_at == std::string::npos ||
      comma == std::string::npos) {
    return stats;
  }
  stats.requests = *requests;
  stats.hits = *hits;
  stats.misses = *misses;
  stats.protocol_errors = std::strtoull(line.c_str() + comma + 2, nullptr, 10);
  stats.parsed = true;
  return stats;
}

double quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  // Exclusive method: position p * (n + 1) on the 1-based order statistics.
  const double pos = std::clamp(p * (n + 1.0), 1.0, n);
  const auto lo = static_cast<std::size_t>(std::floor(pos)) - 1;
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - std::floor(pos);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  return n % 2 == 1 ? sorted[n / 2] : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

void print_samples(const std::string& name, const std::string& unit,
                   const std::vector<double>& samples) {
  if (samples.empty()) {
    std::printf("  %-32s (no samples)\n", name.c_str());
    return;
  }
  std::printf("  %-32s median %.6g %s  q1 %.6g  q3 %.6g  min %.6g  max %.6g  n %zu\n",
              name.c_str(), median(samples), unit.c_str(), quantile(samples, 0.25),
              quantile(samples, 0.75), *std::min_element(samples.begin(), samples.end()),
              *std::max_element(samples.begin(), samples.end()), samples.size());
}

// ---- trace 0: real processes ---------------------------------------------

namespace {

struct Sample {
  std::size_t op = 0;
  double wall_s = 0.0;
  long rss_kb = 0;
  std::uint64_t events = 0;
  bool ok = false;
};

/// Runs catalog op `index` as a process in `dir` and checks its output.
Sample run_op(const Context& ctx, std::size_t index, const std::filesystem::path& dir) {
  const Op& op = ctx.workload.catalog[index];
  Sample sample;
  sample.op = index;
  const ProcResult r = run_process(ctx.halotis, client_args(ctx, op), dir.string(),
                                   (dir / "err.txt").string());
  const std::string vcd = op.vcd.empty() ? std::string() : take_file(dir / op.vcd);
  sample.wall_s = r.wall_s;
  sample.rss_kb = r.max_rss_kb;
  sample.events = parse_count(r.out, "events: processed ").value_or(0);
  sample.ok = output_matches(op, ctx.expected[index], r.exit_code, r.out, vcd);
  if (!sample.ok) {
    std::fprintf(stderr, "op %zu (%s) failed: exit %d\n%s", index, op.kind.c_str(),
                 r.exit_code, read_file(dir / "err.txt").c_str());
  }
  return sample;
}

/// The op whose untimed runs stand for set-up on the non-daemon workloads:
/// the first sim of the catalog (sim on mult8 for the request streams).
std::size_t warmup_op(const Workload& w) { return w.batch ? 0 : 1; }

/// Set-ups per run: the request streams' take milliseconds, the batch
/// workloads' (a warm-up job) up to seconds.
int setups_per_run(const Workload& w) { return w.batch ? 3 : 11; }

}  // namespace

Result run_measured(Context& ctx) {
  const Workload& w = ctx.workload;
  Result result;
  std::vector<double> setups;
  long peak_rss_kb = 0;
  Daemon daemon;

  // Set-up, repeated so its median is steady, half before the timed loop
  // and half after it, so that one slow moment of the host does not set it:
  // a fresh daemon each time (the last one before the loop serves it), or
  // the untimed warm-up op.
  const std::filesystem::path setup_dir = ctx.work / "setup";
  const auto set_up = [&] {
    if (w.daemon) {
      if (daemon.child) (void)stop_daemon(ctx, daemon);
      daemon = start_daemon(ctx);
      setups.push_back(daemon.setup_s);
    } else {
      const Sample sample = run_op(ctx, warmup_op(w), setup_dir);
      ++result.attempted;
      if (!sample.ok) ++result.failed;
      peak_rss_kb = std::max(peak_rss_kb, sample.rss_kb);
      setups.push_back(sample.wall_s);
    }
  };
  const int setups_before = (setups_per_run(w) + 1) / 2;
  for (int s = 0; s < setups_before; ++s) set_up();

  // Closed loop: each client issues its next op when the previous exits.
  std::vector<std::vector<Sample>> samples(static_cast<std::size_t>(w.clients));
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration<double>(ctx.seconds);
  std::vector<Clock::time_point> finished(samples.size(), start);
  std::vector<std::string> errors(samples.size());
  const auto client = [&](int c) {
    try {
      OpStream stream(w, ctx.seed, c);
      const std::filesystem::path dir = ctx.work / ("c" + std::to_string(c));
      std::size_t position = 0;
      while (Clock::now() < deadline || (w.batch && position % w.catalog.size() != 0)) {
        const std::size_t index = w.batch ? position % w.catalog.size() : stream.next();
        ++position;
        samples[static_cast<std::size_t>(c)].push_back(run_op(ctx, index, dir));
      }
      finished[static_cast<std::size_t>(c)] = Clock::now();
    } catch (const std::exception& e) {
      errors[static_cast<std::size_t>(c)] = e.what();
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < w.clients; ++c) threads.emplace_back(client, c);
  for (std::thread& t : threads) t.join();
  for (const std::string& error : errors) {
    if (!error.empty()) throw std::runtime_error(error);
  }
  const double elapsed =
      std::chrono::duration<double>(*std::max_element(finished.begin(), finished.end()) -
                                    start)
          .count();

  DrainStats drain;
  if (w.daemon) {
    drain = stop_daemon(ctx, daemon);
    peak_rss_kb = std::max(peak_rss_kb, drain.max_rss_kb);
    if (!drain.parsed || drain.protocol_errors != 0) {
      std::fprintf(stderr, "daemon drain report missing or shows protocol errors\n");
      result.correct = false;
    }
  }
  for (int s = setups_before; s < setups_per_run(w); ++s) set_up();
  if (daemon.child) (void)stop_daemon(ctx, daemon);

  // Each op's samples, by catalog index.  The request streams mix a few
  // dozen distinct ops whose times sit in separate clusters, and a quantile
  // of the pooled times (the median sim, say) can fall in the gap between
  // two clusters, where it jumps with small shifts of either.  So every
  // time metric takes the median of each distinct op's own samples and
  // averages those over the ops of the run: op `i` counts once per time it
  // ran, which keeps the run's op mix.
  std::vector<std::vector<double>> walls(w.catalog.size());
  std::vector<std::uint64_t> op_events(w.catalog.size(), 0);
  std::vector<double> all_ms;
  std::map<std::string, std::vector<double>> by_kind;
  for (const auto& client_samples : samples) {
    for (const Sample& s : client_samples) {
      ++result.attempted;
      if (!s.ok) ++result.failed;
      peak_rss_kb = std::max(peak_rss_kb, s.rss_kb);
      all_ms.push_back(s.wall_s * 1e3);
      by_kind[w.catalog[s.op].kind].push_back(s.wall_s);
      walls[s.op].push_back(s.wall_s);
      op_events[s.op] = s.events;
    }
  }
  if (result.failed != 0) result.correct = false;

  // Per op kind ("" for all of them): how many ops ran, their summed time
  // with each op's median standing for it, and their summed events.
  struct Mix {
    double ops = 0.0, seconds = 0.0, events = 0.0;
    [[nodiscard]] double mean_s() const { return ops > 0.0 ? seconds / ops : 0.0; }
  };
  std::map<std::string, Mix> mix;
  double faults = 0.0, fault_s = 0.0, var_samples = 0.0, var_s = 0.0;
  for (std::size_t i = 0; i < w.catalog.size(); ++i) {
    if (walls[i].empty()) continue;
    const Op& op = w.catalog[i];
    const double n = static_cast<double>(walls[i].size());
    const double op_s = n * median(walls[i]);
    for (const std::string& kind : {std::string(), op.kind}) {
      Mix& m = mix[kind];
      m.ops += n;
      m.seconds += op_s;
      m.events += n * static_cast<double>(op_events[i]);
    }
    if (op.kind == "fault") {
      faults += n * static_cast<double>(parse_count(ctx.expected[i].out, " / ").value_or(0));
      fault_s += op_s;
    }
    if (op.kind == "variation") {
      var_samples += n * static_cast<double>(op.samples);
      var_s += op_s;
    }
  }

  // One pass of the workload's analysis jobs: the sum over its non-sim op
  // kinds of each kind's mean op time (sta; lint; fault + variation).
  double analysis_s = 0.0;
  for (const auto& [kind, m] : mix) {
    if (!kind.empty() && kind != "sim") analysis_s += m.mean_s();
  }
  const Mix& sims = mix["sim"];
  result.metrics = {
      {"setup_s", median(setups), "s"},
      {"latency_ms", mix[""].mean_s() * 1e3, "ms"},
      {"sim_wall_s", sims.mean_s(), "s"},
      {"analysis_wall_s", analysis_s, "s"},
      {"events_per_s", sims.seconds > 0.0 ? sims.events / sims.seconds : 0.0, "1/s"},
      {"peak_rss_mb", static_cast<double>(peak_rss_kb) / 1024.0, "MiB"},
  };

  std::printf("samples (spread within this run):\n");
  print_samples("setup_s", "s", setups);
  print_samples("latency_ms", "ms", all_ms);
  for (const auto& [kind, walls] : by_kind) print_samples(kind + "_wall_s", "s", walls);
  // Figures of one workload only, 0 at the baseline, or moved by the host's
  // scheduling hiccups more than a bound can hold: printed and kept in the
  // --all record, but not end-to-end metrics of BENCHMARK.json.
  std::printf("workload-specific figures:\n");
  const auto figure = [](const char* name, double value, const char* unit) {
    std::printf("  %-32s %.9g %s\n", name, value, unit);
  };
  figure("failed_share",
         static_cast<double>(result.failed) / static_cast<double>(result.attempted), "ratio");
  figure("ops_per_s", static_cast<double>(all_ms.size()) / elapsed, "1/s");
  // Thousands of ops per run: p95 leaves far more than ten beyond it.
  if (!w.batch) figure("latency_p95_ms", quantile(all_ms, 0.95), "ms");
  if (by_kind.count("lint")) figure("lint_wall_s", median(by_kind["lint"]), "s");
  if (fault_s > 0.0) figure("faults_per_s", faults / fault_s, "1/s");
  if (var_s > 0.0) figure("samples_per_s", var_samples / var_s, "1/s");
  if (w.daemon) {
    figure("daemon_cache_hit_ratio",
           static_cast<double>(drain.hits) / static_cast<double>(drain.hits + drain.misses),
           "ratio");
    std::printf("daemon drained: %llu requests, %llu hits / %llu misses, %llu protocol errors\n",
                static_cast<unsigned long long>(drain.requests),
                static_cast<unsigned long long>(drain.hits),
                static_cast<unsigned long long>(drain.misses),
                static_cast<unsigned long long>(drain.protocol_errors));
  }
  return result;
}

}  // namespace perfbench

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

int usage(const char* message) {
  std::fprintf(stderr,
               "perfbench_runner: %s\nusage: perfbench_runner --workload W --seed N "
               "--seconds S --trace 0|1 --halotis PATH [--commit SHA] "
               "[--corrupt-expected]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) return usage(("unexpected argument " + arg).c_str());
    if (arg == "--corrupt-expected") {
      flags[arg.substr(2)] = "1";
    } else if (i + 1 < argc) {
      flags[arg.substr(2)] = argv[++i];
    } else {
      return usage(("missing value for " + arg).c_str());
    }
  }
  for (const char* required : {"workload", "seed", "seconds", "trace", "halotis"}) {
    if (!flags.count(required)) return usage((std::string("missing --") + required).c_str());
  }

  try {
    const std::filesystem::path root = std::filesystem::current_path();
    const std::string mult8 = [&] {
      std::ifstream in(root / "tests/data/mult8.bench", std::ios::binary);
      if (!in.good()) throw std::runtime_error("tests/data/mult8.bench not found");
      std::ostringstream bytes;
      bytes << in.rdbuf();
      return bytes.str();
    }();

    Context ctx;
    ctx.seed = std::stoull(flags["seed"]);
    ctx.seconds = std::stod(flags["seconds"]);
    const bool trace = flags["trace"] == "1";
    ctx.halotis = std::filesystem::absolute(flags["halotis"]).string();
    if (!std::filesystem::exists(ctx.halotis)) throw std::runtime_error("no program at " + ctx.halotis);
    ctx.workload = make_workload(flags["workload"], ctx.seed, mult8);
    ctx.work = root / ".bench_work" / (ctx.workload.name + "-" + std::to_string(::getpid()));
    std::filesystem::remove_all(ctx.work);
    for (const char* dir : {"inputs", "expected", "setup", "c0", "c1", "traced"}) {
      std::filesystem::create_directories(ctx.work / dir);
    }
    // Removes the scratch directory on every exit path.
    struct Cleanup {
      std::filesystem::path dir;
      ~Cleanup() {
        std::error_code ignored;
        std::filesystem::remove_all(dir, ignored);
      }
    } cleanup{ctx.work};

    for (const auto& [name, bytes] : ctx.workload.files) {
      std::ofstream(ctx.work / "inputs" / name, std::ios::binary) << bytes;
    }
    bool references_ok = true;
    for (const Op& op : ctx.workload.catalog) {
      ctx.expected.push_back(reference_run(op, ctx.work / "expected"));
      if (ctx.expected.back().exit_code != 0) {
        std::fprintf(stderr, "reference run of '%s' exited %d\n", op.args[0].c_str(),
                     ctx.expected.back().exit_code);
        references_ok = false;
      }
    }
    if (flags.count("corrupt-expected")) {
      // Self-check of the output check: one flipped byte in every expected
      // stdout must turn every op into a failure.
      for (Expected& e : ctx.expected) {
        if (!e.out.empty()) e.out.back() ^= 0x01;
      }
    }

    std::printf(
        "host: {\"nproc\": %u, \"cpu\": \"%s\", \"compiler\": \"%s\", \"build_type\": "
        "\"%s\", \"commit\": \"%s\"}\n",
        std::thread::hardware_concurrency(), json_escape(cpu_model()).c_str(),
        json_escape(PERFBENCH_COMPILER).c_str(), json_escape(PERFBENCH_BUILD_TYPE).c_str(),
        json_escape(flags.count("commit") ? flags["commit"] : "unknown").c_str());
    std::printf("workload: %s, seed %llu, seconds %g, trace %d, %d client%s%s\n",
                ctx.workload.name.c_str(), static_cast<unsigned long long>(ctx.seed),
                ctx.seconds, trace ? 1 : 0, ctx.workload.clients,
                ctx.workload.clients == 1 ? "" : "s",
                ctx.workload.daemon ? ", through halotis serve --threads 4" : "");
    std::fflush(stdout);

    Result result = trace ? run_traced(ctx) : run_measured(ctx);
    if (!references_ok) result.correct = false;

    std::printf("metrics:\n");
    for (const Metric& m : result.metrics) {
      std::printf("  %-32s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::string json = "{\"correct\": ";
    json += result.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(result.attempted);
    json += ", \"failed\": " + std::to_string(result.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
      const Metric& m = result.metrics[i];
      char value[64];
      std::snprintf(value, sizeof value, "%.17g",
                    std::isfinite(m.value) ? m.value : 0.0);
      json += (i ? ", \"" : "\"") + json_escape(m.name) + "\": {\"value\": " + value +
              ", \"unit\": \"" + json_escape(m.unit) + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 1;
  }
}
