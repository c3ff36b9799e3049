// Shared pieces of the benchmark runner: the run context, the daemon
// handle, sample statistics and the result that ends every run.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/check.hpp"
#include "perfbench/src/inputs.hpp"
#include "perfbench/src/proc.hpp"

namespace perfbench {

struct Context {
  Workload workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  std::string halotis;             ///< absolute path of the program under test
  std::filesystem::path work;      ///< absolute scratch directory of this run
  std::vector<Expected> expected;  ///< per catalog op, from reference_run
};

/// The argv a client process runs for `op`: daemon workloads route it
/// through the benchmark's `halotis serve` with --connect.
[[nodiscard]] std::vector<std::string> client_args(const Context& ctx, const Op& op);

/// `halotis serve --socket d.sock --threads 4` in the work directory.
struct Daemon {
  std::unique_ptr<Child> child;
  double setup_s = 0.0;  ///< spawn to first successful connect
};
[[nodiscard]] Daemon start_daemon(const Context& ctx);

/// What the daemon's "drained:" line reported.
struct DrainStats {
  bool parsed = false;
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t protocol_errors = 0;
  long max_rss_kb = 0;
};
/// SIGTERMs the daemon, waits for the drain and parses its report.
[[nodiscard]] DrainStats stop_daemon(const Context& ctx, Daemon& daemon);

/// Python's statistics.quantiles(method="exclusive") at probability `p`
/// (clamped to the sample range); `values` need not be sorted.
[[nodiscard]] double quantile(std::vector<double> values, double p);
[[nodiscard]] double median(const std::vector<double>& values);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Prints "name value unit" plus the median, quartiles, min, max and count
/// of the samples a metric was computed from.
void print_samples(const std::string& name, const std::string& unit,
                   const std::vector<double>& samples);

/// Trace 0: end-to-end metrics of real `halotis` processes.
[[nodiscard]] Result run_measured(Context& ctx);
/// Trace 1: the same ops in-process with a span around every layer call.
[[nodiscard]] Result run_traced(Context& ctx);

}  // namespace perfbench
