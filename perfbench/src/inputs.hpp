// Seeded workload inputs: one function maps (workload, seed) to every
// netlist and stimulus file the benchmark hands to `halotis`, plus the
// catalog of distinct invocations (ops) a workload issues over them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/base/rng.hpp"

namespace perfbench {

/// One `halotis` invocation.  Paths in `args` are relative to a client
/// directory that sits next to the `inputs/` directory, so the same argv
/// runs in-process (reference), as a local process and through the daemon.
struct Op {
  std::string kind;               ///< sim | sta | lint | fault | variation
  std::vector<std::string> args;  ///< argv without argv[0]
  std::string netlist;            ///< file name under inputs/
  std::string stim;               ///< file name under inputs/, empty for none
  std::string vcd;                ///< artifact path in the client dir, or empty
  std::string model = "ddm";      ///< --model (default of the CLI)
  int threads = 1;                ///< --threads as given (1 when absent)
  std::size_t samples = 0;        ///< variation samples (0 for other kinds)
};

struct Workload {
  std::string name;
  /// inputs/<name> -> bytes.  Ordered, so writing them is deterministic.
  std::map<std::string, std::string> files;
  std::vector<Op> catalog;  ///< every distinct op
  int clients = 1;
  bool daemon = false;      ///< ops carry --connect to one `halotis serve`
  /// Batch workloads run the catalog in order, one round after another;
  /// request workloads draw each op from a seeded per-client stream.
  bool batch = false;
};

/// The four workloads, in the order `--all` runs them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Builds every input of `name` from `seed`.  `mult8_bench` is the bytes of
/// the tests/data/mult8.bench fixture.  Throws std::invalid_argument on an
/// unknown workload name.
[[nodiscard]] Workload make_workload(const std::string& name, std::uint64_t seed,
                                     const std::string& mult8_bench);

/// The seeded op stream of one request-workload client.  Ops are dealt
/// from shuffled decks that hold every design in equal measure: per design,
/// 2 `sta` and 9 `sim --hash` (3 per stimulus, one of the 9 with --vcd), so
/// about 80% of ops are sims and 1 in 9 sims writes a VCD.  Dealing whole
/// decks keeps the op mix of every run exact, so a run's latency quantiles
/// do not drift with the seed's draw.  Identical for the same (seed,
/// client): cold_requests and daemon_requests issue the same sequence.
class OpStream {
 public:
  OpStream(const Workload& workload, std::uint64_t seed, int client);
  /// Index into workload.catalog of the next op.
  [[nodiscard]] std::size_t next();

 private:
  void deal();

  halotis::SplitMix64 rng_;
  std::size_t designs_;
  std::vector<std::size_t> deck_;
  std::size_t position_ = 0;
};

/// Stimuli per request-workload design (the catalog holds, per design, one
/// sta op and a plain and a --vcd sim op per stimulus).
inline constexpr std::size_t kStimsPerDesign = 3;

}  // namespace perfbench
