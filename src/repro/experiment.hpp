// The paper-reproduction experiment registry.
//
// Each registered Experiment names a figure or table of the HALOTIS paper
// (or a mechanism of section 3), builds its circuit from the src/circuits
// generators, runs it under the relevant delay models, and returns
// deterministic artifacts (CSV data series, VCD traces) plus the ordered
// metrics and narrative that the runner assembles into the Markdown
// report.  The registry is the canonical list `halotis repro` executes;
// tests/repro/golden_quick.txt pins every quick-mode artifact hash.
//
// Experiments must be pure functions of (context) -- deterministic,
// independent of each other, and safe to run concurrently on different
// worker threads (the runner shards them across a WorkerPool).
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/netlist/library.hpp"
#include "src/repro/artifacts.hpp"

namespace halotis::repro {

/// Inputs every experiment receives.
struct ExperimentContext {
  const Library& lib;  ///< the default characterized 0.6 um-class library
  /// Reduced sweeps / shorter sequences; the mode CI runs and the goldens
  /// pin.  Full mode adds rows (e.g. analog-reference sweeps) but must stay
  /// just as deterministic.
  bool quick = false;
};

/// What one experiment produced.
struct ExperimentResult {
  std::vector<Artifact> artifacts;
  /// Ordered key/value pairs rendered as the report's metrics table.  Keys
  /// are stable identifiers (golden-diffable via the artifacts that carry
  /// the same numbers); values are preformatted.
  std::vector<std::pair<std::string, std::string>> metrics;
  /// Markdown paragraph(s): what the experiment shows and how to read it.
  std::string narrative;

  void metric(std::string key, std::string value) {
    metrics.emplace_back(std::move(key), std::move(value));
  }
};

/// One registered reproduction experiment.
struct Experiment {
  std::string id;           ///< stable snake_case identifier (CLI --only)
  std::string title;
  std::string paper_ref;    ///< e.g. "Fig. 1", "Table 1", "sec. 3 / Fig. 4"
  std::string description;  ///< one line for `halotis repro --list`
  std::function<ExperimentResult(const ExperimentContext&)> run;
};

class ExperimentRegistry {
 public:
  /// Registers an experiment; ids must be unique and non-empty.
  void add(Experiment experiment);

  [[nodiscard]] const std::vector<Experiment>& experiments() const { return experiments_; }
  [[nodiscard]] const Experiment* find(std::string_view id) const;

  /// The built-in registry: the six paper experiments documented in
  /// docs/REPRODUCTION.md.
  [[nodiscard]] static ExperimentRegistry builtin();

 private:
  std::vector<Experiment> experiments_;
};

/// Populates `registry` with the built-in experiments (experiments.cpp).
void register_builtin_experiments(ExperimentRegistry& registry);

}  // namespace halotis::repro
