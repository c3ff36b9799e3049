#include "perfbench/src/inputs.hpp"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "src/circuits/generators.hpp"
#include "src/circuits/stimuli.hpp"
#include "src/netlist/library.hpp"
#include "src/parsers/bench_format.hpp"
#include "src/parsers/stimulus_file.hpp"

namespace perfbench {

using halotis::Library;
using halotis::Netlist;
using halotis::SignalId;
using halotis::SplitMix64;
using halotis::Stimulus;

namespace {

/// Generator seed of every netlist.  The run seed draws the stimuli, the op
/// order and the Monte-Carlo sample seeds but not the netlists: a layered
/// netlist's structure moves its switching activity, and so a run's cost,
/// by up to 20% from one generator seed to the next.
constexpr std::uint64_t kDesignSeed = 7;

const Library& library() {
  static const Library lib = Library::default_u6();
  return lib;
}

std::string format_time(double t) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", t);
  return buffer;
}

/// Serializes `stimulus` over every primary input of `netlist` in the
/// stimulus-file format (init/edge lines; read_stimulus parses it back to
/// the same edges, times printed with round-trip precision).
std::string stimulus_text(const Netlist& netlist, const Stimulus& stimulus) {
  std::string text = "# perfbench stimulus\nslew " + format_time(stimulus.default_slew()) + "\n";
  for (const SignalId pi : netlist.primary_inputs()) {
    text += "init " + netlist.signal(pi).name + (stimulus.initial_value(pi) ? " 1\n" : " 0\n");
  }
  for (const SignalId pi : netlist.primary_inputs()) {
    for (const halotis::StimulusEdge& edge : stimulus.edges(pi)) {
      text += "edge " + netlist.signal(pi).name + " " + format_time(edge.time) +
              (edge.value ? " 1" : " 0");
      if (edge.tau != 0.0) text += " " + format_time(edge.tau);
      text += "\n";
    }
  }
  return text;
}

/// `words` random words over the design's primary inputs, one every 5 ns;
/// inputs named tie* (the multipliers' constant-0 ties) stay at 0.
std::string word_stimulus_text(const Netlist& netlist, std::size_t words, SplitMix64& rng) {
  std::vector<SignalId> driven;
  std::vector<SignalId> ties;
  for (const SignalId pi : netlist.primary_inputs()) {
    (netlist.signal(pi).name.rfind("tie", 0) == 0 ? ties : driven).push_back(pi);
  }
  Stimulus stimulus(0.5);
  for (const SignalId tie : ties) stimulus.set_initial(tie, false);
  for (std::size_t w = 0; w < words; ++w) {
    const double time = 5.0 * static_cast<double>(w + 1);
    for (const SignalId pi : driven) {
      const bool value = rng.next_bool(0.5);
      if (w == 0) {
        stimulus.set_initial(pi, value);
      } else {
        stimulus.add_edge(pi, time, value);
      }
    }
  }
  return stimulus_text(netlist, stimulus);
}

std::string staggered_stimulus_text(const Netlist& netlist, std::size_t edges,
                                    std::uint64_t seed) {
  return stimulus_text(netlist, halotis::staggered_random_stimulus(netlist.primary_inputs(),
                                                                  edges, seed));
}

std::vector<std::string> input_args(const Op& op) {
  std::vector<std::string> args{op.kind, "--netlist", "../inputs/" + op.netlist};
  if (!op.stim.empty()) {
    args.push_back("--stim");
    args.push_back("../inputs/" + op.stim);
  }
  return args;
}

void append(std::vector<std::string>& args, std::initializer_list<std::string> more) {
  args.insert(args.end(), more.begin(), more.end());
}

/// cold_requests / daemon_requests: the mult8 fixture plus five generated
/// designs of about 100-3000 gates, each with short (3, 5, 8 word) stimuli.
void request_inputs(Workload& w, SplitMix64& rng, const std::string& mult8_bench) {
  const Library& lib = library();
  std::vector<std::pair<std::string, std::string>> designs;
  designs.emplace_back("mult8.bench", mult8_bench);
  designs.emplace_back("layer150.bench",
                       halotis::write_bench(
                           halotis::make_layered_circuit(lib, 10, 15, kDesignSeed).netlist));
  designs.emplace_back("adder200.bench",
                       halotis::write_bench(halotis::make_ripple_adder(lib, 200).netlist));
  designs.emplace_back("layer900.bench",
                       halotis::write_bench(
                           halotis::make_layered_circuit(lib, 30, 30, kDesignSeed).netlist));
  designs.emplace_back("layer3000.bench",
                       halotis::write_bench(
                           halotis::make_layered_circuit(lib, 50, 60, kDesignSeed).netlist));
  designs.emplace_back("mult6.bench",
                       halotis::write_bench(halotis::make_multiplier(lib, 6).netlist));

  constexpr std::size_t kWords[kStimsPerDesign] = {3, 5, 8};
  for (const auto& [design, bench] : designs) {
    w.files[design] = bench;
    const Netlist netlist = halotis::read_bench(bench, lib);
    const std::string stem = design.substr(0, design.size() - 6);

    Op sta;
    sta.kind = "sta";
    sta.netlist = design;
    sta.args = input_args(sta);
    w.catalog.push_back(sta);
    for (std::size_t s = 0; s < kStimsPerDesign; ++s) {
      const std::string stim = stem + "_s" + std::to_string(s) + ".stim";
      w.files[stim] = word_stimulus_text(netlist, kWords[s], rng);
      Op sim;
      sim.kind = "sim";
      sim.netlist = design;
      sim.stim = stim;
      sim.args = input_args(sim);
      sim.args.push_back("--hash");
      w.catalog.push_back(sim);
      sim.vcd = "op.vcd";
      append(sim.args, {"--vcd", sim.vcd});
      w.catalog.push_back(sim);
    }
  }
}

/// large_design: a 500x200 layered netlist (100k gates) with a staggered
/// per-input stimulus; one DDM `sim --hash` and one JSON `lint` per round.
void large_inputs(Workload& w, SplitMix64& rng) {
  const auto circuit = halotis::make_layered_circuit(library(), 500, 200, kDesignSeed);
  w.files["layered100k.bench"] = halotis::write_bench(circuit.netlist);
  w.files["layered100k.stim"] = staggered_stimulus_text(circuit.netlist, 6, rng.next());

  Op sim;
  sim.kind = "sim";
  sim.netlist = "layered100k.bench";
  sim.stim = "layered100k.stim";
  sim.args = input_args(sim);
  append(sim.args, {"--model", "ddm", "--hash"});
  w.catalog.push_back(sim);

  Op lint;
  lint.kind = "lint";
  lint.netlist = "layered100k.bench";
  lint.args = input_args(lint);
  append(lint.args, {"--format", "json", "--fail-on", "none"});
  w.catalog.push_back(lint);
}

/// parallel_jobs: a 4-thread fault campaign and a 4-thread replayed
/// variation run on the mult8 fixture, and a 4-thread partitioned CDM sim
/// on a 200x100 layered netlist.
void parallel_inputs(Workload& w, SplitMix64& rng, const std::string& mult8_bench) {
  const Library& lib = library();
  w.files["mult8.bench"] = mult8_bench;
  const Netlist mult8 = halotis::read_bench(mult8_bench, lib);
  w.files["mult8_fault.stim"] = word_stimulus_text(mult8, 48, rng);
  // Word-aligned edges with a small sigma: some samples keep every recorded
  // ordering (replayed), others break one (full fallback), so both paths of
  // the replay session run.  The replayed share depends strongly on the
  // stimulus, so this one is fixed (about 60% replayed at sigma 1e-4) and
  // the seed draws only the Monte-Carlo sample seeds; otherwise the job's
  // cost would swing with the seed.
  SplitMix64 fixed_rng(3);
  w.files["mult8_var.stim"] = word_stimulus_text(mult8, 6, fixed_rng);
  const auto layered = halotis::make_layered_circuit(lib, 200, 100, kDesignSeed);
  w.files["layered20k.bench"] = halotis::write_bench(layered.netlist);
  w.files["layered20k.stim"] = staggered_stimulus_text(layered.netlist, 6, rng.next());

  Op fault;
  fault.kind = "fault";
  fault.netlist = "mult8.bench";
  fault.stim = "mult8_fault.stim";
  fault.threads = 4;
  fault.args = input_args(fault);
  append(fault.args, {"--threads", "4"});
  w.catalog.push_back(fault);

  Op variation;
  variation.kind = "variation";
  variation.netlist = "mult8.bench";
  variation.stim = "mult8_var.stim";
  variation.threads = 4;
  variation.samples = 1000;
  variation.args = input_args(variation);
  append(variation.args, {"--sigma", "1e-4", "--samples", "1000", "--seed",
                          std::to_string(rng.next_below(1u << 30)), "--replay",
                          "--threads", "4"});
  w.catalog.push_back(variation);

  Op psim;
  psim.kind = "sim";
  psim.netlist = "layered20k.bench";
  psim.stim = "layered20k.stim";
  psim.model = "cdm";
  psim.threads = 4;
  psim.args = input_args(psim);
  append(psim.args, {"--model", "cdm", "--threads", "4", "--partitions", "4", "--hash"});
  w.catalog.push_back(psim);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"cold_requests", "daemon_requests",
                                              "large_design", "parallel_jobs"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       const std::string& mult8_bench) {
  Workload w;
  w.name = name;
  SplitMix64 rng(seed);
  if (name == "cold_requests" || name == "daemon_requests") {
    // Both request workloads build from the same stream: identical files
    // and op catalog for the same seed.
    w.clients = 2;
    w.daemon = name == "daemon_requests";
    request_inputs(w, rng, mult8_bench);
  } else if (name == "large_design") {
    w.batch = true;
    large_inputs(w, rng);
  } else if (name == "parallel_jobs") {
    w.batch = true;
    parallel_inputs(w, rng, mult8_bench);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

OpStream::OpStream(const Workload& workload, std::uint64_t seed, int client)
    : rng_(seed ^ (0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(client + 1))),
      designs_(workload.catalog.size() / (1 + 2 * kStimsPerDesign)) {}

void OpStream::deal() {
  // Catalog layout per design: [sta, (sim, sim --vcd) per stimulus].
  const std::size_t per_design = 1 + 2 * kStimsPerDesign;
  deck_.clear();
  for (std::size_t d = 0; d < designs_; ++d) {
    const std::size_t base = d * per_design;
    deck_.push_back(base);
    deck_.push_back(base);
    const std::size_t vcd_stim = rng_.next_below(kStimsPerDesign);
    for (std::size_t s = 0; s < kStimsPerDesign; ++s) {
      for (int k = 0; k < 3; ++k) {
        deck_.push_back(base + 1 + 2 * s + (s == vcd_stim && k == 0 ? 1 : 0));
      }
    }
  }
  for (std::size_t i = deck_.size() - 1; i > 0; --i) {
    std::swap(deck_[i], deck_[rng_.next_below(i + 1)]);
  }
  position_ = 0;
}

std::size_t OpStream::next() {
  if (position_ == deck_.size()) deal();
  return deck_[position_++];
}

}  // namespace perfbench
