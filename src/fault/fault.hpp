// Stuck-at fault model, output sampling and ATPG on top of the timing
// simulator.
//
// A classic gate-level EDA substrate: enumerate single stuck-at faults on
// every signal line, replay a test sequence on each faulty machine and
// compare sampled primary outputs against the good machine.  Because the
// underlying engine is a *timing* simulator, detection is evaluated at
// specified sample instants (end of each vector period), which exposes an
// effect pure logic fault simulators cannot show: a fault whose only
// visible difference is a glitch may be "detected" under a conventional
// delay model yet undetectable in silicon -- the IDDM filters it.
//
// The one fault engine is CampaignEngine (campaign.hpp); this header holds
// what it and the ATPG search share: the fault list, the sample instants
// and the vector stimulus builder.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "src/base/supervision.hpp"
#include "src/base/units.hpp"
#include "src/core/delay_model.hpp"
#include "src/core/stimulus.hpp"
#include "src/netlist/netlist.hpp"
#include "src/timing/timing_graph.hpp"

namespace halotis {

/// One single stuck-at fault on a signal line.
struct Fault {
  SignalId signal;
  bool stuck_value = false;

  friend bool operator==(const Fault&, const Fault&) = default;
};

/// All 2N candidate faults (primary inputs included; they model pad
/// defects).
[[nodiscard]] std::vector<Fault> enumerate_faults(const Netlist& netlist);

/// How far before each settled instant the fault engine samples primary
/// outputs: one vector's response is observed kSampleEpsilon before the
/// next vector lands.  A sample period must exceed it.
inline constexpr TimeNs kSampleEpsilon = 0.1;

struct FaultSimOptions {
  /// Hold time granted to the LAST vector: the final sample is taken at
  /// last_application + period - kSampleEpsilon.  (Earlier samples align
  /// to the stimulus's own application instants, not to a k*period grid.)
  TimeNs sample_period = 5.0;
};

/// The instants the fault engine samples primary outputs at, aligned to the
/// stimulus's vector application times: the settled response of each
/// applied vector is observed just before the next vector lands
/// (kSampleEpsilon early), the last one after `sample_period` of hold.  An
/// initial-state observation precedes the first vector whenever it lands
/// after t = kSampleEpsilon (a vector at t = 0 leaves no initial window).
[[nodiscard]] std::vector<TimeNs> fault_sample_times(const Stimulus& stimulus,
                                                     const FaultSimOptions& options);

/// Human-readable fault name, e.g. "n3/SA0".
[[nodiscard]] std::string fault_name(const Netlist& netlist, const Fault& fault);

/// Builds a stimulus applying integer `words` across the primary inputs
/// (bit i drives primary_inputs()[i]), one word per `period`, first word
/// as the initial state.
[[nodiscard]] Stimulus make_vector_stimulus(const Netlist& netlist,
                                            std::span<const std::uint64_t> words,
                                            TimeNs period = 5.0, TimeNs slew = 0.5);

// ---- ATPG (random-search test generation) ----------------------------------

struct AtpgOptions {
  int max_candidates = 200;   ///< random vectors to try
  TimeNs period = 5.0;        ///< vector pitch and sample period (> kSampleEpsilon)
  std::uint64_t seed = 1;
  /// Worker threads for evaluating each candidate against the surviving
  /// fault set (0 = one per hardware thread).  The generated test set is
  /// thread-count-invariant.
  int threads = 1;
  /// Optional run supervision (must outlive the call): threaded through
  /// the campaign engine (per-event kernel checks) plus a coarse deadline /
  /// cancellation check between candidate vectors.  Faults whose runs
  /// error stay in the surviving set, so injected failures can only shrink
  /// reported coverage, never inflate it.
  const RunSupervisor* supervisor = nullptr;
};

struct AtpgResult {
  std::vector<std::uint64_t> words;  ///< the generated compact test set
  std::size_t total_faults = 0;
  std::size_t detected = 0;
  std::vector<Fault> undetected;

  [[nodiscard]] double coverage() const {
    return total_faults > 0
               ? static_cast<double>(detected) / static_cast<double>(total_faults)
               : 0.0;
  }
};

/// Greedy random-search ATPG: proposes random vectors, keeps each one that
/// detects at least one still-undetected stuck-at fault (evaluated by a
/// CampaignEngine under `model` on `timing`, the caller's elaboration of
/// `netlist` under the model's policy), and stops at full coverage or after
/// `max_candidates` proposals.  Returns the compact test set.  The
/// netlist needs 1 to 64 primary inputs (one word bit each).
///
/// Evaluation is incremental: each candidate is simulated as the two-word
/// stimulus {last accepted word, candidate} against the surviving fault set
/// only -- equivalent to replaying the whole accepted prefix, because
/// detection compares settled samples and the survivors already survived
/// every prefix vector.  Replaying the returned `words` through the campaign
/// reproduces `detected` exactly.
[[nodiscard]] AtpgResult generate_tests(const Netlist& netlist, const DelayModel& model,
                                        const TimingGraph& timing, AtpgOptions options = {});

}  // namespace halotis
