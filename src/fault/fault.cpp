#include "src/fault/fault.hpp"

#include <span>
#include <string>

#include "src/base/check.hpp"
#include "src/base/rng.hpp"
#include "src/fault/campaign.hpp"

namespace halotis {

std::vector<Fault> enumerate_faults(const Netlist& netlist) {
  std::vector<Fault> faults;
  faults.reserve(2 * netlist.num_signals());
  for (std::size_t s = 0; s < netlist.num_signals(); ++s) {
    const SignalId sid{static_cast<SignalId::underlying_type>(s)};
    faults.push_back(Fault{sid, false});
    faults.push_back(Fault{sid, true});
  }
  return faults;
}

std::vector<TimeNs> fault_sample_times(const Stimulus& stimulus,
                                       const FaultSimOptions& options) {
  require(options.sample_period > kSampleEpsilon,
          "fault_sample_times(): the sample period must exceed kSampleEpsilon");
  const std::vector<TimeNs> applied = stimulus.edge_times();
  std::vector<TimeNs> times;
  if (applied.empty()) {
    // No vectors at all: a single settled observation of the initial state.
    times.push_back(options.sample_period - kSampleEpsilon);
    return times;
  }
  // Initial-state observation, just before the first vector lands.  (A
  // vector applied at t = 0 leaves no initial window to observe.)
  if (applied.front() > kSampleEpsilon) {
    times.push_back(applied.front() - kSampleEpsilon);
  }
  // One observation per applied vector, taken when its response has settled:
  // just before the next vector lands, or after one period of hold for the
  // last vector.  A k*period grid would drift off any stimulus whose
  // application instants are not multiples of the sample period and skip
  // vectors.
  for (std::size_t j = 0; j < applied.size(); ++j) {
    const TimeNs settled_until = j + 1 < applied.size()
                                     ? applied[j + 1]
                                     : applied[j] + options.sample_period;
    times.push_back(settled_until - kSampleEpsilon);
  }
  return times;
}

std::string fault_name(const Netlist& netlist, const Fault& fault) {
  return netlist.signal(fault.signal).name + (fault.stuck_value ? "/SA1" : "/SA0");
}

Stimulus make_vector_stimulus(const Netlist& netlist, std::span<const std::uint64_t> words,
                              TimeNs period, TimeNs slew) {
  require(netlist.primary_inputs().size() <= 64,
          "make_vector_stimulus(): at most 64 primary inputs");
  Stimulus stim(slew);
  stim.apply_sequence(netlist.primary_inputs(), words, period, period);
  return stim;
}

AtpgResult generate_tests(const Netlist& netlist, const DelayModel& model,
                          const TimingGraph& timing, AtpgOptions options) {
  require(options.max_candidates > 0, "generate_tests(): need at least one candidate");
  const auto num_inputs = netlist.primary_inputs().size();
  require(num_inputs >= 1 && num_inputs <= 64,
          "generate_tests(): ATPG needs 1 to 64 primary inputs, the netlist has " +
              std::to_string(num_inputs));
  AtpgResult result;
  std::vector<Fault> remaining = enumerate_faults(netlist);
  result.total_faults = remaining.size();

  SplitMix64 rng(options.seed);
  const std::uint64_t mask =
      num_inputs >= 64 ? ~0ull : ((1ull << num_inputs) - 1);

  result.words.push_back(0);  // initial state
  FaultSimOptions sampling;
  sampling.sample_period = options.period;
  // One engine for the whole search: the worker pool's threads and every
  // worker's Simulator survive across candidate evaluations.
  CampaignEngine engine(netlist, model, timing, options.threads);
  engine.supervise(options.supervisor);

  // Incremental evaluation: detection compares *settled* primary-output
  // samples, and the settled response of a combinational circuit depends
  // only on the vector being held -- so a candidate only needs to be
  // simulated as the two-word stimulus {last accepted word, candidate}
  // against the surviving fault set.  The old engine replayed the entire
  // accepted prefix for every candidate (quadratic in test-set length)
  // without ever detecting anything new on it: the surviving faults already
  // survived every prefix vector.
  std::uint64_t settled_word = 0;
  for (int candidate = 0;
       candidate < options.max_candidates && !remaining.empty(); ++candidate) {
    if (options.supervisor != nullptr) {
      // Coarse boundary between candidate vectors; the campaign engine's
      // kernels also poll per event.
      options.supervisor->check_coarse("atpg candidate");
    }
    const std::uint64_t word = rng.next() & mask;
    const std::uint64_t trial[2] = {settled_word, word};
    const Stimulus stim =
        make_vector_stimulus(netlist, trial, options.period);
    const CampaignResult sim_result = engine.run(stim, remaining, sampling);
    if (sim_result.detected == 0) continue;  // useless vector, discard

    result.words.push_back(word);
    result.detected += sim_result.detected;
    // Keep error-verdict faults in the surviving set (not just the
    // undetected list): an injected failure must never remove a fault
    // from the search as if it had been covered.
    std::vector<Fault> next;
    next.reserve(remaining.size() - sim_result.detected);
    for (std::size_t i = 0; i < remaining.size(); ++i) {
      if (sim_result.verdicts[i] != kVerdictDetected) next.push_back(remaining[i]);
    }
    remaining = std::move(next);
    settled_word = word;
  }
  result.undetected = std::move(remaining);
  return result;
}

}  // namespace halotis
