// Deterministic pseudo-random number generation for workload generators.
//
// HALOTIS results must be exactly reproducible across runs and platforms,
// so the generators use a fixed splitmix64 core rather than std::mt19937
// seeded from std::random_device.
#pragma once

#include <cstdint>
#include <vector>

#include "src/base/check.hpp"

namespace halotis {

/// splitmix64: tiny, fast, passes BigCrush as a 64-bit mixer.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    state_ += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, bound). Requires bound > 0.
  std::uint64_t next_below(std::uint64_t bound) {
    require(bound > 0, "next_below() requires a positive bound");
    // Multiply-shift rejection-free mapping; bias is < 2^-64 * bound,
    // negligible for workload generation.
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * bound) >> 64);
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// Uniform double in [lo, hi).
  double next_double_in(double lo, double hi) {
    require(hi >= lo, "next_double_in() requires hi >= lo");
    return lo + (hi - lo) * next_double();
  }

  /// Bernoulli trial with probability p of returning true.
  bool next_bool(double p = 0.5) { return next_double() < p; }

 private:
  std::uint64_t state_;
};

/// Deterministic stream of `count` uniform words of `bits` bits each --
/// the shared stimulus-word generator for experiments and tests (the
/// history-hash golden depends on these exact streams).
inline std::vector<std::uint64_t> random_word_stream(int bits, std::size_t count,
                                                     std::uint64_t seed) {
  require(bits > 0 && bits <= 64, "random_word_stream(): bits must be in [1, 64]");
  SplitMix64 rng(seed);
  std::vector<std::uint64_t> words;
  words.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    words.push_back(bits >= 64 ? rng.next() : rng.next_below(std::uint64_t{1} << bits));
  }
  return words;
}

}  // namespace halotis
