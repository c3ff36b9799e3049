// The repo-wide 64-bit FNV-1a hash.
//
// One definition serves every hashing consumer -- the waveform history
// hash (src/replay/history_hash.hpp), repro artifact goldens
// (src/repro/artifacts), lint finding ids (src/lint) and the daemon's
// elaboration-cache key (src/serve) -- so the constants can never drift
// apart.  All committed goldens (history hashes, repro hashes, lint ids)
// are bytes of exactly this function.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace halotis {

inline constexpr std::uint64_t kFnv1aOffset = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnv1aPrime = 1099511628211ULL;

/// Folds `n` raw bytes into a running FNV-1a hash.
[[nodiscard]] inline std::uint64_t fnv1a(std::uint64_t hash, const void* data,
                                         std::size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    hash ^= bytes[i];
    hash *= kFnv1aPrime;
  }
  return hash;
}

/// One-shot 64-bit FNV-1a over a byte string.
[[nodiscard]] inline std::uint64_t fnv1a64(std::string_view bytes) {
  return fnv1a(kFnv1aOffset, bytes.data(), bytes.size());
}

/// 16 lower-case hex digits (the repo-wide hash rendering).
[[nodiscard]] inline std::string fnv_hex(std::uint64_t value) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[value & 0xF];
    value >>= 4;
  }
  return out;
}

}  // namespace halotis
