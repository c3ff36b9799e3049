// Output check: every timed op is compared with the bytes an in-process
// run_cli produced for the same argv during set-up.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>

#include "perfbench/src/inputs.hpp"

namespace perfbench {

/// What one op must produce: exit code, stdout and (for --vcd ops) the
/// artifact bytes.  stdout is stored normalized (see normalize_stdout).
struct Expected {
  int exit_code = 0;
  std::string out;
  std::string vcd;
};

/// The `fault` command prints its own wall time and rate on the
/// "campaign:" line; those fields are masked so the check compares only
/// deterministic output.  Every other command's stdout is used verbatim.
[[nodiscard]] std::string normalize_stdout(const std::string& kind, const std::string& out);

/// Runs `op` through run_cli in this process with `dir` as the working
/// directory (the argv's relative paths resolve there), and returns the
/// result, consuming the op's VCD artifact.  Changes the process-wide
/// working directory for the call: single-threaded use only.
[[nodiscard]] Expected reference_run(const Op& op, const std::filesystem::path& dir);

/// True when a timed op's result equals the reference byte for byte.
[[nodiscard]] bool output_matches(const Op& op, const Expected& expected, int exit_code,
                                  const std::string& out, const std::string& vcd);

/// The bytes of `path`; empty when it does not exist.
[[nodiscard]] std::string read_file(const std::filesystem::path& path);

/// Reads and deletes `path`; empty when it does not exist.
[[nodiscard]] std::string take_file(const std::filesystem::path& path);

/// The integer after `key` on the first line that contains it ("events:
/// processed N" -> N for key "events: processed ").
[[nodiscard]] std::optional<std::uint64_t> parse_count(const std::string& text,
                                                       const std::string& key);

}  // namespace perfbench
