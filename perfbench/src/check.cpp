#include "perfbench/src/check.hpp"

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "src/tools/cli.hpp"

namespace perfbench {

std::string normalize_stdout(const std::string& kind, const std::string& out) {
  if (kind != "fault") return out;
  // "campaign: 4 threads, 123 events, 0.1234 s (5678 faults/sec)": keep the
  // thread and event counts, mask the timing tail.
  std::string normalized;
  std::istringstream lines(out);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("campaign: ", 0) == 0) {
      const std::size_t events = line.find(" events, ");
      if (events != std::string::npos) line = line.substr(0, events) + " events, <time>";
    }
    normalized += line;
    normalized += '\n';
  }
  return normalized;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return {};
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

std::string take_file(const std::filesystem::path& path) {
  std::string bytes = read_file(path);
  std::error_code ignored;
  std::filesystem::remove(path, ignored);
  return bytes;
}

Expected reference_run(const Op& op, const std::filesystem::path& dir) {
  // Restores the working directory on every exit path.
  struct Chdir {
    std::filesystem::path previous = std::filesystem::current_path();
    explicit Chdir(const std::filesystem::path& to) { std::filesystem::current_path(to); }
    ~Chdir() {
      std::error_code ignored;
      std::filesystem::current_path(previous, ignored);
    }
    Chdir(const Chdir&) = delete;
    Chdir& operator=(const Chdir&) = delete;
  } in_dir(dir);
  std::ostringstream out;
  std::ostringstream err;
  Expected expected;
  expected.exit_code = halotis::run_cli(op.args, out, err);
  if (!op.vcd.empty()) expected.vcd = take_file(op.vcd);
  expected.out = normalize_stdout(op.kind, out.str());
  return expected;
}

bool output_matches(const Op& op, const Expected& expected, int exit_code,
                    const std::string& out, const std::string& vcd) {
  return exit_code == expected.exit_code && normalize_stdout(op.kind, out) == expected.out &&
         vcd == expected.vcd;
}

std::optional<std::uint64_t> parse_count(const std::string& text, const std::string& key) {
  const std::size_t at = text.find(key);
  if (at == std::string::npos) return std::nullopt;
  const char* begin = text.c_str() + at + key.size();
  char* end = nullptr;
  const unsigned long long value = std::strtoull(begin, &end, 10);
  if (end == begin) return std::nullopt;
  return static_cast<std::uint64_t>(value);
}

}  // namespace perfbench
