// Child processes: timed one-shot invocations and the long-lived daemon.
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

namespace perfbench {

/// One finished invocation.  `wall_s` runs from just before the spawn to
/// the reaping wait; `max_rss_kb` is the child's own peak resident set.
struct ProcResult {
  int exit_code = -1;  ///< exit status, or 128 + signal number
  std::string out;     ///< everything the child wrote to stdout
  double wall_s = 0.0;
  long max_rss_kb = 0;
};

/// Runs `exe args...` in directory `cwd` with stdout captured and stderr
/// written to `err_path`, and waits for it.  Safe to call from several
/// threads at once.  Throws std::runtime_error when the spawn fails.
[[nodiscard]] ProcResult run_process(const std::string& exe,
                                     const std::vector<std::string>& args,
                                     const std::string& cwd, const std::string& err_path);

/// A background child (the daemon) with stdout and stderr sent to files.
/// The destructor kills and reaps a child still running, so no process
/// outlives its owner.
class Child {
 public:
  Child(const std::string& exe, const std::vector<std::string>& args, const std::string& cwd,
        const std::string& out_path, const std::string& err_path);
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;
  Child(Child&&) = delete;
  Child& operator=(Child&&) = delete;

  /// Sends SIGTERM and waits; returns the exit status (128 + signal when
  /// killed) and stores the child's peak RSS.
  int terminate();
  [[nodiscard]] long max_rss_kb() const { return max_rss_kb_; }

 private:
  pid_t pid_ = -1;
  long max_rss_kb_ = 0;
};

}  // namespace perfbench
