#include "perfbench/src/proc.hpp"

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <stdexcept>

extern char** environ;

namespace perfbench {

namespace {

/// posix_spawn file actions, released on every path.
struct FileActions {
  posix_spawn_file_actions_t actions{};
  FileActions() { posix_spawn_file_actions_init(&actions); }
  ~FileActions() { posix_spawn_file_actions_destroy(&actions); }
  FileActions(const FileActions&) = delete;
  FileActions& operator=(const FileActions&) = delete;
};

pid_t spawn(const std::string& exe, const std::vector<std::string>& args,
            const std::string& cwd, FileActions& fa) {
  posix_spawn_file_actions_addchdir_np(&fa.actions, cwd.c_str());
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(exe.c_str()));
  for (const std::string& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, exe.c_str(), &fa.actions, nullptr, argv.data(), environ);
  if (rc != 0) throw std::runtime_error("spawn " + exe + ": " + std::strerror(rc));
  return pid;
}

int wait_child(pid_t pid, long* max_rss_kb) {
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) throw std::runtime_error(std::string("wait4: ") + std::strerror(errno));
  }
  *max_rss_kb = usage.ru_maxrss;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

}  // namespace

ProcResult run_process(const std::string& exe, const std::vector<std::string>& args,
                       const std::string& cwd, const std::string& err_path) {
  // O_CLOEXEC: a child spawned concurrently by another client thread must
  // not inherit this pipe, or our read would wait for that child's exit.
  int fds[2] = {-1, -1};
  if (pipe2(fds, O_CLOEXEC) != 0) {
    throw std::runtime_error(std::string("pipe2: ") + std::strerror(errno));
  }
  ProcResult result;
  const auto start = std::chrono::steady_clock::now();
  pid_t pid = -1;
  try {
    FileActions fa;
    posix_spawn_file_actions_adddup2(&fa.actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addopen(&fa.actions, STDERR_FILENO, err_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    pid = spawn(exe, args, cwd, fa);
  } catch (...) {
    close(fds[0]);
    close(fds[1]);
    throw;
  }
  close(fds[1]);
  char buffer[1 << 16];
  for (;;) {
    const ssize_t n = read(fds[0], buffer, sizeof buffer);
    if (n > 0) {
      result.out.append(buffer, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  result.exit_code = wait_child(pid, &result.max_rss_kb);
  result.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return result;
}

Child::Child(const std::string& exe, const std::vector<std::string>& args,
             const std::string& cwd, const std::string& out_path,
             const std::string& err_path) {
  FileActions fa;
  posix_spawn_file_actions_addopen(&fa.actions, STDOUT_FILENO, out_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&fa.actions, STDERR_FILENO, err_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  pid_ = spawn(exe, args, cwd, fa);
}

Child::~Child() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    long ignored = 0;
    try {
      (void)wait_child(pid_, &ignored);
    } catch (...) {  // NOLINT(bugprone-empty-catch): nothing left to reap
    }
  }
}

int Child::terminate() {
  if (pid_ <= 0) return -1;
  kill(pid_, SIGTERM);
  const int status = wait_child(pid_, &max_rss_kb_);
  pid_ = -1;
  return status;
}

}  // namespace perfbench
