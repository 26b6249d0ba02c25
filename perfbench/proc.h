// Process plumbing for the cache workloads: nnr_cached daemons started
// from the same build, and the /proc readings the benchmark reports
// (peak resident memory, CPU time).
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>

namespace perfbench {

/// Peak resident set (VmHWM) of `pid` (0 = this process), in KiB; 0 when
/// unreadable.
[[nodiscard]] std::int64_t peak_rss_kib(pid_t pid = 0);

/// User + system CPU time of `pid` so far, in milliseconds; -1 when
/// unreadable.
[[nodiscard]] double cpu_ms(pid_t pid);

/// One nnr_cached process serving a fresh directory on an ephemeral port.
/// Started by the constructor (which waits for its "listening on" line)
/// and stopped by the destructor: SIGTERM for a graceful drain, SIGKILL if
/// it has not exited within two seconds, and always reaped.
class Daemon {
 public:
  /// Throws std::runtime_error when the daemon cannot be started or does
  /// not announce its port within five seconds.
  Daemon(const std::string& binary, const std::string& dir);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] pid_t pid() const noexcept { return pid_; }
  [[nodiscard]] const std::string& url() const noexcept { return url_; }
  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

 private:
  void stop() noexcept;

  pid_t pid_ = -1;
  int stdout_fd_ = -1;  // kept open: the daemon never sees a closed pipe
  std::string dir_;
  std::string url_;
};

}  // namespace perfbench
