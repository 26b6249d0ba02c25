#include "proc.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace {

std::string proc_path(pid_t pid, const char* leaf) {
  return "/proc/" + (pid == 0 ? std::string("self") : std::to_string(pid)) +
         "/" + leaf;
}

}  // namespace

std::int64_t peak_rss_kib(pid_t pid) {
  std::ifstream in(proc_path(pid, "status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stoll(line.substr(6));
    }
  }
  return 0;
}

double cpu_ms(pid_t pid) {
  std::ifstream in(proc_path(pid, "stat"));
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name (which may hold spaces):
  // state is field 3, utime field 14, stime field 15.
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return -1.0;
  std::istringstream fields(stat.substr(close + 2));
  std::string f;
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  for (int i = 3; i <= 15 && (fields >> f); ++i) {
    if (i == 14) utime = std::stoull(f);
    if (i == 15) stime = std::stoull(f);
  }
  const long ticks = ::sysconf(_SC_CLK_TCK);
  return 1000.0 * static_cast<double>(utime + stime) /
         static_cast<double>(ticks > 0 ? ticks : 100);
}

Daemon::Daemon(const std::string& binary, const std::string& dir)
    : dir_(dir) {
  int out[2];
  // Close-on-exec, so a second daemon never inherits the first one's pipe.
  if (::pipe2(out, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(out[0]);
    ::close(out[1]);
    throw std::runtime_error("fork failed");
  }
  if (pid_ == 0) {
    // The daemon must not outlive a benchmark that is killed mid-run.
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    ::dup2(out[1], STDOUT_FILENO);
    ::execl(binary.c_str(), binary.c_str(), "--dir", dir.c_str(), "--port",
            "0", static_cast<char*>(nullptr));
    static const char kMsg[] = "perfbench: cannot exec nnr_cached\n";
    (void)!::write(STDERR_FILENO, kMsg, sizeof(kMsg) - 1);
    ::_exit(127);
  }
  ::close(out[1]);
  stdout_fd_ = out[0];

  // Read the startup contract line: "nnr_cached listening on HOST:PORT".
  std::string line;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (line.find('\n') == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    pollfd p{stdout_fd_, POLLIN, 0};
    if (left <= 0 || ::poll(&p, 1, static_cast<int>(left)) <= 0) break;
    char buf[256];
    const ssize_t n = ::read(stdout_fd_, buf, sizeof(buf));
    if (n <= 0) break;
    line.append(buf, static_cast<std::size_t>(n));
  }
  const std::string marker = "listening on ";
  const std::size_t at = line.find(marker);
  const std::size_t colon = line.rfind(':');
  if (at == std::string::npos || colon == std::string::npos ||
      colon < at) {
    stop();
    throw std::runtime_error("nnr_cached did not start: " + line);
  }
  const std::string port = line.substr(colon + 1, line.find('\n') - colon - 1);
  url_ = "tcp://127.0.0.1:" + port;
}

Daemon::~Daemon() { stop(); }

void Daemon::stop() noexcept {
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    int status = 0;
    bool reaped = false;
    for (int i = 0; i < 200 && !reaped; ++i) {
      reaped = ::waitpid(pid_, &status, WNOHANG) == pid_;
      if (!reaped) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (!reaped) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
    }
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
}

}  // namespace perfbench
