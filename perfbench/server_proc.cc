#include "server_proc.h"

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "bench_util.h"

namespace perfbench {

namespace {

/// The port out of an announced "... on host:port ..." line; 0 if none.
int AnnouncedPort(const std::string& line) {
  if (line.rfind("listening on ", 0) != 0 && line.rfind("routing on ", 0) != 0) {
    return 0;
  }
  size_t on = line.find(" on ");
  size_t end = line.find(' ', on + 4);
  std::string addr = line.substr(on + 4, end == std::string::npos
                                             ? std::string::npos
                                             : end - on - 4);
  size_t colon = addr.rfind(':');
  if (colon == std::string::npos) return 0;
  return std::atoi(addr.c_str() + colon + 1);
}

}  // namespace

ServerProcess::~ServerProcess() { Stop(); }

bool ServerProcess::Start(const std::string& cli,
                          const std::vector<std::string>& args,
                          std::string* error) {
  int fds[2];
  if (pipe(fds) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  std::vector<std::string> argv_store = {cli};
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_store) argv.push_back(a.data());
  argv.push_back(nullptr);

  pid_t pid = fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    // Child: die with the benchmark, stdout into the pipe, then exec.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    execv(argv[0], argv.data());
    _exit(127);
  }
  close(fds[1]);
  pid_ = pid;
  out_fd_ = fds[0];

  std::string buffer;
  Clock::time_point start = Clock::now();
  while (MsSince(start) < 30000) {
    size_t nl;
    while ((nl = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      port_ = AnnouncedPort(line);
      if (port_ > 0) return true;
    }
    pollfd p{out_fd_, POLLIN, 0};
    if (poll(&p, 1, 100) <= 0) continue;
    char chunk[4096];
    ssize_t n = read(out_fd_, chunk, sizeof(chunk));
    if (n <= 0) break;  // exited before announcing
    buffer.append(chunk, static_cast<size_t>(n));
  }
  *error = "server did not announce a port: " + cli;
  Stop();
  return false;
}

ServerProcess::Usage ServerProcess::Stop() {
  Usage usage;
  if (pid_ < 0) return usage;
  kill(pid_, SIGTERM);
  int status = 0;
  rusage ru{};
  Clock::time_point start = Clock::now();
  pid_t done = 0;
  while ((done = wait4(pid_, &status, WNOHANG, &ru)) == 0) {
    if (MsSince(start) > 10000) {
      kill(pid_, SIGKILL);
      done = wait4(pid_, &status, 0, &ru);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (done == pid_) {
    usage.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    usage.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                  static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
    usage.clean_exit = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }
  close(out_fd_);
  out_fd_ = -1;
  pid_ = -1;
  port_ = 0;
  return usage;
}

}  // namespace perfbench
