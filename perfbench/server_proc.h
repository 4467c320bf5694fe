#ifndef RESCQ_PERFBENCH_SERVER_PROC_H_
#define RESCQ_PERFBENCH_SERVER_PROC_H_

// The server under test in its own process: the shipped `rescq` CLI
// (`serve` or `route`), so its peak RSS and CPU time are its own and it
// runs exactly as deployed (metrics armed, default limits).

#include <string>
#include <sys/types.h>
#include <vector>

namespace perfbench {

class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Runs `<cli> <args...>` and waits for its announced listening line
  /// ("listening on H:P" / "routing on H:P ..."). False with *error
  /// when the process fails to start or announce within 30 s.
  bool Start(const std::string& cli, const std::vector<std::string>& args,
             std::string* error);

  int port() const { return port_; }

  struct Usage {
    double peak_rss_mb = 0;
    double cpu_s = 0;
    bool clean_exit = false;
  };

  /// SIGTERM (SIGKILL after 10 s), then reaps the process. Safe to call
  /// when not running (returns a zero Usage).
  Usage Stop();

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  int port_ = 0;
};

}  // namespace perfbench

#endif  // RESCQ_PERFBENCH_SERVER_PROC_H_
