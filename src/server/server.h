#ifndef RESCQ_SERVER_SERVER_H_
#define RESCQ_SERVER_SERVER_H_

#include <memory>
#include <string>

#include "resilience/engine.h"
#include "server/line_server.h"
#include "server/protocol.h"
#include "server/session_registry.h"

namespace rescq {

/// How `rescq serve` runs the daemon.
struct ServerOptions {
  /// Numeric IPv4 address to bind.
  std::string host = "127.0.0.1";
  /// TCP port; 0 asks the kernel for an ephemeral one (read it back from
  /// port() after Start — the test and smoke harnesses depend on this).
  int port = 0;
  /// Handler loops: how many requests run at once. Independent of
  /// ServerLimits::solver_threads, which fans out inside one epoch
  /// solve.
  int threads = 4;
  ServerLimits limits;
};

/// The long-lived resilience daemon: the shared LineServer transport
/// (see server/line_server.h, which also gives the lifecycle and thread
/// contract) driving one ProtocolHandler per connection. All sessions
/// live in one registry and all planning goes through one shared
/// engine, so N connections to the same query pay one plan.
class ResilienceServer : public LineServer {
 public:
  /// `engine` must be thread-safe (ResilienceEngine is) and outlive the
  /// server.
  ResilienceServer(const ServerOptions& options, ResilienceEngine* engine);
  ~ResilienceServer() override { Stop(); }

  /// The number of sessions currently open (for status lines).
  size_t active_sessions() const { return registry_.size(); }

 private:
  std::unique_ptr<LineConnectionHandler> NewHandler() override;

  const ServerOptions options_;
  ResilienceEngine* engine_;
  SessionRegistry registry_;
};

}  // namespace rescq

#endif  // RESCQ_SERVER_SERVER_H_
