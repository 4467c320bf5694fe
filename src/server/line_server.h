#ifndef RESCQ_SERVER_LINE_SERVER_H_
#define RESCQ_SERVER_LINE_SERVER_H_

#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace rescq {

/// What a connection handler wants done with one request line's reply.
/// `response` is sent verbatim (empty = no reply, the blank/comment
/// case); `close_connection` drops the connection after the reply;
/// `stop_server` additionally begins a graceful server stop.
struct LineResult {
  std::string response;
  bool close_connection = false;
  bool stop_server = false;
};

/// Per-connection request handler: the transport creates one per
/// accepted connection (connections are stateful — the current session,
/// the pending epoch) and calls Handle once per received line. `line`
/// excludes the '\n' and points into the connection's buffer, so it is
/// valid only during the call. A trailing '\r' is left for the handler
/// to strip, which keeps CRLF clients identical to LF clients.
class LineConnectionHandler {
 public:
  virtual ~LineConnectionHandler() = default;
  virtual LineResult Handle(std::string_view line) = 0;
};

/// How a LineServer binds and staffs itself.
struct LineServerOptions {
  /// Numeric IPv4 address to bind.
  std::string host = "127.0.0.1";
  /// TCP port; 0 asks the kernel for an ephemeral one (read it back
  /// from port() after Start — the test and smoke harnesses depend on
  /// this).
  int port = 0;
  /// Handler loops: how many requests run at once. Idle connections
  /// hold none.
  int threads = 4;
  /// Counter bumped once per accepted connection.
  std::string connections_metric = "server.connections";
};

/// The shared line-protocol TCP transport: `threads` loops, each
/// waiting on its own epoll set. The non-blocking listening socket sits
/// in every set (EPOLLEXCLUSIVE), and an accepted connection joins the
/// loop with the fewest connections for life. A readable connection
/// costs its loop one recv; every complete line in the buffer goes to
/// the connection's handler, one framed reply each, and request lines
/// are capped at 64 KiB. `rescq serve` (ResilienceServer) and `rescq
/// route` (ShardRouter) derive from it, each minting its own handlers.
///
/// Lifecycle: Start() binds and spawns the loops; Wait() blocks until
/// the server stops (a handler's stop_server, Stop(), or SignalStop())
/// and closes every connection; Stop() = SignalStop() + Wait(). A
/// derived class calls Stop() in its destructor, before the state its
/// handlers borrow goes away.
///
/// Thread contract: Start, Wait and Stop from one thread. SignalStop is
/// safe from any thread, idempotent and async-signal-safe: one write to
/// a self-pipe that every loop watches and nobody drains.
class LineServer {
 public:
  virtual ~LineServer();

  LineServer(const LineServer&) = delete;
  LineServer& operator=(const LineServer&) = delete;

  /// Binds, listens, and spawns the handler loops. False with *error
  /// on any socket failure (nothing is left running).
  bool Start(std::string* error);

  /// The bound TCP port (resolves port 0 to the kernel's choice).
  /// Valid after a successful Start.
  int port() const { return port_; }

  /// Begins a graceful stop and returns at once: each loop finishes
  /// the request in hand, then exits.
  void SignalStop();

  /// Blocks until every loop has exited, then closes every connection.
  void Wait();

  /// SignalStop() then Wait().
  void Stop();

 protected:
  explicit LineServer(const LineServerOptions& options);

  /// Makes the handler for one accepted connection; runs on a loop.
  virtual std::unique_ptr<LineConnectionHandler> NewHandler() = 0;

 private:
  struct Connection;
  struct Loop;

  void Run(Loop* loop);
  void Accept();
  /// One recv and the lines it completes; false drops the connection.
  bool Serve(Connection* connection);

  const LineServerOptions options_;
  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  // self-pipe: readable once stopping
  int port_ = 0;
  std::vector<std::unique_ptr<Loop>> loops_;
  std::mutex mu_;  // guards each Loop's connections
};

}  // namespace rescq

#endif  // RESCQ_SERVER_LINE_SERVER_H_
