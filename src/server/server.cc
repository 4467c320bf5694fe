#include "server/server.h"

namespace rescq {

namespace {

LineServerOptions TransportOptions(const ServerOptions& options) {
  LineServerOptions transport;
  transport.host = options.host;
  transport.port = options.port;
  transport.threads = options.threads;
  transport.connections_metric = "server.connections";
  return transport;
}

}  // namespace

ResilienceServer::ResilienceServer(const ServerOptions& options,
                                   ResilienceEngine* engine)
    : LineServer(TransportOptions(options)),
      options_(options),
      engine_(engine),
      registry_(options.limits.max_sessions) {}

std::unique_ptr<LineConnectionHandler> ResilienceServer::NewHandler() {
  return std::make_unique<ProtocolHandler>(&registry_, engine_,
                                           &options_.limits);
}

}  // namespace rescq
