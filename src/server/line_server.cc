#include "server/line_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>
#include <unordered_map>

#include "obs/metrics.h"

namespace rescq {

namespace {

// A request line longer than this is hostile or garbage; the connection
// gets one structured error and is dropped.
constexpr size_t kMaxLineBytes = 64 * 1024;

/// send() the whole buffer, riding out EINTR and partial writes.
/// MSG_NOSIGNAL: a client that hung up mid-reply costs us an EPIPE
/// errno, never a SIGPIPE.
bool SendAll(int fd, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

bool Watch(int epoll_fd, int fd, uint32_t events, void* tag) {
  epoll_event event{};
  event.events = events;
  event.data.ptr = tag;
  return ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &event) == 0;
}

}  // namespace

struct LineServer::Connection {
  ~Connection() { ::close(fd); }
  int fd = -1;
  std::unique_ptr<LineConnectionHandler> handler;
  std::string buffer;  // received bytes not yet framed into a line
};

struct LineServer::Loop {
  ~Loop() {
    if (epoll_fd >= 0) ::close(epoll_fd);
  }
  int epoll_fd = -1;
  std::unordered_map<int, std::unique_ptr<Connection>> connections;
  std::thread thread;
};

LineServer::LineServer(const LineServerOptions& options) : options_(options) {}

LineServer::~LineServer() { Stop(); }

bool LineServer::Start(std::string* error) {
  // The read end is level-triggered in every loop's set and never
  // drained: once written, it wakes every loop on every wait.
  if (::pipe2(wake_fds_, O_NONBLOCK | O_CLOEXEC) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    *error = "bad host '" + options_.host + "' (numeric IPv4 required)";
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    *error = "bind " + options_.host + ":" + std::to_string(options_.port) +
             ": " + std::strerror(errno);
    return false;
  }
  if (::listen(listen_fd_, 128) != 0) {
    *error = std::string("listen: ") + std::strerror(errno);
    return false;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    *error = std::string("getsockname: ") + std::strerror(errno);
    return false;
  }
  port_ = ntohs(addr.sin_port);

  const int threads = std::max(1, options_.threads);
  for (int i = 0; i < threads; ++i) {
    auto loop = std::make_unique<Loop>();
    loop->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    // EPOLLEXCLUSIVE: a new connection wakes one waiting loop, not all.
    if (loop->epoll_fd < 0 ||
        !Watch(loop->epoll_fd, listen_fd_, EPOLLIN | EPOLLEXCLUSIVE,
               &listen_fd_) ||
        !Watch(loop->epoll_fd, wake_fds_[0], EPOLLIN, wake_fds_)) {
      *error = std::string("epoll: ") + std::strerror(errno);
      return false;
    }
    loops_.push_back(std::move(loop));
  }
  for (std::unique_ptr<Loop>& loop : loops_) {
    loop->thread = std::thread([this, l = loop.get()] { Run(l); });
  }
  return true;
}

void LineServer::Run(Loop* loop) {
  epoll_event events[64];
  for (;;) {
    int n = ::epoll_wait(loop->epoll_fd, events, 64, -1);
    if (n < 0 && errno != EINTR) return;
    for (int i = 0; i < n; ++i) {
      void* tag = events[i].data.ptr;
      if (tag == wake_fds_) return;
      if (tag == &listen_fd_) {
        Accept();
        continue;
      }
      auto* connection = static_cast<Connection*>(tag);
      if (!Serve(connection)) {
        const int fd = connection->fd;
        std::lock_guard<std::mutex> lock(mu_);
        loop->connections.erase(fd);  // closes the fd
      }
    }
  }
}

void LineServer::Accept() {
  const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
  if (fd < 0) return;  // another loop won it, or the peer left
  obs::Count(options_.connections_metric.c_str());
  auto connection = std::make_unique<Connection>();
  connection->fd = fd;
  connection->handler = NewHandler();
  std::lock_guard<std::mutex> lock(mu_);
  Loop* target = std::min_element(loops_.begin(), loops_.end(),
                                  [](const auto& a, const auto& b) {
                                    return a->connections.size() <
                                           b->connections.size();
                                  })->get();
  // Level-triggered: bytes left unread wake the owner again, so no
  // request ever needs a re-arm.
  if (Watch(target->epoll_fd, fd, EPOLLIN, connection.get())) {
    target->connections.emplace(fd, std::move(connection));
  }
}

bool LineServer::Serve(Connection* connection) {
  char chunk[4096];
  ssize_t n = ::recv(connection->fd, chunk, sizeof(chunk), MSG_DONTWAIT);
  if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
  if (n == 0) return false;  // peer hung up
  std::string& buffer = connection->buffer;
  buffer.append(chunk, static_cast<size_t>(n));
  size_t begin = 0;
  for (size_t newline;
       (newline = buffer.find('\n', begin)) != std::string::npos;
       begin = newline + 1) {
    LineResult result = connection->handler->Handle(
        std::string_view(buffer).substr(begin, newline - begin));
    if (!result.response.empty() &&
        !SendAll(connection->fd, result.response)) {
      return false;
    }
    if (result.stop_server) SignalStop();
    if (result.close_connection || result.stop_server) return false;
  }
  buffer.erase(0, begin);
  if (buffer.size() <= kMaxLineBytes) return true;
  SendAll(connection->fd, "err bad-request request line over 64KiB\n");
  return false;
}

void LineServer::SignalStop() {
  if (wake_fds_[1] < 0) return;
  char byte = 's';
  // A full pipe already has a wake pending; short/failed writes are fine.
  ssize_t ignored = ::write(wake_fds_[1], &byte, 1);
  (void)ignored;
}

void LineServer::Wait() {
  for (std::unique_ptr<Loop>& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  loops_.clear();  // closes every connection and epoll set
  for (int* fd : {&listen_fd_, &wake_fds_[0], &wake_fds_[1]}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
}

void LineServer::Stop() {
  SignalStop();
  Wait();
}

}  // namespace rescq
