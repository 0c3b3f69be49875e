#include "serve/line_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <system_error>

#include "obs/log.hpp"
#include "serve/net.hpp"
#include "train/signal.hpp"
#include "util/error.hpp"

namespace eva::serve {

namespace {

constexpr int kPollMs = 100;  // stop-flag observation granularity
constexpr std::size_t kMaxLine = 1 << 20;

}  // namespace

LineServer::LineServer(std::string tier, std::string bind_addr, int port,
                       double idle_ms, std::function<void()> between)
    : tier_(std::move(tier)),
      bind_addr_(std::move(bind_addr)),
      requested_port_(port),
      idle_ms_(idle_ms),
      between_(std::move(between)),
      connections_(obs::counter(tier_ + ".connections")),
      idle_timeouts_(obs::counter(tier_ + ".idle_timeouts")) {}

LineServer::~LineServer() { stop(); }

int LineServer::start(Accept accept) {
  if (requested_port_ < 0 || requested_port_ > 65535) {
    throw ConfigError(tier_ + ": port out of range 0-65535: " +
                      std::to_string(requested_port_));
  }
  net::ignore_sigpipe();
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw ConfigError(tier_ + ": socket() failed: " + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(requested_port_));
  if (::inet_pton(AF_INET, bind_addr_.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw ConfigError(tier_ + ": bad bind address: " + bind_addr_);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, 64) < 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw ConfigError(tier_ + ": cannot listen on " + bind_addr_ + ":" +
                      std::to_string(requested_port_) + ": " + why);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  acceptor_ = std::thread(
      [this, accept = std::move(accept)] { accept_loop(accept); });
  obs::log_info(tier_ + ".listening", {{"addr", bind_addr_}, {"port", port_}});
  return port_;
}

void LineServer::run() {
  while (!stopping_.load() && !train::stop_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(kPollMs));
  }
  stop();
}

void LineServer::pause(double ms) const {
  const auto until =
      net::Clock::now() + std::chrono::duration<double, std::milli>(ms);
  while (net::Clock::now() < until && !stopping_.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

void LineServer::stop() {
  std::call_once(stop_once_, [this] {
    stopping_.store(true);
    if (acceptor_.joinable()) acceptor_.join();
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      // Only a started server runs the hook, so a tier whose constructor
      // threw never reaches members that are already destroyed.
      if (between_) between_();
    }
    // Wake every connection still blocked in poll or recv; each closes
    // its own fd on the way out.
    std::list<Connection> conns;
    {
      std::lock_guard<std::mutex> lk(conn_mu_);
      for (const Connection& c : conns_) {
        if (c.fd >= 0) ::shutdown(c.fd, SHUT_RDWR);
      }
      conns.swap(conns_);
    }
    for (Connection& c : conns) c.thread.join();
    obs::log_info(tier_ + ".stopped");
  });
}

void LineServer::accept_loop(const Accept& accept) {
  while (!stopping_.load() && !train::stop_requested()) {
    {
      // Join the threads of closed connections. Each has already made
      // its last use of conn_mu_, so joining under it cannot deadlock.
      std::lock_guard<std::mutex> lk(conn_mu_);
      for (auto it = conns_.begin(); it != conns_.end();) {
        if (it->fd >= 0) {
          ++it;
          continue;
        }
        it->thread.join();
        it = conns_.erase(it);
      }
    }
    pollfd pfd{listen_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, kPollMs) <= 0) continue;  // timeout or EINTR
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    LineHandler handler = accept(fd);
    if (!handler) {
      ::close(fd);
      continue;
    }
    std::lock_guard<std::mutex> lk(conn_mu_);
    Connection& conn = conns_.emplace_back();
    conn.fd = fd;
    try {
      conn.thread = std::thread(
          [this, &conn, fd, h = std::move(handler)] { serve(conn, fd, h); });
    } catch (const std::system_error& e) {
      // Out of threads or address space: refuse this client rather than
      // take the whole process down.
      conns_.pop_back();
      ::close(fd);
      obs::log_every_n(obs::LogLevel::kWarn, tier_ + ".spawn_failed", 100,
                       {{"error", e.what()}});
      continue;
    }
    connections_.add();
  }
}

void LineServer::serve(Connection& conn, int fd, const LineHandler& handler) {
  net::LineReader reader(fd, kMaxLine);
  auto last_activity = net::Clock::now();
  bool open = true;
  while (open && !stopping_.load()) {
    const std::size_t had = reader.buffered();
    std::string line;
    const auto rc = reader.read_line(
        line, net::Clock::now() + std::chrono::milliseconds(kPollMs));
    if (rc == net::LineReader::Result::kTimeout) {
      if (reader.buffered() != had) {
        last_activity = net::Clock::now();  // part of a line arrived
      } else if (idle_ms_ > 0.0 &&
                 std::chrono::duration<double, std::milli>(
                     net::Clock::now() - last_activity)
                         .count() > idle_ms_) {
        idle_timeouts_.add();
        obs::log_every_n(obs::LogLevel::kWarn, tier_ + ".idle_timeout", 10,
                         {{"idle_ms", idle_ms_}});
        break;
      }
      continue;
    }
    // EOF, a socket error, or a line over kMaxLine: hang up.
    if (rc != net::LineReader::Result::kLine) break;
    last_activity = net::Clock::now();
    if (line.empty()) continue;
    std::string err;
    auto parsed = parse_line(line, &err);
    open = parsed ? handler(line, *parsed)
                  : net::send_line(fd, bad_request_json(err));
  }
  // Closing under the lock keeps stop() from shutting down a reused fd
  // number; fd -1 tells the acceptor this thread is ready to join.
  std::lock_guard<std::mutex> lk(conn_mu_);
  ::close(fd);
  conn.fd = -1;
}

}  // namespace eva::serve
