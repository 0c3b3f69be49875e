#include "serve/net.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#include <mutex>
#include <thread>

namespace eva::serve::net {

void ignore_sigpipe() {
  static std::once_flag once;
  std::call_once(once, [] { std::signal(SIGPIPE, SIG_IGN); });
}

bool send_all(int fd, std::string_view data, int timeout_ms) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{fd, POLLOUT, 0};
      const int rc = ::poll(&pfd, 1, timeout_ms);
      if (rc > 0) continue;
      if (rc < 0 && errno == EINTR) continue;
      return false;  // timed out waiting for writability
    }
    return false;  // EPIPE / ECONNRESET / anything else: peer is gone
  }
  return true;
}

bool send_line(int fd, std::string_view line, int timeout_ms) {
  std::string out(line);
  out += '\n';
  return send_all(fd, out, timeout_ms);
}

int connect_with_deadline(const std::string& host, int port,
                          double timeout_ms) {
  if (port < 0 || port > 65535) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) return -1;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  const int rc =
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0) {
    if (errno != EINPROGRESS) {
      ::close(fd);
      return -1;
    }
    pollfd pfd{fd, POLLOUT, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(timeout_ms));
    if (ready <= 0) {
      ::close(fd);
      return -1;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      ::close(fd);
      return -1;
    }
  }
  ::fcntl(fd, F_SETFL, flags);  // back to blocking
  return fd;
}

int connect_retrying(const std::string& host, int port, double window_ms) {
  const auto give_up =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(window_ms));
  for (;;) {
    const int fd = connect_with_deadline(host, port, 1000.0);
    if (fd >= 0 || Clock::now() >= give_up) return fd;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
}

LineReader::Result LineReader::read_line(std::string& line,
                                         Clock::time_point deadline) {
  char chunk[4096];
  for (;;) {
    const std::size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      line = buf_.substr(0, nl);
      buf_.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return Result::kLine;
    }
    if (buf_.size() > max_line_) return Result::kTooLong;
    const auto now = Clock::now();
    if (now >= deadline) return Result::kTimeout;
    const auto left =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
            .count();
    pollfd pfd{fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, static_cast<int>(
                                       std::min<long long>(left + 1, 1000)));
    if (rc < 0 && errno != EINTR) return Result::kError;
    if (rc <= 0) continue;  // poll slice elapsed; re-check the deadline
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0) return Result::kEof;
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return Result::kError;
    }
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace eva::serve::net
