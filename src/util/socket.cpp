#include "util/socket.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace lamp::util {

namespace {

bool fillAddr(const std::string& path, sockaddr_un& addr, std::string& error) {
  if (path.size() >= sizeof(addr.sun_path)) {
    error = "socket path too long: " + path;
    return false;
  }
  std::memset(&addr, 0, sizeof addr);
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return true;
}

}  // namespace

int listenUnixSocket(const std::string& path, std::string& error) {
  sockaddr_un addr;
  if (!fillAddr(path, addr, error)) return -1;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  ::unlink(path.c_str());  // drop a stale socket from a previous run
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    error = "bind " + path + ": " + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  if (::listen(fd, 64) != 0) {
    error = "listen " + path + ": " + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

int connectUnixSocket(const std::string& path, std::string& error,
                      int timeoutMs) {
  sockaddr_un addr;
  if (!fillAddr(path, addr, error)) return -1;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  if (timeoutMs <= 0) {
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      error = "connect " + path + ": " + std::strerror(errno);
      ::close(fd);
      return -1;
    }
    return fd;
  }
  // Bounded connect: go non-blocking for the handshake, poll for
  // writability within the deadline, then restore blocking mode.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    if (errno != EINPROGRESS && errno != EAGAIN) {
      error = "connect " + path + ": " + std::strerror(errno);
      ::close(fd);
      return -1;
    }
    pollfd pfd{fd, POLLOUT, 0};
    int rc;
    do {
      rc = ::poll(&pfd, 1, timeoutMs);
    } while (rc < 0 && errno == EINTR);
    if (rc <= 0) {
      error = "connect " + path + ": " +
              (rc == 0 ? "timed out" : std::strerror(errno));
      ::close(fd);
      return -1;
    }
    int soErr = 0;
    socklen_t len = sizeof soErr;
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soErr, &len);
    if (soErr != 0) {
      error = "connect " + path + ": " + std::strerror(soErr);
      ::close(fd);
      return -1;
    }
  }
  ::fcntl(fd, F_SETFL, flags);
  return fd;
}

int acceptClient(int listenFd) {
  while (true) {
    const int fd = ::accept(listenFd, nullptr, nullptr);
    if (fd >= 0) return fd;
    if (errno == EINTR) continue;
    return -1;
  }
}

void closeFd(int fd) {
  if (fd >= 0) ::close(fd);
}

bool LineChannel::waitReady(bool forWrite) {
  // Untimed channels never touch timedOut_: a server reads and its
  // workers write one such channel from different threads.
  if (timeoutMs_ <= 0) return true;
  timedOut_ = false;
  pollfd pfd{fd_, static_cast<short>(forWrite ? POLLOUT : POLLIN), 0};
  int rc;
  do {
    rc = ::poll(&pfd, 1, timeoutMs_);
  } while (rc < 0 && errno == EINTR);
  if (rc == 0) {
    timedOut_ = true;
    return false;
  }
  return rc > 0;
}

bool LineChannel::readLine(std::string& out, std::size_t maxBytes) {
  while (true) {
    // Only the bytes appended since the last miss can hold the newline:
    // rescanning the whole buffer per chunk would make one long line
    // cost quadratic time.
    const auto nl = buf_.find('\n', scanned_);
    if (nl != std::string::npos && nl <= maxBytes) {
      out.assign(buf_, 0, nl);
      buf_.erase(0, nl + 1);
      scanned_ = 0;
      return true;
    }
    if (std::min(nl, buf_.size()) > maxBytes) {
      tooLong_ = true;
      return false;
    }
    scanned_ = buf_.size();
    if (!waitReady(/*forWrite=*/false)) return false;
    char chunk[4096];
    const ssize_t n = ::read(fd_, chunk, sizeof chunk);
    if (n > 0) {
      buf_.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (!buf_.empty()) {  // deliver a trailing unterminated line
      out = std::move(buf_);
      buf_.clear();
      scanned_ = 0;
      return true;
    }
    return false;
  }
}

bool LineChannel::writeLine(std::string_view line) {
  std::string framed;
  framed.reserve(line.size() + 1);
  framed.append(line);
  framed.push_back('\n');
  std::size_t off = 0;
  while (off < framed.size()) {
    if (!waitReady(/*forWrite=*/true)) return false;
    // MSG_NOSIGNAL: writing to a hung-up peer (a restarted shard behind
    // a pooled connection) must fail with EPIPE, not kill the process.
    // LineChannel also runs over pipes (lamp-cli --replay), where send()
    // is ENOTSOCK — fall back to plain write there.
    ssize_t n =
        ::send(fd_, framed.data() + off, framed.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == ENOTSOCK) {
      n = ::write(fd_, framed.data() + off, framed.size() - off);
    }
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

}  // namespace lamp::util
