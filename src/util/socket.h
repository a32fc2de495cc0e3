#ifndef LAMP_UTIL_SOCKET_H
#define LAMP_UTIL_SOCKET_H

/// \file socket.h
/// Unix-domain stream sockets plus a buffered newline-delimited line
/// channel — the transport under lampd's NDJSON protocol. POSIX-only by
/// design (the service is a local daemon; remote transports would sit in
/// front of it).

#include <string>
#include <string_view>

namespace lamp::util {

/// Binds and listens on a Unix-domain stream socket, replacing any stale
/// socket file at `path`. Returns the listening fd, or -1 with `error`
/// filled.
int listenUnixSocket(const std::string& path, std::string& error);

/// Connects to a Unix-domain stream socket. Returns the fd, or -1 with
/// `error` filled. `timeoutMs > 0` bounds the connect itself (the fd is
/// returned in blocking mode either way); 0 = block indefinitely.
int connectUnixSocket(const std::string& path, std::string& error,
                      int timeoutMs = 0);

/// Blocking accept that retries on EINTR. Returns -1 when the listening
/// socket has been closed (the shutdown path).
int acceptClient(int listenFd);

/// Closes an fd if valid (EINTR-safe no-op wrapper).
void closeFd(int fd);

/// Buffered line reader/writer over one socket fd. Reads are buffered
/// internally; writes push the full line (plus '\n') through partial
/// writes. Not internally synchronized — writers serialize externally.
class LineChannel {
 public:
  explicit LineChannel(int fd) : fd_(fd) {}

  /// Reads one '\n'-terminated line (terminator stripped). Returns false
  /// on EOF or error, and once the line runs past `maxBytes` without its
  /// newline (tooLong() then tells that case apart). A final unterminated
  /// line is delivered as-is.
  bool readLine(std::string& out,
                std::size_t maxBytes = std::string::npos);

  /// Writes `line` plus a trailing newline. Returns false on error.
  bool writeLine(std::string_view line);

  /// Bounds every subsequent read/write with a poll()-based timeout
  /// (<= 0 restores indefinite blocking). After a false return,
  /// timedOut() distinguishes "deadline expired" from EOF/error.
  void setTimeoutMs(int ms) { timeoutMs_ = ms; }
  bool timedOut() const { return timedOut_; }
  bool tooLong() const { return tooLong_; }

  int fd() const { return fd_; }

 private:
  /// Waits for readability/writability within the timeout. True when the
  /// fd is ready (or no timeout is configured).
  bool waitReady(bool forWrite);

  int fd_ = -1;
  int timeoutMs_ = 0;
  bool timedOut_ = false;
  bool tooLong_ = false;
  std::string buf_;
  /// Prefix of buf_ already searched for '\n' without a hit.
  std::size_t scanned_ = 0;
};

}  // namespace lamp::util

#endif  // LAMP_UTIL_SOCKET_H
