#ifndef LAMP_SVC_SERVER_H
#define LAMP_SVC_SERVER_H

/// \file server.h
/// Transports in front of an NDJSON request handler: a stdio loop
/// (`lampd --stdio`, used by tests and the replay harness) and a
/// Unix-domain socket listener (`lampd --socket=PATH`). Both speak the
/// line protocol of proto.h; responses are written in completion order,
/// clients correlate by id. The transports take one LineHandler: lampd
/// wraps its svc::Service with serviceHandler, and the fleet router
/// (lamp-router) plugs its own routing handler into the very same
/// accept/serve machinery.

#include <atomic>
#include <functional>
#include <iosfwd>
#include <list>
#include <string>
#include <thread>

#include "svc/service.h"

namespace lamp::svc {

/// The longest request line either transport reads (the largest real
/// request, paper-scale CLZ as .lamp text, is 7.4 KB). A longer line gets
/// one bad_request naming the cap and ends its connection or stream.
/// Responses are not capped: a --certify result is one line of MBs.
constexpr std::size_t kMaxRequestLineBytes = std::size_t{8} << 20;

/// Adapts a Service to the transport handler signature.
LineHandler serviceHandler(Service& svc);

/// Reads newline-delimited requests from `in` until EOF or an over-cap
/// line, writes each response (completion order) to `out`, flushing per
/// line. Returns the number of requests read after all responses have
/// been written.
std::size_t serveStream(const LineHandler& handler, std::istream& in,
                        std::ostream& out);

/// Unix-domain socket front end. One reader thread per connection;
/// responses are serialized per connection. The accept loop joins the
/// threads of connections that have ended, so a long-lived daemon holds
/// threads only for its live connections.
class UnixServer {
 public:
  UnixServer(LineHandler handler, std::string socketPath);
  ~UnixServer();
  UnixServer(const UnixServer&) = delete;
  UnixServer& operator=(const UnixServer&) = delete;

  /// Binds and listens. Returns false with `error` filled on failure.
  bool listen(std::string* error);

  /// Blocking accept loop; returns after stop() (or a listen error).
  void run();

  /// Closes the listening socket (unblocking run()), removes its file,
  /// and joins every connection thread. Live connections end when their
  /// peers hang up. Not async-signal-safe; call from normal context
  /// after run() returns.
  void stop();

  /// Async-signal-safe shutdown trigger: unblocks the accept loop so
  /// run() returns. The signal handler calls this; main then calls
  /// stop() to join.
  void requestStop();

  const std::string& socketPath() const { return path_; }

 private:
  /// One connection's reader thread; it sets `done` as its last act.
  struct Client {
    std::atomic<bool> done{false};
    std::thread thread;
  };

  void handleClient(int fd);

  LineHandler handler_;
  std::string path_;
  int listenFd_ = -1;
  std::atomic<bool> running_{false};
  std::list<Client> clients_;  ///< list: a running thread holds its Client
};

}  // namespace lamp::svc

#endif  // LAMP_SVC_SERVER_H
