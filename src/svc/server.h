#ifndef LAMP_SVC_SERVER_H
#define LAMP_SVC_SERVER_H

/// \file server.h
/// Transports in front of an NDJSON request handler: a stdio loop
/// (`lampd --stdio`, used by tests and the replay harness) and a
/// Unix-domain socket listener (`lampd --socket=PATH`). Both speak the
/// line protocol of proto.h; responses are written in completion order,
/// clients correlate by id. The transports are handler-generic: a
/// svc::Service plugs in directly (lampd), and the fleet router
/// (lamp-router) reuses the very same accept/serve machinery with its
/// own routing handler.

#include <atomic>
#include <functional>
#include <iosfwd>
#include <list>
#include <string>
#include <thread>

#include "svc/service.h"

namespace lamp::svc {

/// One request line in, exactly one response line out (possibly from
/// another thread, possibly before the handler returns).
using LineHandler =
    std::function<void(const std::string& line,
                       std::function<void(std::string)> done)>;

/// Adapts a Service to the transport handler signature.
LineHandler serviceHandler(Service& svc);

/// Reads newline-delimited requests from `in` until EOF, writes each
/// response (completion order) to `out`, flushing per line. Returns the
/// number of requests read after all responses have been written.
std::size_t serveStream(const LineHandler& handler, std::istream& in,
                        std::ostream& out);
std::size_t serveStream(Service& svc, std::istream& in, std::ostream& out);

/// Unix-domain socket front end. One reader thread per connection;
/// responses are serialized per connection. The accept loop joins the
/// threads of connections that have ended, so a long-lived daemon holds
/// threads only for its live connections.
class UnixServer {
 public:
  UnixServer(LineHandler handler, std::string socketPath);
  UnixServer(Service& svc, std::string socketPath);
  ~UnixServer();
  UnixServer(const UnixServer&) = delete;
  UnixServer& operator=(const UnixServer&) = delete;

  /// Binds and listens. Returns false with `error` filled on failure.
  bool listen(std::string* error);

  /// Blocking accept loop; returns after stop() (or a listen error).
  void run();

  /// Closes the listening socket (unblocking run()) and joins every
  /// connection thread. Live connections end when their peers hang up.
  /// Not async-signal-safe; call from normal context after run() returns.
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
