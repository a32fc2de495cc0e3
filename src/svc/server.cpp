#include "svc/server.h"

#include <condition_variable>
#include <istream>
#include <memory>
#include <mutex>
#include <ostream>

#include <sys/socket.h>
#include <unistd.h>

#include "util/socket.h"

namespace lamp::svc {

namespace {

/// Tracks responses still owed on one stream so teardown can wait for
/// them; shared by the submit callbacks, which may outlive the reader
/// loop's stack frame on worker threads.
struct StreamState {
  std::mutex mu;
  std::condition_variable cv;
  std::size_t outstanding = 0;

  void add() {
    std::lock_guard<std::mutex> lock(mu);
    ++outstanding;
  }
  void finish() {
    std::lock_guard<std::mutex> lock(mu);
    --outstanding;
    cv.notify_all();
  }
  void waitDrained() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return outstanding == 0; });
  }
};

}  // namespace

LineHandler serviceHandler(Service& svc) {
  return [&svc](const std::string& line, std::function<void(std::string)> done) {
    svc.submit(line, std::move(done));
  };
}

std::size_t serveStream(const LineHandler& handler, std::istream& in,
                        std::ostream& out) {
  auto state = std::make_shared<StreamState>();
  std::size_t requests = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++requests;
    state->add();
    handler(line, [state, &out](std::string response) {
      {
        // state->mu doubles as the write lock: responses land from
        // worker threads and must not interleave.
        std::lock_guard<std::mutex> lock(state->mu);
        out << response << "\n";
        out.flush();
      }
      state->finish();
    });
  }
  state->waitDrained();
  return requests;
}

std::size_t serveStream(Service& svc, std::istream& in, std::ostream& out) {
  return serveStream(serviceHandler(svc), in, out);
}

UnixServer::UnixServer(LineHandler handler, std::string socketPath)
    : handler_(std::move(handler)), path_(std::move(socketPath)) {}

UnixServer::UnixServer(Service& svc, std::string socketPath)
    : UnixServer(serviceHandler(svc), std::move(socketPath)) {}

UnixServer::~UnixServer() { stop(); }

bool UnixServer::listen(std::string* error) {
  std::string err;
  listenFd_ = util::listenUnixSocket(path_, err);
  if (listenFd_ < 0) {
    if (error) *error = err;
    return false;
  }
  running_.store(true);
  return true;
}

void UnixServer::run() {
  while (running_.load()) {
    const int fd = util::acceptClient(listenFd_);
    if (fd < 0) break;  // listening socket closed (stop()) or fatal error
    // Join the threads of connections that have ended.
    for (auto it = clients_.begin(); it != clients_.end();) {
      if (it->done.load()) {
        it->thread.join();
        it = clients_.erase(it);
      } else {
        ++it;
      }
    }
    Client& c = clients_.emplace_back();
    c.thread = std::thread([this, fd, &c] {
      handleClient(fd);
      c.done.store(true);
    });
  }
}

void UnixServer::handleClient(int fd) {
  auto channel = std::make_shared<util::LineChannel>(fd);
  auto state = std::make_shared<StreamState>();
  std::string line;
  while (channel->readLine(line)) {
    if (line.empty()) continue;
    state->add();
    handler_(line, [state, channel](std::string response) {
      {
        std::lock_guard<std::mutex> lock(state->mu);
        (void)channel->writeLine(response);
      }
      state->finish();
    });
  }
  state->waitDrained();
  util::closeFd(fd);
}

void UnixServer::requestStop() {
  running_.store(false);
  // shutdown() (async-signal-safe) makes the blocked accept() fail while
  // leaving the fd for stop() to close in normal context.
  if (listenFd_ >= 0) ::shutdown(listenFd_, SHUT_RDWR);
}

void UnixServer::stop() {
  if (running_.exchange(false)) {
    // Closing the fd makes the blocking accept fail, ending run().
    util::closeFd(listenFd_);
    listenFd_ = -1;
    ::unlink(path_.c_str());
  }
  for (Client& c : clients_) {
    if (c.thread.joinable()) c.thread.join();
  }
  clients_.clear();
}

}  // namespace lamp::svc
