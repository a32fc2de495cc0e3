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

/// std::getline under the request cap: false at the end of `in`, or
/// with `tooLong` set once the line passes kMaxRequestLineBytes.
bool readRequestLine(std::istream& in, std::string& line, bool& tooLong) {
  line.clear();
  std::streambuf& buf = *in.rdbuf();
  for (int c = buf.sbumpc(); c != std::char_traits<char>::eof();
       c = buf.sbumpc()) {
    if (c == '\n') return true;
    if (line.size() == kMaxRequestLineBytes) {
      tooLong = true;
      return false;
    }
    line.push_back(static_cast<char>(c));
  }
  return !line.empty();
}

std::string tooLongResponse() {
  return errorResponse("", "bad_request",
                       "request line longer than " +
                           std::to_string(kMaxRequestLineBytes) + " bytes");
}

}  // namespace

LineHandler serviceHandler(Service& svc) {
  return std::bind_front(&Service::submit, &svc);
}

std::size_t serveStream(const LineHandler& handler, std::istream& in,
                        std::ostream& out) {
  auto state = std::make_shared<StreamState>();
  std::size_t requests = 0;
  std::string line;
  bool tooLong = false;
  // state->mu doubles as the write lock: responses land from worker
  // threads and must not interleave.
  const auto write = [state, &out](const std::string& response) {
    std::lock_guard<std::mutex> lock(state->mu);
    out << response << "\n";
    out.flush();
  };
  while (readRequestLine(in, line, tooLong)) {
    if (line.empty()) continue;
    ++requests;
    state->add();
    handler(line, [state, write](std::string response) {
      write(response);
      state->finish();
    });
  }
  if (tooLong) write(tooLongResponse());
  state->waitDrained();
  return requests;
}

UnixServer::UnixServer(LineHandler handler, std::string socketPath)
    : handler_(std::move(handler)), path_(std::move(socketPath)) {}

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
  const auto write = [state, channel](const std::string& response) {
    std::lock_guard<std::mutex> lock(state->mu);
    (void)channel->writeLine(response);
  };
  std::string line;
  while (channel->readLine(line, kMaxRequestLineBytes)) {
    if (line.empty()) continue;
    state->add();
    handler_(line, [state, write](std::string response) {
      write(response);
      state->finish();
    });
  }
  if (channel->tooLong()) write(tooLongResponse());
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
  running_.store(false);
  // Closing the fd makes a blocking accept fail, ending run(). After
  // requestStop() the fd is still open here: it only shut it down.
  if (listenFd_ >= 0) {
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
