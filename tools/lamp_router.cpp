// lamp-router — consistent-hash front router for a sharded lampd fleet.
//
//   lamp-router --socket=PATH --shard=SOCK [--shard=SOCK ...] [options]
//   lamp-router --stdio      --shard=SOCK [--shard=SOCK ...] [options]
//
//   --shard=SOCK            a lampd Unix socket (repeat per shard; the
//                           0-based order defines shard indices)
//   --vnodes=N              ring points per shard (default 64)
//   --max-attempts=N        connect/exchange attempts per shard (default 3)
//   --retry-backoff-ms=MS   first retry backoff, doubles per retry (20)
//   --connect-timeout-ms=MS per-connect deadline (default 2000)
//   --io-timeout-ms=MS      per read/write deadline (default 0 = block;
//                           solves can be slow, leave 0 unless fronting
//                           deadline-bounded traffic only)
//   --probe-interval-ms=MS  background health-probe period (default 2000;
//                           0 disables the prober — health is then learned
//                           only from forwarding failures)
//   --no-coalesce           forward identical in-flight requests
//                           independently instead of collapsing them
//   --quiet                 suppress the startup banner
//
// Speaks the same NDJSON protocol as lampd (src/svc/proto.h) with the
// router extensions documented in src/fleet/router.h: flow requests are
// consistent-hashed across shards, identical in-flight requests
// coalesce, {"cmd":...,"shard":N} targets one shard, and bare "health"/
// "drain"/"resume"/"stats" give the fleet view. Clients cannot tell a
// router from a single lampd on successful responses — the bytes are
// identical.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fleet/router.h"
#include "svc/server.h"
#include "util/parse.h"

using namespace lamp;

namespace {

svc::UnixServer* g_server = nullptr;

void onSignal(int) {
  if (g_server != nullptr) g_server->requestStop();
}

/// Periodic shard health prober; stoppable between ticks.
class Prober {
 public:
  Prober(fleet::Router& router, int intervalMs)
      : router_(router), intervalMs_(intervalMs) {
    if (intervalMs_ > 0) thread_ = std::thread([this] { loop(); });
  }
  ~Prober() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      lock.unlock();
      router_.probe();
      lock.lock();
      cv_.wait_for(lock, std::chrono::milliseconds(intervalMs_),
                   [this] { return stop_; });
    }
  }

  fleet::Router& router_;
  int intervalMs_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace

int main(int argc, char** argv) {
  fleet::RouterOptions opts;
  std::string socketPath;
  bool stdio = false;
  bool quiet = false;
  int probeIntervalMs = 2000;
  util::ArgParser cli;
  cli.text("socket", socketPath);
  cli.flag("stdio", stdio);
  cli.text("shard", opts.shardSockets);
  cli.number("vnodes", opts.vnodes);
  cli.number("max-attempts", opts.maxAttempts);
  cli.number("retry-backoff-ms", opts.retryBackoffMs);
  cli.number("connect-timeout-ms", opts.connectTimeoutMs);
  cli.number("io-timeout-ms", opts.ioTimeoutMs);
  cli.number("probe-interval-ms", probeIntervalMs);
  cli.flag("no-coalesce", opts.coalesceEnabled, false);
  cli.flag("quiet", quiet);
  if (std::string err; !cli.parse(argc, argv, err)) {
    std::cerr << "lamp-router: " << err << "\n";
    return 1;
  }
  if (stdio == !socketPath.empty()) {
    std::cerr << "lamp-router: pass exactly one of --stdio or --socket=PATH\n";
    return 1;
  }
  if (opts.shardSockets.empty()) {
    std::cerr << "lamp-router: at least one --shard=SOCK is required\n";
    return 1;
  }

  fleet::Router router(opts);
  if (!quiet) {
    std::cerr << "lamp-router: " << router.shardCount() << " shards, "
              << opts.vnodes << " vnodes/shard, coalescing "
              << (opts.coalesceEnabled ? "on" : "off") << "\n";
  }
  Prober prober(router, probeIntervalMs);

  const svc::LineHandler handler =
      std::bind_front(&fleet::Router::submit, &router);

  if (stdio) {
    const std::size_t n = svc::serveStream(handler, std::cin, std::cout);
    if (!quiet) {
      std::cerr << "lamp-router: routed " << n << " requests, exiting\n";
    }
    return 0;
  }

  svc::UnixServer server(handler, socketPath);
  std::string error;
  if (!server.listen(&error)) {
    std::cerr << "lamp-router: " << error << "\n";
    return 1;
  }
  g_server = &server;
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
  if (!quiet) std::cerr << "lamp-router: listening on " << socketPath << "\n";
  server.run();
  server.stop();
  if (!quiet) std::cerr << "lamp-router: shut down\n";
  return 0;
}
