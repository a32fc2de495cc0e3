// lampd — the persistent lamp scheduling daemon.
//
//   lampd --socket=PATH [options]   serve a Unix-domain socket
//   lampd --stdio [options]         serve stdin/stdout (tests, replay)
//
//   --cache-dir=DIR      persist the solution cache here (warm restarts
//                        reload every previously solved instance); created
//                        if missing, exit 1 if it cannot be a directory
//   --workers=N          solver worker threads (default: auto)
//   --queue-cap=N        bounded admission queue depth (default 64);
//                        excess requests are rejected with "overloaded"
//   --max-time-limit=S   clamp per-request solver time limits (default 300)
//   --no-cache           disable the solution cache entirely
//   --cache-mem-entries=N  bound the in-memory cache tier to N result
//                        payloads (LRU; evicted payloads reload from
//                        --cache-dir on demand; default 0 = unbounded)
//   --no-coalesce        disable in-flight coalescing of identical
//                        requests (they solve independently)
//   --trace-dir=DIR      enable span tracing; on shutdown write a Chrome
//                        trace-event file lampd-trace-<pid>.json into DIR
//   --incident-dir=DIR   arm the black-box flight recorder: a deadline
//                        miss, flow failure, load-shed, or a
//                        {"cmd":"dump"} request writes a self-contained
//                        incident file (recent-request ring, trace
//                        buffer, log tail) into DIR
//   --log-json           emit one structured NDJSON log line per request
//                        to stderr (request id, cache state, queue wait,
//                        deadline slack)
//   --quiet              suppress the startup banner
//
// Protocol: newline-delimited JSON (see src/svc/proto.h). Exit code 0 on
// clean shutdown (EOF in stdio mode, SIGINT/SIGTERM in socket mode).

#include <csignal>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include <unistd.h>

#include "obs/log.h"
#include "obs/trace.h"
#include "svc/server.h"
#include "util/parse.h"

using namespace lamp;

namespace {

svc::UnixServer* g_server = nullptr;

void onSignal(int) {
  if (g_server != nullptr) g_server->requestStop();
}

/// Writes the accumulated Chrome trace into `dir` at daemon shutdown.
/// The file name carries the pid so repeated runs never clobber each
/// other's traces.
struct TraceDump {
  std::string dir;
  ~TraceDump() {
    if (dir.empty()) return;
    const std::string path =
        dir + "/lampd-trace-" + std::to_string(::getpid()) + ".json";
    std::ofstream out(path);
    if (out) {
      obs::writeChromeTrace(out);
    } else {
      std::cerr << "lampd: cannot write trace to '" << path << "'\n";
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  svc::ServiceOptions opts;
  std::string socketPath;
  std::string traceDir;
  bool logJson = false;
  bool stdio = false;
  bool quiet = false;
  util::ArgParser cli;
  cli.text("socket", socketPath);
  cli.flag("stdio", stdio);
  cli.text("cache-dir", opts.cacheDir);
  cli.number("workers", opts.workers);
  cli.number("queue-cap", opts.queueCap);
  cli.number("max-time-limit", opts.maxTimeLimitSeconds);
  cli.flag("no-cache", opts.cacheEnabled, false);
  cli.number("cache-mem-entries", opts.cacheMemEntries);
  cli.flag("no-coalesce", opts.coalesceEnabled, false);
  cli.text("trace-dir", traceDir, util::FlagValue::Path);
  cli.text("incident-dir", opts.incidentDir, util::FlagValue::Path);
  cli.flag("log-json", logJson);
  cli.flag("quiet", quiet);
  if (std::string err; !cli.parse(argc, argv, err)) {
    std::cerr << "lampd: " << err << "\n";
    return 1;
  }
  if (stdio == !socketPath.empty()) {
    std::cerr << "lampd: pass exactly one of --stdio or --socket=PATH\n";
    return 1;
  }
  // The cache itself only tries to create its directory; a daemon whose
  // directory cannot exist would serve and persist nothing.
  if (opts.cacheEnabled && !opts.cacheDir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(opts.cacheDir, ec);
    if (!std::filesystem::is_directory(opts.cacheDir, ec)) {
      std::cerr << "lampd: cache dir '" << opts.cacheDir
                << "' is not a directory\n";
      return 1;
    }
  }

  TraceDump traceDump{traceDir};
  if (!traceDir.empty()) obs::setTraceEnabled(true);
  if (obs::traceEnabled()) obs::setThreadName("lampd-main");
  if (logJson) obs::setLogSink(&std::cerr);
  if (!opts.incidentDir.empty()) {
    // The flight recorder's incident files carry a log tail even when
    // --log-json is off: the ring captures records without a sink.
    obs::setLogRingCapacity(256);
  }

  svc::Service service(opts);
  if (!quiet) {
    std::cerr << "lampd: " << service.options().workers << " workers, queue cap "
              << service.options().queueCap << ", cache "
              << (opts.cacheEnabled
                      ? (opts.cacheDir.empty() ? "memory" : opts.cacheDir)
                      : "off");
    if (opts.cacheEnabled && !opts.cacheDir.empty()) {
      std::cerr << " (" << service.cache().size() << " entries loaded)";
    }
    std::cerr << "\n";
  }

  const svc::LineHandler handler = svc::serviceHandler(service);
  if (stdio) {
    const std::size_t n = svc::serveStream(handler, std::cin, std::cout);
    if (!quiet) std::cerr << "lampd: served " << n << " requests, exiting\n";
    return 0;
  }

  svc::UnixServer server(handler, socketPath);
  std::string error;
  if (!server.listen(&error)) {
    std::cerr << "lampd: " << error << "\n";
    return 1;
  }
  g_server = &server;
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
  if (!quiet) std::cerr << "lampd: listening on " << socketPath << "\n";
  server.run();
  server.stop();
  service.drain();
  if (!quiet) std::cerr << "lampd: shut down\n";
  return 0;
}
