// lampd — the persistent lamp scheduling daemon.
//
//   lampd --socket=PATH [options]   serve a Unix-domain socket
//   lampd --stdio [options]         serve stdin/stdout (tests, replay)
//
//   --cache-dir=DIR      persist the solution cache here (warm restarts
//                        reload every previously solved instance)
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
  std::string err;  // a bad numeric value; reported after the loop

  const auto valueOf = [](const std::string& s) {
    const auto eq = s.find('=');
    return eq == std::string::npos ? std::string() : s.substr(eq + 1);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string s = argv[i];
    if (s.rfind("--socket=", 0) == 0) {
      socketPath = valueOf(s);
    } else if (s == "--stdio") {
      stdio = true;
    } else if (s.rfind("--cache-dir=", 0) == 0) {
      opts.cacheDir = valueOf(s);
    } else if (s.rfind("--workers=", 0) == 0) {
      if (!util::parseFlag(s, opts.workers, err)) break;
    } else if (s.rfind("--queue-cap=", 0) == 0) {
      if (!util::parseFlag(s, opts.queueCap, err)) break;
    } else if (s.rfind("--max-time-limit=", 0) == 0) {
      if (!util::parseFlag(s, opts.maxTimeLimitSeconds, err)) break;
    } else if (s == "--no-cache") {
      opts.cacheEnabled = false;
    } else if (s.rfind("--cache-mem-entries=", 0) == 0) {
      if (!util::parseFlag(s, opts.cacheMemEntries, err)) break;
    } else if (s == "--no-coalesce") {
      opts.coalesceEnabled = false;
    } else if (s.rfind("--trace-dir=", 0) == 0) {
      traceDir = valueOf(s);
      if (traceDir.empty()) {
        std::cerr << "lampd: --trace-dir needs a directory path\n";
        return 1;
      }
    } else if (s.rfind("--incident-dir=", 0) == 0) {
      opts.incidentDir = valueOf(s);
      if (opts.incidentDir.empty()) {
        std::cerr << "lampd: --incident-dir needs a directory path\n";
        return 1;
      }
    } else if (s == "--log-json") {
      logJson = true;
    } else if (s == "--quiet") {
      quiet = true;
    } else {
      std::cerr << "lampd: unknown option " << s << "\n";
      return 1;
    }
  }
  if (!err.empty()) {
    std::cerr << "lampd: " << err << "\n";
    return 1;
  }
  if (stdio == !socketPath.empty()) {
    std::cerr << "lampd: pass exactly one of --stdio or --socket=PATH\n";
    return 1;
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

  if (stdio) {
    const std::size_t n = svc::serveStream(service, std::cin, std::cout);
    if (!quiet) std::cerr << "lampd: served " << n << " requests, exiting\n";
    return 0;
  }

  svc::UnixServer server(service, socketPath);
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
