// lamp-cli — client and replay harness for the lampd scheduling daemon.
//
// Client mode (talks to a running daemon over its Unix socket):
//
//   lamp-cli --socket=PATH [request options] <benchmark-name | file.lamp>
//   lamp-cli --socket=PATH --stats [--format=json|prometheus]
//   lamp-cli --socket=PATH --cmd=health|drain|resume|dump [--shard=N]
//
//   --stats prints the daemon's metrics registry. The default format is
//   the raw NDJSON response; --format=prometheus prints the Prometheus
//   text exposition (decoded from the response's "prometheus" field),
//   ready to pipe into a node_exporter textfile or promtool. Against a
//   lamp-router, a bare --stats is the fleet-wide aggregation: every
//   shard's registry in one response (Prometheus samples labelled
//   shard="i").
//
//   --cmd sends a control verb (health probe, graceful drain, resume,
//   flight-recorder dump); --shard=N targets shard N when --socket
//   points at a lamp-router (a single daemon ignores it).
//
//   --trace-out=FILE (flow requests only) turns on distributed tracing
//   for this request: a fresh trace id rides the request as a W3C-style
//   "trace" field, every process it touches (router, shards, solver
//   workers) attaches its span subtree to the response, and the merged
//   Chrome trace-event JSON — one connected tree, client included, on
//   one wall-clock-aligned timeline — is written to FILE (load it in
//   chrome://tracing or Perfetto).
//
//   request options: --method=hls|base|map --ii=N --tcp=NS --alpha=A
//   --beta=B --k=K --time-limit=SEC --deadline-ms=MS --paper-scale
//   --no-cache --id=STR --timeout-ms=MS
//
//   --timeout-ms bounds the connect AND each read/write on the socket.
//
//   Prints the raw NDJSON response line. Exit codes are distinct by
//   failure class so scripts and health checks can tell them apart:
//     0  response received with "ok": true
//     1  request error: the daemon answered "ok": false, hung up
//        mid-exchange, or the --timeout-ms deadline expired
//     2  connect failure: the daemon is not reachable at --socket
//
// Replay mode (spawns its own `lampd --stdio`, drives it through a
// recorded request trace, checks the cache behaviour):
//
//   lamp-cli --exec=PATH/TO/lampd --replay=TRACE.jsonl
//            [--passes=2] [--expect-warm-hit-ratio=0.95]
//            [--cache-dir=DIR] [--workers=N] [--timeout-ms=MS]
//
//   --timeout-ms applies uniformly in both modes: in client mode it
//   bounds the connect and every read/write on the socket; in replay
//   mode it bounds every read/write on the spawned daemon's stdio pipes
//   (including the very first exchange), and a daemon that blows the
//   deadline is killed instead of being waited on forever.
//
//   Replays the trace --passes times through ONE daemon process and
//   fails (exit 1) unless, in the final pass, at least the expected
//   fraction of requests is served from the solution cache AND every
//   cached result is bit-identical to the first pass's result for the
//   same request id. This is the ctest target `svc_replay_cache`.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "util/json.h"
#include "util/parse.h"
#include "util/socket.h"

using namespace lamp;
using util::Json;

namespace {

struct Args {
  std::string socketPath;
  std::string execPath;
  std::string replayPath;
  int passes = 2;
  double expectWarmHitRatio = 0.95;
  std::string cacheDir;
  int workers = 0;
  bool stats = false;
  std::string statsFormat;  // "", "json" or "prometheus"
  std::string cmd;          // "", "health", "drain" or "resume"
  int shard = -1;           // router shard target for --stats/--cmd
  int timeoutMs = 0;        // connect + per-IO deadline (0 = block)
  std::string traceOut;     // merged Chrome trace output file

  // Request options (client mode).
  std::string input;
  std::string id = "cli";
  std::string method;
  int ii = 0;
  double tcp = 0.0, alpha = -1.0, beta = -1.0, timeLimit = 0.0;
  int k = 0;
  double deadlineMs = 0.0;
  bool noCache = false;
  bool paperScale = false;
};

bool parseArgs(int argc, char** argv, Args& a, std::string& err) {
  const auto valueOf = [](const std::string& s) {
    const auto eq = s.find('=');
    return eq == std::string::npos ? std::string() : s.substr(eq + 1);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string s = argv[i];
    if (s.rfind("--socket=", 0) == 0) {
      a.socketPath = valueOf(s);
    } else if (s.rfind("--exec=", 0) == 0) {
      a.execPath = valueOf(s);
    } else if (s.rfind("--replay=", 0) == 0) {
      a.replayPath = valueOf(s);
    } else if (s.rfind("--passes=", 0) == 0) {
      if (!util::parseFlag(s, a.passes, err)) return false;
    } else if (s.rfind("--expect-warm-hit-ratio=", 0) == 0) {
      if (!util::parseFlag(s, a.expectWarmHitRatio, err)) return false;
    } else if (s.rfind("--cache-dir=", 0) == 0) {
      a.cacheDir = valueOf(s);
    } else if (s.rfind("--workers=", 0) == 0) {
      if (!util::parseFlag(s, a.workers, err)) return false;
    } else if (s == "--stats") {
      a.stats = true;
    } else if (s.rfind("--cmd=", 0) == 0) {
      a.cmd = valueOf(s);
      if (a.cmd != "health" && a.cmd != "drain" && a.cmd != "resume" &&
          a.cmd != "dump") {
        err = "--cmd must be health, drain, resume or dump";
        return false;
      }
    } else if (s.rfind("--trace-out=", 0) == 0) {
      a.traceOut = valueOf(s);
      if (a.traceOut.empty()) {
        err = "--trace-out needs a file path";
        return false;
      }
    } else if (s.rfind("--shard=", 0) == 0) {
      if (!util::parseFlag(s, a.shard, err)) return false;
    } else if (s.rfind("--timeout-ms=", 0) == 0) {
      if (!util::parseFlag(s, a.timeoutMs, err)) return false;
    } else if (s.rfind("--format=", 0) == 0) {
      a.statsFormat = valueOf(s);
      if (a.statsFormat != "json" && a.statsFormat != "prometheus") {
        err = "--format must be json or prometheus";
        return false;
      }
    } else if (s.rfind("--id=", 0) == 0) {
      a.id = valueOf(s);
    } else if (s.rfind("--method=", 0) == 0) {
      a.method = valueOf(s);
    } else if (s.rfind("--ii=", 0) == 0) {
      if (!util::parseFlag(s, a.ii, err)) return false;
    } else if (s.rfind("--tcp=", 0) == 0) {
      if (!util::parseFlag(s, a.tcp, err)) return false;
    } else if (s.rfind("--alpha=", 0) == 0) {
      if (!util::parseFlag(s, a.alpha, err)) return false;
    } else if (s.rfind("--beta=", 0) == 0) {
      if (!util::parseFlag(s, a.beta, err)) return false;
    } else if (s.rfind("--k=", 0) == 0) {
      if (!util::parseFlag(s, a.k, err)) return false;
    } else if (s.rfind("--time-limit=", 0) == 0) {
      if (!util::parseFlag(s, a.timeLimit, err)) return false;
    } else if (s.rfind("--deadline-ms=", 0) == 0) {
      if (!util::parseFlag(s, a.deadlineMs, err)) return false;
    } else if (s == "--no-cache") {
      a.noCache = true;
    } else if (s == "--paper-scale") {
      a.paperScale = true;
    } else if (s.rfind("--", 0) == 0) {
      err = "unknown option " + s;
      return false;
    } else if (a.input.empty()) {
      a.input = s;
    } else {
      err = "multiple inputs given";
      return false;
    }
  }
  const bool replay = !a.replayPath.empty();
  if (replay && a.execPath.empty()) {
    err = "--replay requires --exec=PATH/TO/lampd";
    return false;
  }
  if (!replay && a.socketPath.empty()) {
    err = "pass --socket=PATH (client mode) or --exec + --replay";
    return false;
  }
  if (!replay && !a.stats && a.cmd.empty() && a.input.empty()) {
    err = "no input; pass a benchmark name or a .lamp graph file";
    return false;
  }
  if (a.stats && !a.cmd.empty()) {
    err = "--stats and --cmd are mutually exclusive";
    return false;
  }
  if (a.shard >= 0 && !a.stats && a.cmd.empty()) {
    err = "--shard is only valid with --stats or --cmd";
    return false;
  }
  if (!a.statsFormat.empty() && !a.stats) {
    err = "--format is only valid with --stats";
    return false;
  }
  if (!a.traceOut.empty() && (replay || a.stats || !a.cmd.empty())) {
    err = "--trace-out is only valid with a flow request";
    return false;
  }
  return true;
}

std::string buildRequest(const Args& a, std::string& err) {
  Json req = Json::object();
  req.set("id", Json::string(a.id));
  if (a.stats || !a.cmd.empty()) {
    req.set("cmd", Json::string(a.stats ? "stats" : a.cmd));
    if (!a.statsFormat.empty()) {
      req.set("format", Json::string(a.statsFormat));
    }
    if (a.shard >= 0) req.set("shard", Json::integer(a.shard));
    return req.dump();
  }
  // A readable file is an inline graph; anything else is assumed to be a
  // built-in benchmark name (the daemon validates it).
  std::ifstream in(a.input);
  if (in) {
    std::stringstream ss;
    ss << in.rdbuf();
    req.set("graph", Json::string(ss.str()));
  } else {
    req.set("benchmark", Json::string(a.input));
  }
  if (!a.method.empty()) req.set("method", Json::string(a.method));
  Json options = Json::object();
  if (a.ii > 0) options.set("ii", Json::integer(a.ii));
  if (a.tcp > 0) options.set("tcpNs", Json::number(a.tcp));
  if (a.alpha >= 0) options.set("alpha", Json::number(a.alpha));
  if (a.beta >= 0) options.set("beta", Json::number(a.beta));
  if (a.k > 0) options.set("k", Json::integer(a.k));
  if (a.timeLimit > 0) options.set("timeLimitSeconds", Json::number(a.timeLimit));
  if (options.members().size() > 0) req.set("options", std::move(options));
  if (a.deadlineMs > 0) req.set("deadlineMs", Json::number(a.deadlineMs));
  if (a.noCache) req.set("noCache", Json::boolean(true));
  if (a.paperScale) req.set("paperScale", Json::boolean(true));
  (void)err;
  return req.dump();
}

/// Merges the response's per-process trace subtrees with the client's
/// own events into one Chrome trace file. Failures warn on stderr but
/// never change the exit code — telemetry must not fail a request.
void writeClientTrace(const Args& a, const std::string& traceId,
                      const Json* responseDoc) {
  Json merged = Json::object();
  merged.set("traceId", Json::string(traceId));
  Json procs = Json::array();
  if (responseDoc != nullptr && responseDoc->isObject()) {
    if (const Json* tr = responseDoc->find("trace");
        tr != nullptr && tr->isObject()) {
      if (const Json* p = tr->find("procs"); p != nullptr && p->isArray()) {
        for (std::size_t i = 0; i < p->size(); ++i) procs.push(p->at(i));
      }
    }
  }
  procs.push(obs::collectTrace(traceId));
  merged.set("procs", std::move(procs));
  std::ofstream out(a.traceOut);
  std::string mergeErr;
  if (!out || !obs::writeMergedChromeTrace(out, merged, &mergeErr)) {
    std::cerr << "lamp-cli: cannot write merged trace to '" << a.traceOut
              << "'" << (mergeErr.empty() ? "" : ": " + mergeErr) << "\n";
    return;
  }
  std::cerr << "lamp-cli: merged trace written to " << a.traceOut << "\n";
}

int clientMode(const Args& a) {
  std::string err;
  std::string request = buildRequest(a, err);
  std::string traceId;
  if (!a.traceOut.empty()) {
    obs::setTraceEnabled(true);
    obs::setThreadName("lamp-cli");
    traceId = obs::newTraceId();
  }
  const int fd = util::connectUnixSocket(a.socketPath, err, a.timeoutMs);
  if (fd < 0) {
    std::cerr << "lamp-cli: " << err << "\n";
    return 2;  // connect failure: distinct from a request error
  }
  util::LineChannel channel(fd);
  if (a.timeoutMs > 0) channel.setTimeoutMs(a.timeoutMs);
  std::string response;
  bool ok = false;
  {
    // The trace root: the whole round-trip is one client span; the
    // request carries its id so the fleet's spans parent under it.
    obs::TraceContext rootCtx;
    rootCtx.traceId = traceId;  // "" when untraced -> scope is a no-op
    obs::ContextScope scope(rootCtx);
    obs::Span span("client_request", "client");
    if (!traceId.empty() && span.spanId() != 0) {
      if (auto doc = Json::parse(request); doc && doc->isObject()) {
        obs::TraceContext ctx;
        ctx.traceId = traceId;
        ctx.spanId = span.spanId();
        doc->set("trace", Json::string(obs::formatTraceparent(ctx)));
        request = doc->dump();
      }
    }
    ok = channel.writeLine(request) && channel.readLine(response);
  }
  util::closeFd(fd);
  if (!ok) {
    std::cerr << (channel.timedOut()
                      ? "lamp-cli: timed out waiting for the daemon\n"
                      : "lamp-cli: daemon hung up\n");
    return 1;
  }
  const auto doc = Json::parse(response);
  const bool responseOk = doc && doc->isObject() &&
                          doc->find("ok") != nullptr &&
                          doc->find("ok")->asBool();
  if (!traceId.empty()) {
    writeClientTrace(a, traceId, doc ? &*doc : nullptr);
  }
  // Prometheus text rides the NDJSON protocol as one string field;
  // unwrap it so the output is directly scrapeable.
  const Json* prom =
      responseOk && doc->isObject() ? doc->find("prometheus") : nullptr;
  if (a.statsFormat == "prometheus" && prom != nullptr && prom->isString()) {
    std::cout << prom->asString();
  } else {
    std::cout << response << "\n";
  }
  return responseOk ? 0 : 1;
}

// --- replay mode -------------------------------------------------------------

struct Daemon {
  pid_t pid = -1;
  int toChild = -1;    // write requests here
  int fromChild = -1;  // read responses here
};

bool spawnDaemon(const Args& a, Daemon& d, std::string& err) {
  int inPipe[2], outPipe[2];
  if (pipe(inPipe) != 0 || pipe(outPipe) != 0) {
    err = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  const pid_t pid = fork();
  if (pid < 0) {
    err = std::string("fork: ") + std::strerror(errno);
    return false;
  }
  if (pid == 0) {
    dup2(inPipe[0], STDIN_FILENO);
    dup2(outPipe[1], STDOUT_FILENO);
    close(inPipe[0]);
    close(inPipe[1]);
    close(outPipe[0]);
    close(outPipe[1]);
    std::vector<std::string> argvStr = {a.execPath, "--stdio", "--quiet"};
    if (!a.cacheDir.empty()) argvStr.push_back("--cache-dir=" + a.cacheDir);
    if (a.workers > 0) {
      argvStr.push_back("--workers=" + std::to_string(a.workers));
    }
    std::vector<char*> argvRaw;
    for (std::string& s : argvStr) argvRaw.push_back(s.data());
    argvRaw.push_back(nullptr);
    execv(a.execPath.c_str(), argvRaw.data());
    std::perror("lamp-cli: execv");
    _exit(127);
  }
  close(inPipe[0]);
  close(outPipe[1]);
  d.pid = pid;
  d.toChild = inPipe[1];
  d.fromChild = outPipe[0];
  return true;
}

int replayMode(const Args& a) {
  std::ifstream trace(a.replayPath);
  if (!trace) {
    std::cerr << "lamp-cli: cannot read trace " << a.replayPath << "\n";
    return 1;
  }
  std::vector<std::string> requests;
  std::string line;
  while (std::getline(trace, line)) {
    if (!line.empty() && line[0] != '#') requests.push_back(line);
  }
  if (requests.empty()) {
    std::cerr << "lamp-cli: empty trace\n";
    return 1;
  }

  Daemon d;
  std::string err;
  if (!spawnDaemon(a, d, err)) {
    std::cerr << "lamp-cli: " << err << "\n";
    return 1;
  }
  util::LineChannel out(d.toChild);
  util::LineChannel in(d.fromChild);
  // The deadline applies from the very first exchange: a daemon that
  // wedges during startup must not hang the harness.
  if (a.timeoutMs > 0) {
    out.setTimeoutMs(a.timeoutMs);
    in.setTimeoutMs(a.timeoutMs);
  }

  bool failed = false;
  // Request id -> result serialization of the pass that solved it.
  std::map<std::string, std::string> firstResults;
  std::size_t finalHits = 0, finalRequests = 0;

  for (int pass = 1; pass <= a.passes && !failed; ++pass) {
    for (const std::string& req : requests) {
      if (!out.writeLine(req)) {
        std::cerr << (out.timedOut()
                          ? "lamp-cli: timed out writing to the daemon\n"
                          : "lamp-cli: write to daemon failed\n");
        failed = true;
        break;
      }
    }
    std::size_t hits = 0;
    for (std::size_t i = 0; i < requests.size() && !failed; ++i) {
      std::string response;
      if (!in.readLine(response)) {
        std::cerr << (in.timedOut()
                          ? "lamp-cli: timed out waiting for the daemon\n"
                          : "lamp-cli: daemon hung up mid-pass\n");
        failed = true;
        break;
      }
      const auto doc = Json::parse(response);
      if (!doc || !doc->isObject()) {
        std::cerr << "lamp-cli: unparsable response: " << response << "\n";
        failed = true;
        break;
      }
      const Json* ok = doc->find("ok");
      if (ok == nullptr || !ok->asBool()) {
        std::cerr << "lamp-cli: request failed in pass " << pass << ": "
                  << response << "\n";
        failed = true;
        break;
      }
      const Json* cache = doc->find("cache");
      const Json* id = doc->find("id");
      const Json* result = doc->find("result");
      const std::string idText = id ? id->asString() : "";
      const std::string resultText = result ? result->dump() : "";
      // "coalesced" counts as cache-served: the request was answered
      // from an identical in-flight solve (duplicate trace entries
      // admitted concurrently join one flight instead of hitting the
      // cache a few microseconds later).
      if (cache != nullptr &&
          (cache->asString() == "hit" || cache->asString() == "coalesced")) {
        ++hits;
        // Bit-identity: a hit must reproduce the originally solved
        // result exactly, byte for byte.
        const auto it = firstResults.find(idText);
        if (it != firstResults.end() && it->second != resultText) {
          std::cerr << "lamp-cli: cache hit for id '" << idText
                    << "' differs from the first-pass result\n";
          failed = true;
          break;
        }
      }
      firstResults.emplace(idText, resultText);
    }
    if (pass == a.passes) {
      finalHits = hits;
      finalRequests = requests.size();
    }
    std::cerr << "lamp-cli: pass " << pass << "/" << a.passes << ": " << hits
              << "/" << requests.size() << " served from cache\n";
  }

  close(d.toChild);  // EOF -> daemon exits
  close(d.fromChild);
  if (failed) {
    // A wedged daemon (the reason the pass failed) would also hang the
    // waitpid below; reap it forcibly so the deadline stays honored.
    kill(d.pid, SIGKILL);
  }
  int status = 0;
  waitpid(d.pid, &status, 0);
  if (failed) return 1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::cerr << "lamp-cli: daemon exited abnormally\n";
    return 1;
  }
  const double ratio =
      finalRequests == 0
          ? 0.0
          : static_cast<double>(finalHits) / static_cast<double>(finalRequests);
  if (ratio + 1e-9 < a.expectWarmHitRatio) {
    std::cerr << "lamp-cli: final-pass cache hit ratio " << ratio
              << " below expected " << a.expectWarmHitRatio << "\n";
    return 1;
  }
  std::cerr << "lamp-cli: replay ok (final-pass hit ratio " << ratio << ")\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  std::string err;
  if (!parseArgs(argc, argv, a, err)) {
    std::cerr << "lamp-cli: " << err << "\n";
    return 1;
  }
  return a.replayPath.empty() ? clientMode(a) : replayMode(a);
}
