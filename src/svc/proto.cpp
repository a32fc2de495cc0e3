#include "svc/proto.h"

#include <limits>

#include "flow/flow_json.h"
#include "util/json.h"

namespace lamp::svc {

using util::Json;

namespace {

std::string idText(const Json* id) {
  if (id == nullptr) return "";
  if (id->isString()) return id->asString();
  if (id->isNumber() || id->isBool()) return id->dump();
  return "";
}

}  // namespace

std::optional<Request> parseRequest(const std::string& line,
                                    std::string* error, std::string* idOut) {
  const auto fail = [&](const std::string& msg) -> std::optional<Request> {
    if (error) *error = msg;
    return std::nullopt;
  };
  std::string parseError;
  const auto doc = Json::parse(line, &parseError);
  if (!doc) return fail("malformed JSON: " + parseError);
  if (!doc->isObject()) return fail("request is not an object");

  Request req;
  req.id = idText(doc->find("id"));
  if (idOut) *idOut = req.id;

  for (const auto& [key, value] : doc->members()) {
    if (key == "id") {
      // already captured
    } else if (key == "cmd") {
      req.cmd = value.asString();
    } else if (key == "ms") {
      // The sleep hook holds a worker for at most an hour.
      if (auto bad = flow::readNumber(key, value, {0, 3.6e6}, req.sleepMs)) {
        return fail(*bad);
      }
    } else if (key == "shard") {
      double shard = 0;
      if (auto bad = flow::readNumber(
              key, value, {0, std::numeric_limits<int>::max(), true}, shard)) {
        return fail(*bad);
      }
      req.shard = static_cast<int>(shard);
    } else if (key == "format") {
      if (!value.isString()) return fail("format must be a string");
      req.statsFormat = value.asString();
    } else if (key == "benchmark") {
      if (!value.isString()) return fail("benchmark must be a string");
      req.benchmark = value.asString();
    } else if (key == "graph") {
      if (!value.isString()) return fail("graph must be a string");
      req.graphText = value.asString();
    } else if (key == "method") {
      if (!flow::parseMethodToken(value.asString(), req.method)) {
        return fail("unknown method '" + value.asString() + "'");
      }
    } else if (key == "options") {
      std::string optError;
      if (!flow::optionsFromJson(value, req.options, &optError)) {
        return fail("bad options: " + optError);
      }
    } else if (key == "deadlineMs") {
      if (auto bad = flow::readNumber(key, value, {0}, req.deadlineMs)) {
        return fail(*bad);
      }
    } else if (key == "paperScale") {
      req.paperScale = value.asBool();
    } else if (key == "noCache") {
      req.noCache = value.asBool();
    } else if (key == "trace") {
      if (!value.isString()) return fail("trace must be a string");
      if (!obs::parseTraceparent(value.asString(), &req.trace)) {
        return fail("malformed traceparent '" + value.asString() + "'");
      }
    } else {
      return fail("unknown request key '" + key + "'");
    }
  }

  if (req.cmd.empty()) {
    if (req.benchmark.empty() == req.graphText.empty()) {
      return fail("exactly one of 'benchmark' or 'graph' is required");
    }
  } else if (req.cmd != "stats" && req.cmd != "sleep" && req.cmd != "health" &&
             req.cmd != "drain" && req.cmd != "resume" && req.cmd != "dump") {
    return fail("unknown cmd '" + req.cmd + "'");
  }
  if (req.shard >= 0 && (req.cmd.empty() || req.cmd == "sleep")) {
    return fail("'shard' is only valid with control verbs");
  }
  if (!req.statsFormat.empty()) {
    if (req.cmd != "stats") return fail("'format' is only valid with stats");
    if (req.statsFormat != "json" && req.statsFormat != "prometheus") {
      return fail("unknown stats format '" + req.statsFormat + "'");
    }
    if (req.statsFormat == "json") req.statsFormat.clear();
  }
  return req;
}

std::string errorResponse(const std::string& id, std::string_view status,
                          const std::string& message,
                          const flow::FlowResult* partial,
                          const std::vector<analyze::Diagnostic>* diagnostics) {
  Json j = Json::object();
  j.set("id", Json::string(id));
  j.set("ok", Json::boolean(false));
  j.set("status", Json::string(std::string(status)));
  j.set("error", Json::string(message));
  if (partial != nullptr) j.set("result", flow::resultToJson(*partial));
  if (diagnostics != nullptr && !diagnostics->empty()) {
    j.set("diagnostics", analyze::diagnosticsToJson(*diagnostics));
  }
  return j.dump();
}

std::string resultResponse(const std::string& id, std::string_view cacheState,
                           double queueMs, double wallMs,
                           const flow::FlowResult& result) {
  Json j = Json::object();
  j.set("id", Json::string(id));
  j.set("ok", Json::boolean(true));
  j.set("cache", Json::string(std::string(cacheState)));
  j.set("queueMs", Json::number(queueMs));
  j.set("wallMs", Json::number(wallMs));
  j.set("result", flow::resultToJson(result));
  return j.dump();
}

}  // namespace lamp::svc
