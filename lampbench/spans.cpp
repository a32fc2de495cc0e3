#include "spans.h"

#include <fstream>

#include "util/json.h"

namespace lampbench {

using lamp::util::Json;

std::string_view SpanRecord::layer() const {
  if (parent < 0) return "bench";
  const std::string_view n = name;
  return n.substr(0, n.find('.'));
}

void Spans::beginRequest(std::int64_t id, std::string label) {
  SpanRecord r;
  r.name = "request";
  r.function = std::move(label);
  r.request = id;
  r.begin = now();
  r.end = r.begin;
  open_ = static_cast<int>(records_.size());
  records_.push_back(std::move(r));
}

void Spans::endRequest() {
  if (open_ < 0) return;
  records_[static_cast<std::size_t>(open_)].end = now();
  open_ = -1;
}

void Spans::add(std::string_view name, std::string_view function,
                double begin, double end) {
  SpanRecord r;
  r.name = std::string(name);
  r.function = std::string(function);
  r.parent = open_;
  r.request =
      open_ < 0 ? -1 : records_[static_cast<std::size_t>(open_)].request;
  r.begin = begin;
  r.end = end;
  records_.push_back(std::move(r));
}

double Spans::total(std::string_view name) const {
  double s = 0.0;
  for (const SpanRecord& r : records_) {
    if (r.name == name) s += r.seconds();
  }
  return s;
}

std::map<std::string, double, std::less<>> Spans::selfSeconds() const {
  std::vector<double> self(records_.size());
  for (std::size_t i = 0; i < records_.size(); ++i) {
    self[i] += records_[i].seconds();
    if (records_[i].parent >= 0) {
      self[static_cast<std::size_t>(records_[i].parent)] -=
          records_[i].seconds();
    }
  }
  std::map<std::string, double, std::less<>> byLayer;
  for (const std::string_view layer : kLayers) {
    byLayer[std::string(layer)] = 0.0;
  }
  for (std::size_t i = 0; i < records_.size(); ++i) {
    byLayer[std::string(records_[i].layer())] += self[i];
  }
  return byLayer;
}

double Spans::requestSeconds() const {
  double s = 0.0;
  for (const SpanRecord& r : records_) {
    if (r.parent < 0) s += r.seconds();
  }
  return s;
}

bool Spans::writeChromeTrace(const std::string& path) const {
  Json events = Json::array();
  for (const SpanRecord& r : records_) {
    Json e = Json::object();
    e.set("name", Json::string(r.parent < 0 ? r.function : r.name));
    e.set("cat", Json::string(std::string(r.layer())));
    e.set("ph", Json::string("X"));
    e.set("ts", Json::number(r.begin * 1e6));
    e.set("dur", Json::number(r.seconds() * 1e6));
    e.set("pid", Json::integer(1));
    e.set("tid", Json::integer(1));
    Json args = Json::object();
    args.set("request", Json::integer(r.request));
    if (r.parent >= 0) args.set("function", Json::string(r.function));
    e.set("args", std::move(args));
    events.push(std::move(e));
  }
  Json doc = Json::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", Json::string("ms"));
  std::ofstream out(path);
  if (!out) return false;
  doc.write(out);
  out << '\n';
  return static_cast<bool>(out);
}

}  // namespace lampbench
