#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

namespace lamp::obs {

namespace {

void addDouble(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1) {}

void Histogram::observe(double v) {
  // First bucket whose upper bound admits v; past-the-end = +Inf bucket.
  const std::size_t i =
      std::upper_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin();
  // upper_bound gives bounds_[i] > v; Prometheus buckets are `le`
  // (inclusive), so step back onto an exactly-equal bound.
  const std::size_t b = (i > 0 && bounds_[i - 1] == v) ? i - 1 : i;
  counts_[b].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  addDouble(sum_, v);
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  s.bounds = bounds_;
  s.counts.resize(counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    s.counts[i] = counts_[i].load(std::memory_order_relaxed);
  }
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  return s;
}

double Histogram::Snapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const std::uint64_t next = cum + counts[i];
    if (static_cast<double>(next) >= rank && counts[i] > 0) {
      if (i >= bounds.size()) {
        // +Inf bucket: clamp to the largest finite bound.
        return bounds.empty() ? 0.0 : bounds.back();
      }
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      const double hi = bounds[i];
      const double frac =
          (rank - static_cast<double>(cum)) / static_cast<double>(counts[i]);
      return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    }
    cum = next;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

std::vector<double> Histogram::exponentialBounds(double start, double factor,
                                                int n) {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(n));
  double v = start;
  for (int i = 0; i < n; ++i) {
    out.push_back(v);
    v *= factor;
  }
  return out;
}

void Histogram::reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

Registry& Registry::global() {
  static Registry* r = new Registry();
  return *r;
}

Registry::Entry* Registry::findLocked(const std::string& name) {
  for (auto& e : entries_) {
    if (e->name == name) return e.get();
  }
  return nullptr;
}

Counter& Registry::counter(const std::string& name, std::string help) {
  std::lock_guard<std::mutex> lock(mu_);
  if (Entry* e = findLocked(name)) return *e->counter;
  auto e = std::make_unique<Entry>();
  e->kind = Entry::Kind::Counter;
  e->name = name;
  e->help = std::move(help);
  e->counter = std::make_unique<Counter>();
  entries_.push_back(std::move(e));
  return *entries_.back()->counter;
}

Gauge& Registry::gauge(const std::string& name, std::string help) {
  std::lock_guard<std::mutex> lock(mu_);
  if (Entry* e = findLocked(name)) return *e->gauge;
  auto e = std::make_unique<Entry>();
  e->kind = Entry::Kind::Gauge;
  e->name = name;
  e->help = std::move(help);
  e->gauge = std::make_unique<Gauge>();
  entries_.push_back(std::move(e));
  return *entries_.back()->gauge;
}

Histogram& Registry::histogram(const std::string& name,
                               std::vector<double> bounds, std::string help) {
  std::lock_guard<std::mutex> lock(mu_);
  if (Entry* e = findLocked(name)) return *e->histogram;
  auto e = std::make_unique<Entry>();
  e->kind = Entry::Kind::Histogram;
  e->name = name;
  e->help = std::move(help);
  e->histogram = std::make_unique<Histogram>(std::move(bounds));
  entries_.push_back(std::move(e));
  return *entries_.back()->histogram;
}

util::Json Registry::toJson() const {
  using util::Json;
  std::lock_guard<std::mutex> lock(mu_);
  Json j = Json::object();
  for (const auto& e : entries_) {
    switch (e->kind) {
      case Entry::Kind::Counter: {
        Json m = Json::object();
        m.set("type", Json::string("counter"));
        m.set("value", Json::integer(
                           static_cast<std::int64_t>(e->counter->value())));
        j.set(e->name, std::move(m));
        break;
      }
      case Entry::Kind::Gauge: {
        Json m = Json::object();
        m.set("type", Json::string("gauge"));
        m.set("value", Json::number(e->gauge->value()));
        j.set(e->name, std::move(m));
        break;
      }
      case Entry::Kind::Histogram: {
        const Histogram::Snapshot s = e->histogram->snapshot();
        Json m = Json::object();
        m.set("type", Json::string("histogram"));
        m.set("count", Json::integer(static_cast<std::int64_t>(s.count)));
        m.set("sum", Json::number(s.sum));
        m.set("p50", Json::number(s.quantile(0.50)));
        m.set("p95", Json::number(s.quantile(0.95)));
        m.set("p99", Json::number(s.quantile(0.99)));
        Json buckets = Json::array();
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i < s.counts.size(); ++i) {
          cum += s.counts[i];
          Json b = Json::object();
          b.set("le", i < s.bounds.size()
                          ? Json::number(s.bounds[i])
                          : Json::string("+Inf"));
          b.set("count", Json::integer(static_cast<std::int64_t>(cum)));
          buckets.push(std::move(b));
        }
        m.set("buckets", std::move(buckets));
        j.set(e->name, std::move(m));
        break;
      }
    }
  }
  return j;
}

std::string Registry::toPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& e : entries_) {
    if (!e->help.empty()) {
      out += "# HELP " + e->name + " " + e->help + "\n";
    }
    switch (e->kind) {
      case Entry::Kind::Counter:
        out += "# TYPE " + e->name + " counter\n";
        out += e->name + " " + std::to_string(e->counter->value()) + "\n";
        break;
      case Entry::Kind::Gauge:
        out += "# TYPE " + e->name + " gauge\n";
        out += e->name + " " + util::numberText(e->gauge->value()) + "\n";
        break;
      case Entry::Kind::Histogram: {
        const Histogram::Snapshot s = e->histogram->snapshot();
        out += "# TYPE " + e->name + " histogram\n";
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i < s.counts.size(); ++i) {
          cum += s.counts[i];
          const std::string le =
              i < s.bounds.size() ? util::numberText(s.bounds[i]) : "+Inf";
          out += e->name + "_bucket{le=\"" + le + "\"} " +
                 std::to_string(cum) + "\n";
        }
        out += e->name + "_sum " + util::numberText(s.sum) + "\n";
        out += e->name + "_count " + std::to_string(s.count) + "\n";
        break;
      }
    }
  }
  return out;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& e : entries_) {
    switch (e->kind) {
      case Entry::Kind::Counter:
        // In place, not by swapping the object out: references handed
        // out by counter() must stay valid across a reset.
        e->counter->reset();
        break;
      case Entry::Kind::Gauge:
        e->gauge->set(0.0);
        break;
      case Entry::Kind::Histogram:
        e->histogram->reset();
        break;
    }
  }
}

}  // namespace lamp::obs
