#include "svc/cache.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "flow/flow_json.h"

namespace lamp::svc {

namespace fs = std::filesystem;
using util::Json;

namespace {

std::uint64_t stringHash64(std::string_view s) {
  // FNV-1a, enough to give option keys a fixed-width file-name token.
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// A tombstone is an entry whose payload was evicted with nothing
/// backing it — indexed storage but logically absent.
bool isDead(bool resident, bool onDisk) { return !resident && !onDisk; }

}  // namespace

SolutionCache::SolutionCache(std::string dir, std::size_t memEntries)
    : dir_(std::move(dir)), memEntries_(memEntries) {
  if (!dir_.empty()) {
    std::error_code ec;
    fs::create_directories(dir_, ec);  // best effort; load below tolerates absence
    loadDirectory();
  }
}

std::string SolutionCache::bucketId(const CacheKey& key) {
  return key.canonical.hex() + "-" + key.layout.hex() + "-" +
         hex64(stringHash64(key.hardKey));
}

std::string SolutionCache::entryPath(const CacheKey& key) const {
  const std::string soft =
      util::numberText(key.tcpNs) + "," +
      util::numberText(key.timeLimitSeconds);
  return dir_ + "/" + bucketId(key) + "-" + hex64(stringHash64(soft)) +
         ".json";
}

void SolutionCache::loadDirectory() {
  std::error_code ec;
  for (const auto& de : fs::directory_iterator(dir_, ec)) {
    if (!de.is_regular_file() || de.path().extension() != ".json") continue;
    std::ifstream in(de.path());
    std::stringstream ss;
    ss << in.rdbuf();
    const auto doc = Json::parse(ss.str());
    if (!doc || !doc->isObject()) continue;
    const Json* canonical = doc->find("canonical");
    const Json* layout = doc->find("layout");
    const Json* hardKey = doc->find("hardKey");
    const Json* tcp = doc->find("tcpNs");
    const Json* tl = doc->find("timeLimitSeconds");
    const Json* result = doc->find("result");
    if (!canonical || !layout || !hardKey || !tcp || !tl || !result) continue;
    const auto canonicalDigest = ir::GraphDigest::fromHex(canonical->asString());
    const auto layoutDigest = ir::GraphDigest::fromHex(layout->asString());
    if (!canonicalDigest || !layoutDigest) continue;
    Entry e;
    e.key = CacheKey{*canonicalDigest, *layoutDigest, hardKey->asString(),
                     tcp->asDouble(), tl->asDouble()};
    if (!flow::resultFromJson(*result, e.result, nullptr)) continue;
    e.success = e.result.success;
    e.resident = true;
    e.onDisk = true;
    e.path = de.path().string();
    auto& bucket = buckets_[bucketId(e.key)];
    Entry* loadedPtr = nullptr;
    for (Entry& existing : bucket) {
      if (existing.key.tcpNs == e.key.tcpNs &&
          existing.key.timeLimitSeconds == e.key.timeLimitSeconds) {
        if (existing.resident) --resident_;
        existing = std::move(e);
        loadedPtr = &existing;
        break;
      }
    }
    if (loadedPtr == nullptr) {
      bucket.push_back(std::move(e));
      loadedPtr = &bucket.back();
    }
    Entry& loaded = *loadedPtr;
    ++resident_;
    ++stats_.loadedFromDisk;
    // Reloads beyond the payload bound spill straight back to the disk
    // tier: the index keeps every entry, memory holds at most
    // memEntries_ payloads even right after a warm restart.
    touchAndEvict(loaded);
  }
}

void SolutionCache::touchAndEvict(Entry& e) {
  e.lastUse = ++clock_;
  if (memEntries_ == 0) return;
  while (resident_ > memEntries_) {
    Entry* victim = nullptr;
    for (auto& [id, bucket] : buckets_) {
      for (Entry& candidate : bucket) {
        if (!candidate.resident || &candidate == &e) continue;
        if (victim == nullptr || candidate.lastUse < victim->lastUse) {
          victim = &candidate;
        }
      }
    }
    if (victim == nullptr) return;  // only the touched entry is resident
    victim->resident = false;
    victim->result = flow::FlowResult{};
    --resident_;
    ++stats_.evictions;
    if (!victim->onDisk) ++stats_.evictionsLost;
  }
}

bool SolutionCache::reload(Entry& e) {
  std::ifstream in(e.path);
  std::stringstream ss;
  ss << in.rdbuf();
  const auto doc = Json::parse(ss.str());
  const Json* result =
      doc && doc->isObject() ? doc->find("result") : nullptr;
  if (result == nullptr || !flow::resultFromJson(*result, e.result, nullptr)) {
    // The file vanished or rotted under us; the entry is gone.
    e.onDisk = false;
    e.result = flow::FlowResult{};
    return false;
  }
  e.resident = true;
  ++resident_;
  ++stats_.diskTierHits;
  touchAndEvict(e);
  return true;
}

SolutionCache::Lookup SolutionCache::lookup(const CacheKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  Lookup out;
  const auto it = buckets_.find(bucketId(key));
  if (it != buckets_.end()) {
    // Exact first; otherwise the best warm candidate: tightest-fitting
    // clock target (largest cached tcpNs still <= the request), then the
    // longest solver budget (more time = better incumbent, usually).
    Entry* warm = nullptr;
    for (Entry& e : it->second) {
      if (isDead(e.resident, e.onDisk)) continue;
      if (e.key.tcpNs == key.tcpNs &&
          e.key.timeLimitSeconds == key.timeLimitSeconds) {
        if (e.resident) {
          ++stats_.memHits;
        } else if (!reload(e)) {
          continue;  // tier file lost; a warm sibling may still serve
        }
        ++stats_.exactHits;
        touchAndEvict(e);
        out.kind = Lookup::Kind::Exact;
        out.result = e.result;
        return out;
      }
      if (!e.success || e.key.tcpNs > key.tcpNs) continue;
      if (warm == nullptr || e.key.tcpNs > warm->key.tcpNs ||
          (e.key.tcpNs == warm->key.tcpNs &&
           e.key.timeLimitSeconds > warm->key.timeLimitSeconds)) {
        warm = &e;
      }
    }
    if (warm != nullptr) {
      if (warm->resident) {
        ++stats_.memHits;
      } else if (!reload(*warm)) {
        warm = nullptr;
      }
      if (warm != nullptr) {
        ++stats_.warmHits;
        touchAndEvict(*warm);
        out.kind = Lookup::Kind::Warm;
        out.result = warm->result;
        return out;
      }
    }
  }
  ++stats_.misses;
  return out;
}

void SolutionCache::insert(const CacheKey& key,
                           const flow::FlowResult& result) {
  const bool wroteDisk = !dir_.empty() && persist(key, result);
  std::lock_guard<std::mutex> lock(mu_);
  if (!dir_.empty() && !wroteDisk) ++stats_.diskWriteFailures;
  auto& bucket = buckets_[bucketId(key)];
  Entry* slot = nullptr;
  for (Entry& e : bucket) {
    if (e.key.tcpNs == key.tcpNs &&
        e.key.timeLimitSeconds == key.timeLimitSeconds) {
      slot = &e;
      break;
    }
  }
  if (slot == nullptr) {
    bucket.push_back(Entry{});
    slot = &bucket.back();
  } else if (slot->resident) {
    --resident_;
  }
  slot->key = key;
  slot->success = result.success;
  slot->resident = true;
  slot->onDisk = wroteDisk;
  slot->path = wroteDisk ? entryPath(key) : std::string();
  slot->result = result;
  ++resident_;
  ++stats_.inserts;
  touchAndEvict(*slot);
}

std::size_t SolutionCache::flush() {
  if (dir_.empty()) return 0;
  // Collect unpersisted payloads under the lock, write outside it, then
  // flip the flags — persist() is pure file IO and may be slow.
  std::vector<std::pair<CacheKey, flow::FlowResult>> pending;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, bucket] : buckets_) {
      for (Entry& e : bucket) {
        if (e.resident && !e.onDisk) pending.emplace_back(e.key, e.result);
      }
    }
  }
  std::size_t written = 0;
  for (const auto& [key, result] : pending) {
    if (!persist(key, result)) continue;
    ++written;
    std::lock_guard<std::mutex> lock(mu_);
    auto it = buckets_.find(bucketId(key));
    if (it == buckets_.end()) continue;
    for (Entry& e : it->second) {
      if (e.key.tcpNs == key.tcpNs &&
          e.key.timeLimitSeconds == key.timeLimitSeconds) {
        e.onDisk = true;
        e.path = entryPath(key);
        break;
      }
    }
  }
  return written;
}

bool SolutionCache::persist(const CacheKey& key,
                            const flow::FlowResult& result) {
  Json doc = Json::object();
  doc.set("version", Json::integer(1));
  doc.set("canonical", Json::string(key.canonical.hex()));
  doc.set("layout", Json::string(key.layout.hex()));
  doc.set("hardKey", Json::string(key.hardKey));
  doc.set("tcpNs", Json::number(key.tcpNs));
  doc.set("timeLimitSeconds", Json::number(key.timeLimitSeconds));
  doc.set("result", flow::resultToJson(result));

  const std::string path = entryPath(key);
  // Thread-unique temp name: concurrent inserts of the same key must not
  // interleave partial writes; the final rename is atomic either way.
  const std::string tmp =
      path + ".tmp" +
      hex64(std::hash<std::thread::id>{}(std::this_thread::get_id()));
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return false;
    doc.write(out);
    out << "\n";
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  return !ec;
}

CacheStats SolutionCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t SolutionCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& [id, bucket] : buckets_) {
    for (const Entry& e : bucket) {
      if (!isDead(e.resident, e.onDisk)) ++n;
    }
  }
  return n;
}

std::size_t SolutionCache::residentSize() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resident_;
}

}  // namespace lamp::svc
