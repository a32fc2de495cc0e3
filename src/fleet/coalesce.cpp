#include "fleet/coalesce.h"

namespace lamp::fleet {

std::uint64_t Coalescer::beginOrJoin(const std::string& key, Callback cb) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, opened] = flights_.try_emplace(key);
  if (opened) {
    it->second.token = nextToken_++;
    return it->second.token;
  }
  it->second.followers.push_back(std::move(cb));
  return 0;
}

std::size_t Coalescer::publish(const std::string& key, std::uint64_t token,
                               const std::string& response) {
  std::vector<Callback> followers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = flights_.find(key);
    if (it == flights_.end() || it->second.token != token) return 0;
    followers = std::move(it->second.followers);
    flights_.erase(it);
  }
  for (const Callback& cb : followers) cb(response);
  return followers.size();
}

std::size_t Coalescer::inFlight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return flights_.size();
}

}  // namespace lamp::fleet
