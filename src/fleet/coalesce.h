#ifndef LAMP_FLEET_COALESCE_H
#define LAMP_FLEET_COALESCE_H

/// \file coalesce.h
/// In-flight request coalescing: identical work submitted while an equal
/// request is already being solved joins that request's *flight* instead
/// of solving again, and the one response fans back out to every waiter.
/// Iterative DSE loops and multi-client fleets submit near-duplicate
/// streams, so this is the difference between N identical solves and 1.
///
/// Used at two layers with the same keys (svc::workKey):
///  - svc::Service coalesces identical solves inside one daemon —
///    followers never occupy a queue slot or a worker;
///  - fleet::Router coalesces identical requests across clients before
///    they ever reach a shard.
///
/// Protocol: beginOrJoin() either opens a flight (caller becomes the
/// *leader*, returns a nonzero token) or registers the callback on the
/// existing flight (*follower*, returns 0). The leader performs the work
/// and must call publish() with its raw response exactly once — publish
/// closes the flight and invokes every follower callback with a copy of
/// the response (outside the lock; callbacks may be slow). Followers
/// receive the leader's bytes verbatim: the caller rewrites the envelope
/// per waiter (svc::followerResponse).
///
/// The token pins publish() to the flight its caller opened: if the
/// flight already closed and a new one opened under the same key, a
/// stale publish is a no-op instead of answering the wrong waiters.
/// Thread-safe. No lamp dependencies (TSan lane compiles this alone).

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace lamp::fleet {

class Coalescer {
 public:
  using Callback = std::function<void(const std::string& response)>;

  /// Leader: returns a nonzero flight token (caller must publish()).
  /// Follower: registers `cb` on the open flight and returns 0.
  std::uint64_t beginOrJoin(const std::string& key, Callback cb);

  /// Closes the flight `token` opened for `key` and fans `response` out
  /// to its followers. Returns the number of followers notified (0 when
  /// the flight had none or the token is stale).
  std::size_t publish(const std::string& key, std::uint64_t token,
                      const std::string& response);

  /// Open flights right now (gauge; tests).
  std::size_t inFlight() const;

 private:
  struct Flight {
    std::uint64_t token = 0;
    std::vector<Callback> followers;
  };

  mutable std::mutex mu_;
  std::map<std::string, Flight> flights_;
  std::uint64_t nextToken_ = 1;
};

}  // namespace lamp::fleet

#endif  // LAMP_FLEET_COALESCE_H
