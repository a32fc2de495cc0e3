// Sanitized smoke coverage (built with
// -fsanitize=address,undefined,float-cast-overflow by
// tests/CMakeLists.txt): one small benchmark end-to-end through
// flow::runFlow, one request through the lampd stdio transport
// (serveStream over string streams — exactly what `lampd --stdio`
// wraps), and hostile option values the transport must reject. The
// point is not functional depth — the plain test suite has that — but
// walking the allocation- and cast-heavy paths (cut enumeration, MILP
// build/solve, JSON protocol) under ASan+UBSan.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>

#include "flow/flow.h"
#include "svc/server.h"
#include "svc/service.h"
#include "util/json.h"

namespace lamp {
namespace {

TEST(SanitizeSmokeTest, FlowRunsOneBenchmarkClean) {
  const workloads::Benchmark bm =
      *workloads::findBenchmark("GFMUL", workloads::Scale::Default);
  flow::FlowOptions opts;
  opts.solverTimeLimitSeconds = 10.0;
  const flow::FlowResult r = flow::runFlow(bm, flow::Method::MilpMap, opts);
  ASSERT_TRUE(r.success) << r.error;
  EXPECT_TRUE(r.functionallyVerified);
}

TEST(SanitizeSmokeTest, StdioTransportServesOneRequest) {
  svc::ServiceOptions so;
  so.workers = 1;
  so.cacheEnabled = false;
  svc::Service service(so);

  std::istringstream in(
      "{\"id\":\"r1\",\"benchmark\":\"GFMUL\","
      "\"options\":{\"timeLimitSeconds\":10}}\n"
      "{\"id\":\"r2\",\"cmd\":\"stats\"}\n");
  std::ostringstream out;
  EXPECT_EQ(svc::serveStream(service, in, out), 2u);

  std::istringstream responses(out.str());
  std::string line;
  std::size_t okLines = 0;
  while (std::getline(responses, line)) {
    const auto doc = util::Json::parse(line);
    ASSERT_TRUE(doc.has_value()) << line;
    const util::Json* ok = doc->find("ok");
    ASSERT_NE(ok, nullptr) << line;
    EXPECT_TRUE(ok->asBool()) << line;
    ++okLines;
  }
  EXPECT_EQ(okLines, 2u);
}

/// Serves one request line through the stdio transport and returns the
/// parsed response (null when there is none).
util::Json serveLine(svc::Service& service, const std::string& line) {
  std::istringstream in(line + "\n");
  std::ostringstream out;
  EXPECT_EQ(svc::serveStream(service, in, out), 1u) << line;
  return util::Json::parse(out.str()).value_or(util::Json());
}

// No client number may crash the daemon or be silently truncated: each
// option below is answered bad_request naming it, and the daemon keeps
// serving. 1e300 overflows a double-to-integer cast (caught by this
// lane's float-cast-overflow check), 4294967297 / 2.9 / 4294967300 used
// to run as 1 / 2 / 4, and the thread counts used to reach the solver
// and the cut enumerator unbounded. The truncated values come first, so
// a build that accepts them stops before spawning thousands of threads.
TEST(SanitizeSmokeTest, HostileOptionsAreRejected) {
  svc::ServiceOptions so;
  so.workers = 1;
  so.cacheEnabled = false;
  svc::Service service(so);

  const std::pair<std::string, std::string> hostile[] = {
      {"ii", "1e300"},          {"ii", "4294967297"},
      {"ii", "2.9"},            {"k", "4294967300"},
      {"ii", "1e999"},          {"solverThreads", "3000"},
      {"cutThreads", "-3000"},
  };
  for (const auto& [key, value] : hostile) {
    const std::string line = R"({"id":"x","benchmark":"XORR","options":{")" +
                             key + "\":" + value + "}}";
    const util::Json resp = serveLine(service, line);
    const util::Json* status = resp.isObject() ? resp.find("status") : nullptr;
    ASSERT_NE(status, nullptr) << line << " -> " << resp.dump();
    ASSERT_EQ(status->asString(), "bad_request") << line;
    EXPECT_NE(resp.find("error")->asString().find(key), std::string::npos)
        << resp.dump();
  }
  const util::Json health = serveLine(service, R"({"id":"h","cmd":"health"})");
  ASSERT_TRUE(health.isObject()) << health.dump();
  EXPECT_TRUE(health.find("ok")->asBool()) << health.dump();
}

}  // namespace
}  // namespace lamp
