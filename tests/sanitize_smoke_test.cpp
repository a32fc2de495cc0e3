// Sanitized smoke coverage (built with
// -fsanitize=address,undefined,float-cast-overflow by
// tests/CMakeLists.txt): one small benchmark end-to-end through
// flow::runFlow, one request through the lampd stdio transport
// (serveStream over string streams — exactly what `lampd --stdio`
// wraps), and hostile request lines the transport must reject. The
// point is not functional depth — the plain test suite has that — but
// walking the allocation- and cast-heavy paths (cut enumeration, MILP
// build/solve, JSON protocol) under ASan+UBSan.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

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
  EXPECT_EQ(svc::serveStream(svc::serviceHandler(service), in, out), 2u);

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
  EXPECT_EQ(svc::serveStream(svc::serviceHandler(service), in, out), 1u)
      << line;
  return util::Json::parse(out.str()).value_or(util::Json());
}

// No client input may crash the daemon or be silently truncated: each
// line below is answered bad_request naming what is wrong, and the daemon
// keeps serving. 1e300 overflows a double-to-integer cast (caught by this
// lane's float-cast-overflow check), 4294967297 / 2.9 / 4294967300 used
// to run as 1 / 2 / 4, and the thread counts used to reach the solver
// and the cut enumerator unbounded. The truncated values come first, so
// a build that accepts them stops before spawning thousands of threads.
// The last two nest past Json::kMaxDepth (a whole line of '[', and a
// request whose options value nests 100,000 deep); without the cap they
// overflow the parser's stack.
TEST(SanitizeSmokeTest, HostileOptionsAreRejected) {
  svc::ServiceOptions so;
  so.workers = 1;
  so.cacheEnabled = false;
  svc::Service service(so);

  const std::pair<std::string, std::string> options[] = {
      {"ii", "1e300"},          {"ii", "4294967297"},
      {"ii", "2.9"},            {"k", "4294967300"},
      {"ii", "1e999"},          {"solverThreads", "3000"},
      {"cutThreads", "-3000"},
  };
  // (request line, text its error must contain)
  std::vector<std::pair<std::string, std::string>> hostile;
  for (const auto& [key, value] : options) {
    hostile.emplace_back(R"({"id":"x","benchmark":"XORR","options":{")" +
                             key + "\":" + value + "}}",
                         key);
  }
  hostile.emplace_back(std::string(60000, '['), "nesting deeper than 512");
  hostile.emplace_back(R"({"id":"x","benchmark":"XORR","options":)" +
                           std::string(100000, '[') +
                           std::string(100000, ']') + "}",
                       "nesting deeper than 512");
  for (const auto& [line, want] : hostile) {
    const std::string shown = line.substr(0, 80);
    const util::Json resp = serveLine(service, line);
    const util::Json* status = resp.isObject() ? resp.find("status") : nullptr;
    ASSERT_NE(status, nullptr) << shown << " -> " << resp.dump();
    ASSERT_EQ(status->asString(), "bad_request") << shown;
    EXPECT_NE(resp.find("error")->asString().find(want), std::string::npos)
        << resp.dump();
  }
  const util::Json health = serveLine(service, R"({"id":"h","cmd":"health"})");
  ASSERT_TRUE(health.isObject()) << health.dump();
  EXPECT_TRUE(health.find("ok")->asBool()) << health.dump();
}

}  // namespace
}  // namespace lamp
