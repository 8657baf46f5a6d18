// Deterministic socket-fault scenarios for the serving layer, plus the
// env-driven ServeFaultMatrix suite the CI fault-injection legs run under
// QHDL_FAULT_SPEC (accept=fail, sock=short/drop/slow). Every scenario pins
// the same invariant: a fault degrades exactly one connection — it is
// counted, the reply (if any) is descriptive, and the server keeps serving.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>

#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/deadline.hpp"
#include "util/fault_injection.hpp"
#include "util/socket.hpp"

namespace qhdl::serve {
namespace {

util::Json ping_request() {
  util::Json request = util::Json::object();
  request["type"] = "ping";
  return request;
}

bool wait_for_stats(
    const Server& server,
    const std::function<bool(const util::MetricsSnapshot&)>& predicate,
    std::uint64_t budget_ms = 5000) {
  const util::Deadline deadline = util::Deadline::after_ms(budget_ms);
  while (!deadline.expired()) {
    if (predicate(server.metrics())) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return predicate(server.metrics());
}

/// Disarms around every test so the process-global injector cannot leak
/// between scenarios (or into other suites in this binary).
class ServeFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!util::sockets_supported()) GTEST_SKIP() << "no socket support";
    util::FaultInjector::instance().configure("");
  }
  void TearDown() override {
    util::FaultInjector::instance().configure("");
  }
};

TEST_F(ServeFaultTest, AcceptFailureIsCountedAndRecovered) {
  Server server{ServerConfig{}};
  server.start();
  util::FaultInjector::instance().configure("accept=fail@1");
  // The injected failure closes the freshly accepted connection: this
  // client sees EOF instead of a reply.
  EXPECT_THROW(round_trip("127.0.0.1", server.port(), ping_request(), 5000),
               std::runtime_error);
  EXPECT_TRUE(wait_for_stats(server, [](const util::MetricsSnapshot& s) {
    return s.at("accept_failures") >= 1;
  }));
  // One-shot trigger: the very next connection is served normally.
  EXPECT_EQ(round_trip("127.0.0.1", server.port(), ping_request(), 5000)
                .at("type")
                .as_string(),
            "pong");
}

TEST_F(ServeFaultTest, ShortReadsReassembleAndServe) {
  Server server{ServerConfig{}};
  server.start();
  // Every read on every side delivers one byte at a time; framing must
  // reassemble transparently and the request still succeeds.
  util::FaultInjector::instance().configure("sock=short@1+");
  EXPECT_EQ(round_trip("127.0.0.1", server.port(), ping_request(), 30000)
                .at("type")
                .as_string(),
            "pong");
}

TEST_F(ServeFaultTest, MidFrameDisconnectIsAProtocolErrorNotACrash) {
  Server server{ServerConfig{}};
  server.start();
  // The server's first read is cut to one byte, its second observes a
  // disconnect — a deterministic mid-frame EOF. (Arrivals 1 and 2 are the
  // server's: the client does not read until after its write.)
  util::FaultInjector::instance().configure("sock=short@1;sock=drop@2");
  const util::Json reply =
      round_trip("127.0.0.1", server.port(), ping_request(), 30000);
  EXPECT_EQ(reply.at("type").as_string(), "error");
  EXPECT_NE(reply.at("message").as_string().find("truncated"),
            std::string::npos)
      << reply.dump(2);
  EXPECT_EQ(server.metrics().at("protocol_errors"), 1u);
  // And the next connection is healthy.
  util::FaultInjector::instance().configure("");
  EXPECT_EQ(round_trip("127.0.0.1", server.port(), ping_request(), 5000)
                .at("type")
                .as_string(),
            "pong");
}

TEST_F(ServeFaultTest, SlowClientHitsReadTimeoutNotAHang) {
  ServerConfig config;
  config.read_timeout_ms = 200;
  Server server{config};
  server.start();
  // Every read stalls: the server's request read must expire at its
  // deadline (counted), and this client's bounded reply wait throws
  // instead of wedging.
  util::FaultInjector::instance().configure("sock=slow@1+");
  EXPECT_THROW(round_trip("127.0.0.1", server.port(), ping_request(), 800),
               std::runtime_error);
  EXPECT_TRUE(wait_for_stats(server, [](const util::MetricsSnapshot& s) {
    return s.at("read_timeouts") >= 1;
  }));
  util::FaultInjector::instance().configure("");
  EXPECT_EQ(round_trip("127.0.0.1", server.port(), ping_request(), 5000)
                .at("type")
                .as_string(),
            "pong");
}

// --- env-driven matrix (CI: QHDL_FAULT_SPEC x this suite) -----------------

/// One scenario, parameterized entirely by QHDL_FAULT_SPEC. CI runs this
/// suite once per spec in its fault matrix; without a spec it skips. The
/// spec names a socket-site fault; the test asserts the spec-appropriate
/// counter moved and that the server survives to serve a clean request.
TEST(ServeFaultMatrix, ServerSurvivesConfiguredSocketFault) {
  const char* env = std::getenv("QHDL_FAULT_SPEC");
  if (env == nullptr || env[0] == '\0') {
    GTEST_SKIP() << "set QHDL_FAULT_SPEC to an accept=/sock= spec";
  }
  if (!util::sockets_supported()) GTEST_SKIP() << "no socket support";
  const std::string spec = env;

  ServerConfig config;
  config.read_timeout_ms = 300;
  Server server{config};
  server.start();
  util::FaultInjector::instance().configure(spec);

  util::Json request = util::Json::object();
  request["type"] = "ping";
  std::string reply_type = "<none>";
  try {
    reply_type =
        round_trip("127.0.0.1", server.port(), request, 2000)
            .at("type")
            .as_string();
  } catch (const std::exception&) {
    // Transport failure is the expected client-side face of accept/slow
    // faults; the assertions below check the server-side accounting.
  }

  if (spec.find("drop") != std::string::npos) {
    // A mid-stream disconnect surfaces as a descriptive protocol error.
    EXPECT_TRUE(wait_for_stats(server, [](const util::MetricsSnapshot& s) {
      return s.at("protocol_errors") >= 1;
    })) << spec;
  } else if (spec.find("accept=") != std::string::npos) {
    EXPECT_TRUE(wait_for_stats(server, [](const util::MetricsSnapshot& s) {
      return s.at("accept_failures") >= 1;
    })) << spec;
  } else if (spec.find("slow") != std::string::npos) {
    EXPECT_TRUE(wait_for_stats(server, [](const util::MetricsSnapshot& s) {
      return s.at("read_timeouts") >= 1;
    })) << spec;
  } else if (spec.find("short") != std::string::npos) {
    // Short reads only fragment the stream; the request must succeed.
    EXPECT_EQ(reply_type, "pong") << spec;
  }

  // The invariant behind the whole matrix: after the fault clears, the
  // server serves a clean request and stops gracefully.
  util::FaultInjector::instance().configure("");
  EXPECT_EQ(round_trip("127.0.0.1", server.port(), request, 5000)
                .at("type")
                .as_string(),
            "pong")
      << spec;
  server.stop();
}

}  // namespace
}  // namespace qhdl::serve
