#include "util/fault_injection.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace qhdl::util {
namespace {

/// Every test starts disarmed and leaves the injector disarmed, so tests
/// sharing the process-wide singleton cannot poison each other.
class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::instance().configure(""); }
  void TearDown() override { FaultInjector::instance().configure(""); }
};

TEST_F(FaultInjectionTest, DisarmedInjectorNeverFires) {
  FaultInjector& injector = FaultInjector::instance();
  EXPECT_FALSE(injector.armed());
  for (int i = 0; i < 100; ++i) {
    EXPECT_NO_THROW(injector.on_unit_boundary("unit"));
    EXPECT_NO_THROW(injector.on_io_write("file"));
    EXPECT_FALSE(injector.poison_loss());
  }
  // Disarmed arrivals are not even counted (lock-free fast path).
  EXPECT_EQ(injector.arrivals(FaultSite::Loss), 0u);
}

TEST_F(FaultInjectionTest, CrashFiresAtExactArrival) {
  FaultInjector& injector = FaultInjector::instance();
  injector.configure("unit=crash@3");
  EXPECT_TRUE(injector.armed());
  EXPECT_NO_THROW(injector.on_unit_boundary("u1"));
  EXPECT_NO_THROW(injector.on_unit_boundary("u2"));
  EXPECT_THROW(injector.on_unit_boundary("u3"), InjectedCrash);
  // One-shot trigger: arrival 4 passes.
  EXPECT_NO_THROW(injector.on_unit_boundary("u4"));
  EXPECT_EQ(injector.arrivals(FaultSite::UnitBoundary), 4u);
}

TEST_F(FaultInjectionTest, MultipleArrivalsAndSemicolonEntries) {
  FaultInjector& injector = FaultInjector::instance();
  injector.configure("unit=crash@2,4; io=fail@1");
  EXPECT_NO_THROW(injector.on_unit_boundary("u1"));
  EXPECT_THROW(injector.on_unit_boundary("u2"), InjectedCrash);
  EXPECT_NO_THROW(injector.on_unit_boundary("u3"));
  EXPECT_THROW(injector.on_unit_boundary("u4"), InjectedCrash);
  EXPECT_THROW(injector.on_io_write("f"), std::runtime_error);
  EXPECT_NO_THROW(injector.on_io_write("f"));
}

TEST_F(FaultInjectionTest, OpenEndedTriggerFiresFromArrivalOnward) {
  FaultInjector& injector = FaultInjector::instance();
  injector.configure("loss=nan@3+");
  EXPECT_FALSE(injector.poison_loss());
  EXPECT_FALSE(injector.poison_loss());
  EXPECT_TRUE(injector.poison_loss());
  EXPECT_TRUE(injector.poison_loss());
  EXPECT_TRUE(injector.poison_loss());
}

TEST_F(FaultInjectionTest, ReconfigureResetsCounters) {
  FaultInjector& injector = FaultInjector::instance();
  injector.configure("unit=crash@2");
  EXPECT_NO_THROW(injector.on_unit_boundary("u1"));
  injector.configure("unit=crash@2");
  // The arrival counter restarted, so the next arrival is 1 again.
  EXPECT_NO_THROW(injector.on_unit_boundary("u1"));
  EXPECT_THROW(injector.on_unit_boundary("u2"), InjectedCrash);
  injector.configure("");
  EXPECT_FALSE(injector.armed());
}

TEST_F(FaultInjectionTest, InvalidSpecsThrowAndPreserveState) {
  FaultInjector& injector = FaultInjector::instance();
  injector.configure("unit=crash@5");
  for (const char* bad :
       {"bogus", "unit=explode@1", "disk=fail@1", "unit=crash@0",
        "unit=crash@x", "loss=crash@1", "unit=fail@1", "io=nan@1",
        "unit=crash", "=crash@1",
        "plan=evict@1"}) {  // unknown site
    EXPECT_THROW(injector.configure(bad), std::invalid_argument) << bad;
  }
  // A rejected spec must not clobber the armed configuration.
  EXPECT_TRUE(injector.armed());
}

TEST_F(FaultInjectionTest, SpecParsingEdgeCases) {
  FaultInjector& injector = FaultInjector::instance();
  // Whitespace-/semicolon-only specs are equivalent to "": disarmed.
  for (const char* empty : {"", "  ", ";", " ; ; "}) {
    EXPECT_NO_THROW(injector.configure(empty)) << "'" << empty << "'";
    EXPECT_FALSE(injector.armed()) << "'" << empty << "'";
  }
  // Unknown sites, malformed counters, and bare fragments are rejected
  // with std::invalid_argument — never silently ignored.
  for (const char* bad :
       {"socket=fail@1",      // unknown site (the real site is "sock")
        "accep=fail@1",       // typo'd site
        "sock=short@",        // missing counter
        "sock=short@1x",      // trailing junk in counter
        "sock=short@-1",      // negative counter
        "sock=short@1++",     // doubled open-ended suffix
        "sock=short@2,",      // dangling comma in the arrival list
        "accept=fail",        // no trigger at all
        "sock=@1",            // empty action
        "@1",                 // no site/action
        "sock short@1"}) {    // missing '='
    EXPECT_THROW(injector.configure(bad), std::invalid_argument) << bad;
  }
}

TEST_F(FaultInjectionTest, SocketSiteActionValidity) {
  FaultInjector& injector = FaultInjector::instance();
  // The socket vocabulary parses...
  EXPECT_NO_THROW(injector.configure("accept=fail@1"));
  EXPECT_NO_THROW(injector.configure("sock=short@1+"));
  EXPECT_NO_THROW(injector.configure("sock=drop@2"));
  EXPECT_NO_THROW(injector.configure("sock=slow@1,3"));
  EXPECT_NO_THROW(injector.configure("sock=short@1;sock=drop@2"));
  // ...but only on the sites it belongs to.
  EXPECT_THROW(injector.configure("accept=short@1"), std::invalid_argument);
  EXPECT_THROW(injector.configure("sock=fail@1"), std::invalid_argument);
  EXPECT_THROW(injector.configure("unit=drop@1"), std::invalid_argument);
  EXPECT_THROW(injector.configure("io=slow@1"), std::invalid_argument);
}

TEST_F(FaultInjectionTest, SocketSitesFireAndCount) {
  FaultInjector& injector = FaultInjector::instance();
  injector.configure("accept=fail@2; sock=short@1;sock=drop@2;sock=slow@3+");
  EXPECT_FALSE(injector.on_socket_accept());
  EXPECT_TRUE(injector.on_socket_accept());
  EXPECT_FALSE(injector.on_socket_accept());  // one-shot
  EXPECT_EQ(injector.arrivals(FaultSite::SocketAccept), 3u);

  EXPECT_EQ(injector.on_socket_read(), SocketFaultMode::ShortRead);
  EXPECT_EQ(injector.on_socket_read(), SocketFaultMode::Disconnect);
  EXPECT_EQ(injector.on_socket_read(), SocketFaultMode::Slow);
  EXPECT_EQ(injector.on_socket_read(), SocketFaultMode::Slow);  // open-ended
  EXPECT_EQ(injector.arrivals(FaultSite::SocketRead), 4u);

  injector.configure("");
  EXPECT_FALSE(injector.on_socket_accept());
  EXPECT_EQ(injector.on_socket_read(), SocketFaultMode::None);
}

TEST_F(FaultInjectionTest, ConnectionSiteActionValidity) {
  FaultInjector& injector = FaultInjector::instance();
  // The connection vocabulary parses...
  EXPECT_NO_THROW(injector.configure("conn=refuse@1"));
  EXPECT_NO_THROW(injector.configure("conn=reset@2"));
  EXPECT_NO_THROW(injector.configure("conn=partition@1,3"));
  EXPECT_NO_THROW(injector.configure("conn=slow@1+"));
  // ...but only on its own site, and only its own actions.
  EXPECT_THROW(injector.configure("conn=nan@1"), std::invalid_argument);
  EXPECT_THROW(injector.configure("conn=crash@1"), std::invalid_argument);
  EXPECT_THROW(injector.configure("unit=refuse@1"), std::invalid_argument);
  EXPECT_THROW(injector.configure("sock=reset@1"), std::invalid_argument);
  EXPECT_THROW(injector.configure("worker=partition@1"),
               std::invalid_argument);
}

TEST_F(FaultInjectionTest, ConnectionSiteFiresAndCounts) {
  FaultInjector& injector = FaultInjector::instance();
  injector.configure("conn=refuse@1;conn=reset@2;conn=partition@3;"
                     "conn=slow@4+");
  // refuse fires only on the connect-attempt helper; the same arrival
  // stream feeds both helpers (one shared site counter).
  EXPECT_TRUE(injector.on_connect_attempt("127.0.0.1:7401"));
  EXPECT_EQ(injector.on_connection("unit a"), ConnFaultMode::Reset);
  EXPECT_EQ(injector.on_connection("unit b"), ConnFaultMode::Partition);
  EXPECT_EQ(injector.on_connection("handshake"), ConnFaultMode::Slow);
  EXPECT_EQ(injector.on_connection("handshake"), ConnFaultMode::Slow);
  EXPECT_EQ(injector.arrivals(FaultSite::Connection), 5u);

  // The cross-helper cases: reset/partition/slow never fire on a connect
  // attempt, refuse never fires on a connection event.
  injector.configure("conn=reset@1;conn=refuse@2");
  EXPECT_FALSE(injector.on_connect_attempt("x"));  // reset: wrong helper
  EXPECT_EQ(injector.on_connection("y"), ConnFaultMode::None);  // refuse

  injector.configure("");
  EXPECT_FALSE(injector.on_connect_attempt("x"));
  EXPECT_EQ(injector.on_connection("y"), ConnFaultMode::None);
}

TEST_F(FaultInjectionTest, InjectedCrashIsNotARuntimeError) {
  // The crash must never be absorbable by ordinary catch(runtime_error)
  // error handling — only a top-level catch(std::exception) or the OS sees
  // it, which is what makes it a faithful stand-in for a real crash.
  FaultInjector& injector = FaultInjector::instance();
  injector.configure("unit=crash@1");
  bool absorbed = false;
  bool crashed = false;
  try {
    try {
      injector.on_unit_boundary("u");
    } catch (const std::runtime_error&) {
      absorbed = true;
    }
  } catch (const InjectedCrash& e) {
    crashed = true;
    EXPECT_NE(std::string(e.what()).find("u"), std::string::npos);
  }
  EXPECT_FALSE(absorbed);
  EXPECT_TRUE(crashed);
}

}  // namespace
}  // namespace qhdl::util
