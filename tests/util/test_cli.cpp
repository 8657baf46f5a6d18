#include "util/cli.hpp"

#include <gtest/gtest.h>

namespace qhdl::util {
namespace {

Cli make_cli() {
  Cli cli{"prog", "test program"};
  cli.add_flag("verbose", "enable logging");
  cli.add_int("epochs", 100, "training epochs");
  cli.add_double("lr", 0.001, "learning rate");
  cli.add_string("out", "results.csv", "output path");
  return cli;
}

TEST(Cli, DefaultsApply) {
  Cli cli = make_cli();
  const char* argv[] = {"prog"};
  EXPECT_TRUE(cli.parse(1, argv));
  EXPECT_FALSE(cli.flag("verbose"));
  EXPECT_EQ(cli.get_int("epochs"), 100);
  EXPECT_DOUBLE_EQ(cli.get_double("lr"), 0.001);
  EXPECT_EQ(cli.get_string("out"), "results.csv");
}

TEST(Cli, ParsesSeparateValues) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--verbose", "--epochs", "5",
                        "--lr",  "0.5",      "--out",    "x.csv"};
  EXPECT_TRUE(cli.parse(8, argv));
  EXPECT_TRUE(cli.flag("verbose"));
  EXPECT_EQ(cli.get_int("epochs"), 5);
  EXPECT_DOUBLE_EQ(cli.get_double("lr"), 0.5);
  EXPECT_EQ(cli.get_string("out"), "x.csv");
}

TEST(Cli, ParsesEqualsForm) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--epochs=7", "--lr=0.25"};
  EXPECT_TRUE(cli.parse(3, argv));
  EXPECT_EQ(cli.get_int("epochs"), 7);
  EXPECT_DOUBLE_EQ(cli.get_double("lr"), 0.25);
}

TEST(Cli, UnknownOptionThrows) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--bogus"};
  EXPECT_THROW(cli.parse(2, argv), std::invalid_argument);
}

TEST(Cli, MissingValueThrows) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--epochs"};
  EXPECT_THROW(cli.parse(2, argv), std::invalid_argument);
}

TEST(Cli, BadNumberThrows) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--epochs", "abc"};
  EXPECT_THROW(cli.parse(3, argv), std::invalid_argument);
}

TEST(Cli, FlagWithValueThrows) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--verbose=true"};
  EXPECT_THROW(cli.parse(2, argv), std::invalid_argument);
}

TEST(Cli, PositionalArgumentThrows) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "stray"};
  EXPECT_THROW(cli.parse(2, argv), std::invalid_argument);
}

TEST(Cli, HelpReturnsFalse) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, HelpTextListsOptions) {
  Cli cli = make_cli();
  const std::string help = cli.help_text();
  EXPECT_NE(help.find("--verbose"), std::string::npos);
  EXPECT_NE(help.find("--epochs"), std::string::npos);
  EXPECT_NE(help.find("training epochs"), std::string::npos);
}

TEST(Cli, CountAndDurationReadersRejectOutOfRangeValues) {
  // Counts are non-negative; durations are finite, non-negative seconds
  // that fit in 2^53 ms. Each error names the option.
  const auto message = [](const char* epochs, const char* lr, bool count) {
    Cli cli = make_cli();
    const char* argv[] = {"prog", "--epochs", epochs, "--lr", lr};
    EXPECT_TRUE(cli.parse(5, argv));
    try {
      if (count) {
        (void)cli.get_count("epochs");
      } else {
        (void)cli.get_duration_ms("lr");
      }
    } catch (const std::invalid_argument& e) {
      return std::string{e.what()};
    }
    return std::string{};
  };
  EXPECT_NE(message("-1", "0", true).find("--epochs"), std::string::npos);
  for (const char* lr : {"-1", "1e300", "nan"}) {
    EXPECT_NE(message("0", lr, false).find("--lr"), std::string::npos) << lr;
  }

  Cli cli = make_cli();
  const char* argv[] = {"prog", "--epochs", "3", "--lr", "2.5"};
  EXPECT_TRUE(cli.parse(5, argv));
  EXPECT_EQ(cli.get_count("epochs"), 3u);
  EXPECT_EQ(cli.get_duration_ms("lr"), 2500u);
}

TEST(Cli, WrongTypeAccessThrows) {
  Cli cli = make_cli();
  const char* argv[] = {"prog"};
  cli.parse(1, argv);
  EXPECT_THROW(cli.get_int("lr"), std::logic_error);
  EXPECT_THROW(cli.flag("epochs"), std::logic_error);
}

}  // namespace
}  // namespace qhdl::util
