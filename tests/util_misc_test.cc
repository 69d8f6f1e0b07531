#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/cli.h"
#include "util/log.h"
#include "util/table.h"

namespace tifl::util {
namespace {

// --- TablePrinter ------------------------------------------------------------

TEST(TablePrinter, AlignsColumnsAndPrintsHeaders) {
  TablePrinter table({"Policy", "Time [s]"});
  table.add_row({"vanilla", "44977"});
  table.add_row({"fast", "1750"});
  const std::string out = table.to_string();
  EXPECT_NE(out.find("Policy"), std::string::npos);
  EXPECT_NE(out.find("vanilla"), std::string::npos);
  EXPECT_NE(out.find("1750"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("|--"), std::string::npos);
}

TEST(TablePrinter, NumericRowFormatsPrecision) {
  TablePrinter table({"name", "v"});
  table.add_row("row", {3.14159}, 2);
  EXPECT_NE(table.to_string().find("3.14"), std::string::npos);
  EXPECT_EQ(table.to_string().find("3.142"), std::string::npos);
}

TEST(TablePrinter, ShortRowsArePadded) {
  TablePrinter table({"a", "b", "c"});
  table.add_row({"only"});
  EXPECT_NE(table.to_string().find("only"), std::string::npos);
}

TEST(FormatDouble, Precision) {
  EXPECT_EQ(format_double(1.0 / 3.0, 3), "0.333");
  EXPECT_EQ(format_double(2.0, 0), "2");
}

// --- CsvWriter ---------------------------------------------------------------

TEST(CsvWriter, QuotesSpecialCharacters) {
  const std::string path = ::testing::TempDir() + "tifl_csv_test.csv";
  {
    CsvWriter csv(path);
    ASSERT_TRUE(csv.ok());
    csv.write_row({"a", "with,comma", "with\"quote"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,\"with,comma\",\"with\"\"quote\"");
  std::remove(path.c_str());
}

TEST(CsvWriter, PlainRowUnquoted) {
  const std::string path = ::testing::TempDir() + "tifl_csv_test2.csv";
  {
    CsvWriter csv(path);
    csv.write_row({"x", "1", "2.5"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x,1,2.5");
  std::remove(path.c_str());
}

// --- Cli ---------------------------------------------------------------------

TEST(Cli, ParsesFlagsKeyValueAndEquals) {
  const char* argv[] = {"prog",     "--full",     "--rounds", "500",
                        "--lr=0.01", "positional", "--neg",    "-3"};
  Cli cli(8, argv);
  EXPECT_TRUE(cli.get_bool("full"));
  EXPECT_EQ(cli.get_int("rounds", 0), 500);
  EXPECT_DOUBLE_EQ(cli.get_double("lr", 0.0), 0.01);
  EXPECT_EQ(cli.get_int("neg", 0), -3);
  ASSERT_EQ(cli.positionals().size(), 1u);
  EXPECT_EQ(cli.positionals()[0], "positional");
  EXPECT_EQ(cli.program(), "prog");
}

TEST(Cli, KeysListsEveryParsedOption) {
  const char* argv[] = {"prog", "--rounds", "5", "--chrun=0.5", "--full",
                        "positional"};
  Cli cli(6, argv);
  EXPECT_EQ(cli.keys(), (std::vector<std::string>{"chrun", "full", "rounds"}));
}

TEST(Cli, FallbacksWhenMissing) {
  const char* argv[] = {"prog"};
  Cli cli(1, argv);
  EXPECT_FALSE(cli.has("anything"));
  EXPECT_EQ(cli.get("name", "dflt"), "dflt");
  EXPECT_EQ(cli.get_int("n", 42), 42);
  EXPECT_DOUBLE_EQ(cli.get_double("d", 1.5), 1.5);
  EXPECT_FALSE(cli.get_bool("flag"));
  EXPECT_TRUE(cli.get_bool("flag", true));
}

TEST(Cli, ExplicitFalseValues) {
  const char* argv[] = {"prog", "--a=false", "--b=0", "--c=no"};
  Cli cli(4, argv);
  EXPECT_FALSE(cli.get_bool("a", true));
  EXPECT_FALSE(cli.get_bool("b", true));
  EXPECT_FALSE(cli.get_bool("c", true));
}

TEST(Cli, FlagFollowedByFlagIsBoolean) {
  const char* argv[] = {"prog", "--x", "--y", "7"};
  Cli cli(4, argv);
  EXPECT_TRUE(cli.get_bool("x"));
  EXPECT_EQ(cli.get_int("y", 0), 7);
}

TEST(Cli, MalformedNumbersThrowNamingTheFlag) {
  const char* argv[] = {"prog",        "--churn=abc", "--rounds=3x",
                        "--alpha=nan", "--big=99999999999999999999",
                        "--scale=1e999", "--empty=", "--ok=2.5e-1"};
  Cli cli(8, argv);
  const auto message = [&](auto&& get) {
    try {
      get();
    } catch (const std::invalid_argument& error) {
      return std::string(error.what());
    }
    return std::string("no error");
  };
  EXPECT_NE(message([&] { cli.get_double("churn", 0.0); }).find("--churn"),
            std::string::npos);
  EXPECT_NE(message([&] { cli.get_int("rounds", 0); }).find("--rounds"),
            std::string::npos);
  EXPECT_NE(message([&] { cli.get_double("alpha", 0.0); }).find("--alpha"),
            std::string::npos);
  EXPECT_NE(message([&] { cli.get_int("big", 0); }).find("out of range"),
            std::string::npos);
  EXPECT_THROW(cli.get_double("scale", 0.0), std::invalid_argument);
  EXPECT_THROW(cli.get_int("empty", 0), std::invalid_argument);
  EXPECT_THROW(cli.get_double("empty", 0.0), std::invalid_argument);
  EXPECT_THROW(cli.get_int("ok", 0), std::invalid_argument);  // not integral
  EXPECT_DOUBLE_EQ(cli.get_double("ok", 0.0), 0.25);
}

// --- Log ---------------------------------------------------------------------

TEST(Log, LevelFiltering) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  // Nothing to assert on output without capturing stderr; the contract
  // here is that calls below the threshold are cheap no-ops and do not
  // crash.
  log_debug("invisible ", 1);
  log_info("invisible ", 2);
  log_warn("invisible ", 3);
  set_log_level(saved);
}

}  // namespace
}  // namespace tifl::util
