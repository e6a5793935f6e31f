// Tests for the table/CSV formatter and the CLI flag parser.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include "support/cli.hpp"
#include "support/table.hpp"

namespace beepkit::support {
namespace {

TEST(TableTest, RendersAlignedColumns) {
  table t({"name", "rounds"});
  t.add_row({"path", "120"});
  t.add_row({"clique", "7"});
  const std::string text = t.to_string();
  EXPECT_NE(text.find("| name   | rounds |"), std::string::npos);
  EXPECT_NE(text.find("| path   | 120    |"), std::string::npos);
  EXPECT_NE(text.find("| clique | 7      |"), std::string::npos);
}

TEST(TableTest, TitleAndShortRows) {
  table t({"a", "b", "c"});
  t.set_title("My Table");
  t.add_row({"1"});
  const std::string text = t.to_string();
  EXPECT_EQ(text.rfind("My Table\n", 0), 0U);
  EXPECT_EQ(t.row_count(), 1U);
}

TEST(TableTest, NumFormatting) {
  EXPECT_EQ(table::num(3.14159, 2), "3.14");
  EXPECT_EQ(table::num(3.14159, 4), "3.1416");
  EXPECT_EQ(table::num(static_cast<long long>(-42)), "-42");
}

TEST(TableTest, CsvEscaping) {
  table t({"x", "note"});
  t.add_row({"1", "has,comma"});
  t.add_row({"2", "has\"quote"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"has\"\"quote\""), std::string::npos);
  EXPECT_EQ(csv.rfind("x,note\n", 0), 0U);
}

TEST(TableTest, WriteTextFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "beepkit_table_test.txt";
  ASSERT_TRUE(write_text_file(path, "hello\n"));
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "hello\n");
  std::remove(path.c_str());
}

TEST(TableTest, WriteTextFileBadPath) {
  EXPECT_FALSE(write_text_file("/nonexistent-dir-xyz/file.txt", "x"));
}

TEST(CliTest, ParsesEqualsAndSpaceForms) {
  const char* argv[] = {"prog", "--n=128", "--trials", "30", "--verbose"};
  const cli args(5, argv, "prog",
                 {{"n", ""}, {"trials", ""}, {"verbose", "", true},
                  {"missing", ""}});
  EXPECT_EQ(args.get_int("n", 0), 128);
  EXPECT_EQ(args.get_int("trials", 0), 30);
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_EQ(args.get_int("missing", -7), -7);
}

TEST(CliTest, ParseShardAcceptsValidSlices) {
  const auto whole = cli::parse_shard("0/1");
  ASSERT_TRUE(whole.has_value());
  EXPECT_EQ(whole->index, 0U);
  EXPECT_EQ(whole->count, 1U);
  EXPECT_TRUE(whole->whole());

  const auto slice = cli::parse_shard("2/8");
  ASSERT_TRUE(slice.has_value());
  EXPECT_EQ(slice->index, 2U);
  EXPECT_EQ(slice->count, 8U);
  EXPECT_FALSE(slice->whole());
  EXPECT_TRUE(slice->owns(2));
  EXPECT_TRUE(slice->owns(10));
  EXPECT_FALSE(slice->owns(3));
}

TEST(CliTest, ParseShardRejectsInvalidSlices) {
  EXPECT_FALSE(cli::parse_shard("8/8").has_value());   // i >= N
  EXPECT_FALSE(cli::parse_shard("9/8").has_value());   // i >= N
  EXPECT_FALSE(cli::parse_shard("3/0").has_value());   // N == 0
  EXPECT_FALSE(cli::parse_shard("0/0").has_value());   // N == 0
  EXPECT_FALSE(cli::parse_shard("").has_value());
  EXPECT_FALSE(cli::parse_shard("3").has_value());     // no slash
  EXPECT_FALSE(cli::parse_shard("/8").has_value());    // empty index
  EXPECT_FALSE(cli::parse_shard("3/").has_value());    // empty count
  EXPECT_FALSE(cli::parse_shard("-1/8").has_value());  // sign
  EXPECT_FALSE(cli::parse_shard("1/2/3").has_value()); // extra slash
  EXPECT_FALSE(cli::parse_shard("a/8").has_value());
  EXPECT_FALSE(cli::parse_shard("1/8x").has_value());
  EXPECT_FALSE(cli::parse_shard("1 /8").has_value());
}

TEST(CliTest, GetShardDefaultsToWholeSweep) {
  const char* argv[] = {"prog"};
  const cli args(1, argv, "prog", {{"shard", ""}});
  const auto shard = args.get_shard();
  EXPECT_EQ(shard.index, 0U);
  EXPECT_EQ(shard.count, 1U);
}

TEST(CliTest, GetShardParsesFlag) {
  const char* argv[] = {"prog", "--shard", "1/3"};
  const cli args(3, argv, "prog", {{"shard", ""}});
  const auto shard = args.get_shard();
  EXPECT_EQ(shard.index, 1U);
  EXPECT_EQ(shard.count, 3U);
}

TEST(CliTest, CollectsPositionalArguments) {
  const char* argv[] = {"prog", "a.jsonl", "b.jsonl", "--json=out.json",
                        "c.jsonl"};
  const cli args(5, argv, "prog", {{"json", ""}});
  EXPECT_EQ(args.positionals(),
            (std::vector<std::string>{"a.jsonl", "b.jsonl", "c.jsonl"}));
  EXPECT_EQ(args.get_string("json", ""), "out.json");
}

TEST(CliTest, DeclaredSwitchesNeverConsumePositionals) {
  const char* argv[] = {"prog", "--quiet", "a.jsonl", "--resume",
                        "b.jsonl"};
  const std::vector<flag> flags = {
      {"quiet", "", true}, {"resume", "", true}, {"json", ""}};
  const cli args(5, argv, "prog", flags);
  EXPECT_TRUE(args.get_bool("quiet", false));
  EXPECT_TRUE(args.get_bool("resume", false));
  EXPECT_EQ(args.positionals(),
            (std::vector<std::string>{"a.jsonl", "b.jsonl"}));
  // Value flags keep the usual --name value form.
  const char* argv2[] = {"prog", "--json", "out.json"};
  const cli args2(3, argv2, "prog", flags);
  EXPECT_EQ(args2.get_string("json", ""), "out.json");
  // And `--switch=value` still works for switches.
  const char* argv3[] = {"prog", "--quiet=false", "x.jsonl"};
  const cli args3(3, argv3, "prog", flags);
  EXPECT_FALSE(args3.get_bool("quiet", true));
  EXPECT_EQ(args3.positionals(), (std::vector<std::string>{"x.jsonl"}));
}

TEST(CliTest, TypedGetters) {
  const char* argv[] = {"prog", "--p=0.25", "--csv=/tmp/x.csv", "--flag=no"};
  const cli args(4, argv, "prog",
                 {{"p", ""}, {"q", ""}, {"csv", ""}, {"flag", "", true}});
  EXPECT_DOUBLE_EQ(args.get_double("p", 0.5), 0.25);
  EXPECT_EQ(args.get_string("csv", ""), "/tmp/x.csv");
  EXPECT_FALSE(args.get_bool("flag", true));
  EXPECT_TRUE(args.has("p"));
  EXPECT_FALSE(args.has("q"));
}

TEST(CliTest, UnusedFlagsReported) {
  // A flag the binary did not declare (a typo in a sweep script) is
  // rejected outright: exit 2 with the known flags listed; --help lists
  // them and exits 0.
  const auto parse = [](int argc, const char* const* argv) {
    const cli strict(argc, argv, "prog [flags]", {{"used", "a used flag"}});
    (void)strict.get_int("used", 0);
    std::exit(0);
  };
  const char* typo_argv[] = {"prog", "--used=1", "--typo=2"};
  EXPECT_EXIT(parse(3, typo_argv), testing::ExitedWithCode(2),
              "unknown flag --typo.*--used");
  const char* help_argv[] = {"prog", "--help"};
  EXPECT_EXIT(parse(2, help_argv), testing::ExitedWithCode(0), "");
  const char* good_argv[] = {"prog", "--used", "3"};
  const cli strict(3, good_argv, "prog [flags]", {{"used", "a used flag"}});
  EXPECT_EQ(strict.get_int("used", 0), 3);
  EXPECT_NE(strict.help().find("--used"), std::string::npos);
  EXPECT_NE(strict.help().find("--help"), std::string::npos);
  EXPECT_THROW((void)strict.get_int("undeclared", 0), std::logic_error);
}

TEST(CliTest, BooleanSwitchBeforeFlag) {
  const char* argv[] = {"prog", "--dry-run", "--n=4"};
  const cli args(3, argv, "prog", {{"dry-run", "", true}, {"n", ""}});
  EXPECT_TRUE(args.get_bool("dry-run", false));
  EXPECT_EQ(args.get_int("n", 0), 4);
}

}  // namespace
}  // namespace beepkit::support
