/**
 * @file
 * Command-line flag parsing: the checked integer parser every tool
 * and bench driver shares, the checked floating-point parser, the CSV
 * splitter, and the bench harness's rejection of malformed values
 * (exit 2 with usage, never a silently substituted number).
 */

#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <string>
#include <vector>

#include "driver/bench_harness.hpp"
#include "support/cli.hpp"

namespace gmt
{
namespace
{

TEST(ParseInt, AcceptsIntegersInRange)
{
    EXPECT_EQ(parseInt("0", 0, 10), 0);
    EXPECT_EQ(parseInt("7", 0, 10), 7);
    EXPECT_EQ(parseInt("10", 0, 10), 10);
    EXPECT_EQ(parseInt("-3", -5, 5), -3);
    EXPECT_EQ(parseInt("007", 0, 10), 7);
    EXPECT_EQ(parseInt("9223372036854775807", 0, INT64_MAX), INT64_MAX);
}

TEST(ParseInt, RejectsMalformedText)
{
    for (const char *bad : {"", "abc", "x", "5O", "4 ", " 4", "+4", "4.0",
                            "1e3", "-", "0x10", "--1"})
        EXPECT_EQ(parseInt(bad, INT64_MIN, INT64_MAX), std::nullopt)
            << "'" << bad << "'";
}

TEST(ParseInt, RejectsOutOfRange)
{
    EXPECT_EQ(parseInt("-3", 0, 10), std::nullopt);
    EXPECT_EQ(parseInt("11", 0, 10), std::nullopt);
    EXPECT_EQ(parseInt("0", 1, 10), std::nullopt);
    // Past int64_t: overflow is out of range, not a wrapped value.
    EXPECT_EQ(parseInt("9223372036854775808", 0, INT64_MAX),
              std::nullopt);
    EXPECT_EQ(parseInt("99999999999999999999999", INT64_MIN, INT64_MAX),
              std::nullopt);
}

TEST(ParseDouble, AcceptsFiniteNumbersInRange)
{
    EXPECT_EQ(parseDouble("1.5", 0.0, HUGE_VAL), 1.5);
    EXPECT_EQ(parseDouble("0", 0.0, HUGE_VAL), 0.0);
    EXPECT_EQ(parseDouble("2", 0.0, HUGE_VAL), 2.0);
    EXPECT_EQ(parseDouble(".25", 0.0, HUGE_VAL), 0.25);
    EXPECT_EQ(parseDouble("1e3", 0.0, HUGE_VAL), 1000.0);
    EXPECT_EQ(parseDouble("-0.5", -1.0, 1.0), -0.5);
    EXPECT_EQ(parseDouble("10", 0.0, 10.0), 10.0);
}

TEST(ParseDouble, RejectsMalformedNonFiniteAndOutOfRange)
{
    for (const char *bad :
         {"", "abc", "99x", "1.5 ", " 1.5", "+1.5", "1,5", ".", "-",
          "0x10", "inf", "-inf", "infinity", "nan", "1e999"})
        EXPECT_EQ(parseDouble(bad, -HUGE_VAL, HUGE_VAL), std::nullopt)
            << "'" << bad << "'";
    EXPECT_EQ(parseDouble("-1.5", 0.0, HUGE_VAL), std::nullopt);
    EXPECT_EQ(parseDouble("-0.001", 0.0, HUGE_VAL), std::nullopt);
    EXPECT_EQ(parseDouble("10.5", 0.0, 10.0), std::nullopt);
}

TEST(SplitCsv, DropsEmptyFields)
{
    EXPECT_EQ(splitCsv("a,b,,c"),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(splitCsv("ks"), (std::vector<std::string>{"ks"}));
    EXPECT_TRUE(splitCsv("").empty());
    EXPECT_TRUE(splitCsv(",,").empty());
}

/** parseBenchOptions over @p args (argv[0] is supplied). */
BenchOptions
parse(std::vector<std::string> args)
{
    args.insert(args.begin(), "fig7_comm_reduction");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    return parseBenchOptions(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchOptions, ParsesWellFormedFlags)
{
    BenchOptions o = parse({"--jobs", "3", "--coco-jobs", "2", "--only",
                            "ks,adpcmdec", "--no-cache"});
    EXPECT_EQ(o.jobs, 3);
    EXPECT_EQ(o.coco_jobs, 2);
    EXPECT_EQ(o.only, (std::vector<std::string>{"ks", "adpcmdec"}));
    EXPECT_FALSE(o.use_cache);
    EXPECT_EQ(parse({"--serial"}).jobs, 1);
    EXPECT_EQ(parse({"--jobs", "0"}).jobs, 0); // 0 = hardware default
}

TEST(BenchOptionsDeathTest, MalformedIntegersExitWithUsage)
{
    const std::vector<std::vector<std::string>> bad = {
        {"--jobs", "abc"},      {"--jobs", ""},
        {"--jobs", "4x"},       {"--jobs", "-1"},
        {"--jobs", "100000"},   {"--coco-jobs", "-3"},
        {"--coco-jobs", "2.5"}, {"--jobs", "99999999999999999999"}};
    for (const auto &args : bad) {
        EXPECT_EXIT(parse(args), testing::ExitedWithCode(2),
                    "wants an integer in .*usage:")
            << args[0] << " '" << args[1] << "'";
    }
}

TEST(BenchOptionsDeathTest, MissingValueAndUnknownFlagExit)
{
    EXPECT_EXIT(parse({"--jobs"}), testing::ExitedWithCode(2),
                "needs a value");
    EXPECT_EXIT(parse({"--bogus"}), testing::ExitedWithCode(2),
                "unknown flag");
    EXPECT_EXIT(parse({"--help"}), testing::ExitedWithCode(0), "usage:");
}

} // namespace
} // namespace gmt
