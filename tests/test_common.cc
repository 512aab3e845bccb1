#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <sstream>
#include <string>

#include "common/env.h"
#include "common/options.h"
#include "common/table_printer.h"
#include "common/timer.h"

namespace {

TEST(Env, ParsesAndDefaults) {
  ::setenv("FITREE_TEST_ENV", "42", 1);
  EXPECT_EQ(fitree::GetEnvInt64("FITREE_TEST_ENV", 7), 42);
  EXPECT_EQ(fitree::GetEnvInt("FITREE_TEST_ENV", 7), 42);
  ::setenv("FITREE_TEST_ENV", "-3", 1);
  EXPECT_EQ(fitree::GetEnvInt64("FITREE_TEST_ENV", 7), -3);
  ::setenv("FITREE_TEST_ENV", "notanumber", 1);
  EXPECT_EQ(fitree::GetEnvInt64("FITREE_TEST_ENV", 7), 7);
  ::unsetenv("FITREE_TEST_ENV");
  EXPECT_EQ(fitree::GetEnvInt64("FITREE_TEST_ENV", 9), 9);
}

// A typo in an enumerated knob must stop the process (status 2, naming
// the variable, the value and the accepted values), never run a default.
// The environment is changed inside the death-test child only.
void ExpectKnobRejected(const char* name, const char* bad,
                        const char* accepted_regex) {
  EXPECT_EXIT(
      {
        ::setenv(name, bad, 1);
        (void)fitree::Options::FromEnvironment();
      },
      ::testing::ExitedWithCode(2),
      std::string(name) + "=" + bad + ".*" + accepted_regex);
}

TEST(OptionsDeathTest, UnknownSearchPolicyExits) {
  ExpectKnobRejected("FITREE_SEARCH_POLICY", "simdd",
                     "binary linear exponential simd");
}

TEST(OptionsDeathTest, UnknownDirectoryExits) {
  ExpectKnobRejected("FITREE_DIRECTORY", "hash", "btree flat");
}

TEST(OptionsDeathTest, UnknownIoBackendExits) {
  ExpectKnobRejected("FITREE_IO_BACKEND", "urring", "auto uring threads sync");
}

TEST(OptionsDeathTest, UnknownFetchStrategyExits) {
  ExpectKnobRejected("FITREE_FETCH_STRATEGY", "windows", "single window");
}

// A numeric knob set to text that is not a whole integer stops the
// process too, instead of running the default ("abc") or a prefix ("12abc").
TEST(OptionsDeathTest, NonIntegerNumericKnobsExit) {
  const char* knobs[] = {"FITREE_TELEM_SAMPLE", "FITREE_TRACE",
                         "FITREE_TRACE_RING",   "FITREE_PERF",
                         "FITREE_SHARDS",       "FITREE_BATCH",
                         "FITREE_IO_DEPTH",     "FITREE_IO_DIRECT",
                         "FITREE_COMPACT_THRESHOLD"};
  for (size_t i = 0; i < std::size(knobs); ++i) {
    const char* bad = i % 2 == 0 ? "abc" : "12abc";
    EXPECT_EXIT(
        {
          ::setenv(knobs[i], bad, 1);
          (void)fitree::Options::FromEnvironment();
        },
        ::testing::ExitedWithCode(2), std::string(knobs[i]) + "=" + bad)
        << knobs[i];
  }
}

TEST(Options, NumericKnobsParseAndClamp) {
  ::setenv("FITREE_IO_DEPTH", "4096", 1);
  ::setenv("FITREE_SHARDS", "-3", 1);
  ::setenv("FITREE_BATCH", "8", 1);
  const fitree::Options o = fitree::Options::FromEnvironment();
  EXPECT_EQ(o.io_depth, 1024u);
  EXPECT_EQ(o.shards, 1u);
  EXPECT_EQ(o.batch, 8u);
  for (const char* name :
       {"FITREE_IO_DEPTH", "FITREE_SHARDS", "FITREE_BATCH"}) {
    ::unsetenv(name);
  }
}

TEST(Options, ValidKnobValuesParse) {
  ::setenv("FITREE_SEARCH_POLICY", "binary", 1);
  ::setenv("FITREE_DIRECTORY", "btree", 1);
  ::setenv("FITREE_IO_BACKEND", "sync", 1);
  ::setenv("FITREE_FETCH_STRATEGY", "window", 1);
  const fitree::Options o = fitree::Options::FromEnvironment();
  EXPECT_EQ(o.search_policy, fitree::SearchPolicy::kBinary);
  EXPECT_EQ(o.directory, fitree::DirectoryMode::kBTree);
  EXPECT_EQ(o.io_backend, fitree::IoBackend::kSync);
  EXPECT_EQ(o.fetch_strategy, fitree::FetchStrategy::kWindow);
  for (const char* name : {"FITREE_SEARCH_POLICY", "FITREE_DIRECTORY",
                           "FITREE_IO_BACKEND", "FITREE_FETCH_STRATEGY"}) {
    ::unsetenv(name);
  }
  const fitree::Options d = fitree::Options::FromEnvironment();
  EXPECT_EQ(d.search_policy, fitree::SearchPolicy::kSimd);
  EXPECT_EQ(d.fetch_strategy, fitree::FetchStrategy::kSingle);
}

TEST(Timer, Monotone) {
  fitree::Timer timer;
  const int64_t a = timer.ElapsedNs();
  const int64_t b = timer.ElapsedNs();
  EXPECT_GE(a, 0);
  EXPECT_GE(b, a);
  EXPECT_GE(timer.ElapsedSeconds(), 0.0);
}

TEST(TablePrinter, FormatsAndAligns) {
  EXPECT_EQ(fitree::TablePrinter::Fmt(12.345, 1), "12.3");
  EXPECT_EQ(fitree::TablePrinter::Fmt(12.345, 0), "12");
  EXPECT_EQ(fitree::TablePrinter::Fmt(uint64_t{7}), "7");

  fitree::TablePrinter table({"name", "value"});
  table.AddRow({"alpha", "1"});
  table.AddRow({"b", "22"});
  std::ostringstream os;
  table.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  // Three lines: header + two rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);
}

}  // namespace
