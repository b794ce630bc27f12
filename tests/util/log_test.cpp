// FTCF_LOG_LEVEL / FTCF_LOG_DEBUG environment parsing: the table of accepted
// spellings, and the guarantee that garbage never crashes or silently flips
// the level (it falls back to the default with one stderr warning, exercised
// at process start in log.cpp's level_from_env).
#include <gtest/gtest.h>

#include "util/log.hpp"

namespace {

using ftcf::util::LogLevel;
using ftcf::util::parse_env_bool;
using ftcf::util::parse_log_level;

TEST(LogEnvParse, LevelAcceptsNamesAndDigitsCaseInsensitive) {
  const struct {
    const char* token;
    LogLevel expected;
  } kTable[] = {
      {"debug", LogLevel::kDebug}, {"DEBUG", LogLevel::kDebug},
      {"Debug", LogLevel::kDebug}, {"0", LogLevel::kDebug},
      {"info", LogLevel::kInfo},   {"INFO", LogLevel::kInfo},
      {"1", LogLevel::kInfo},      {"warn", LogLevel::kWarn},
      {"WaRn", LogLevel::kWarn},   {"2", LogLevel::kWarn},
      {"error", LogLevel::kError}, {"ERROR", LogLevel::kError},
      {"3", LogLevel::kError},
  };
  for (const auto& row : kTable) {
    const auto parsed = parse_log_level(row.token);
    ASSERT_TRUE(parsed.has_value()) << row.token;
    EXPECT_EQ(*parsed, row.expected) << row.token;
  }
}

TEST(LogEnvParse, LevelRejectsGarbage) {
  for (const char* token :
       {"", " ", "verbose", "4", "-1", "00", "info ", " info", "inf0",
        "debu", "warning!", "true"}) {
    EXPECT_FALSE(parse_log_level(token).has_value()) << '\'' << token << '\'';
  }
}

TEST(LogEnvParse, BoolAcceptsCommonSpellings) {
  for (const char* token : {"1", "true", "TRUE", "True", "on", "ON", "yes",
                            "YES"}) {
    const auto parsed = parse_env_bool(token);
    ASSERT_TRUE(parsed.has_value()) << token;
    EXPECT_TRUE(*parsed) << token;
  }
  for (const char* token :
       {"0", "false", "FALSE", "off", "OFF", "no", "No"}) {
    const auto parsed = parse_env_bool(token);
    ASSERT_TRUE(parsed.has_value()) << token;
    EXPECT_FALSE(*parsed) << token;
  }
}

TEST(LogEnvParse, BoolRejectsGarbage) {
  for (const char* token :
       {"", "2", "yep", "enable", "tru", "y", "n", "on-please", " 1"}) {
    EXPECT_FALSE(parse_env_bool(token).has_value()) << '\'' << token << '\'';
  }
}

TEST(LogEnvParse, ThresholdAdmitsItsLevelAndAbove) {
  // The threshold comes from the environment; whichever it is, it admits
  // its own level and kError, and admits kDebug only when it is kDebug.
  const LogLevel level = ftcf::util::log_level();
  EXPECT_TRUE(ftcf::util::log_enabled(level));
  EXPECT_TRUE(ftcf::util::log_enabled(LogLevel::kError));
  EXPECT_EQ(ftcf::util::log_enabled(LogLevel::kDebug),
            level == LogLevel::kDebug);
}

}  // namespace
