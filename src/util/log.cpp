#include "util/log.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace ftcf::util {

namespace {

/// ASCII-case-insensitive comparison (env values only; no locale).
bool iequals(std::string_view s, std::string_view t) noexcept {
  if (s.size() != t.size()) return false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char a = s[i];
    const char b = t[i];
    const char al = (a >= 'A' && a <= 'Z') ? static_cast<char>(a + 32) : a;
    if (al != b) return false;
  }
  return true;
}

/// Combine both environment knobs; runs during static initialization, so
/// warnings go straight to stderr (the logger itself is not up yet) and an
/// invalid value costs exactly one line, never silent misbehavior.
int level_from_env() {
  constexpr int kDefault = static_cast<int>(LogLevel::kInfo);
  int level = kDefault;
  if (const char* env = std::getenv("FTCF_LOG_LEVEL");
      env != nullptr && *env != '\0') {
    if (const auto parsed = parse_log_level(env)) {
      level = static_cast<int>(*parsed);
    } else {
      std::fprintf(stderr,
                   "ftcf: ignoring invalid FTCF_LOG_LEVEL='%s' "
                   "(want debug|info|warn|error or 0-3), using info\n",
                   env);
    }
  }
  if (const char* env = std::getenv("FTCF_LOG_DEBUG");
      env != nullptr && *env != '\0') {
    if (const auto parsed = parse_env_bool(env)) {
      if (*parsed) level = static_cast<int>(LogLevel::kDebug);
    } else {
      std::fprintf(stderr,
                   "ftcf: ignoring invalid FTCF_LOG_DEBUG='%s' "
                   "(want 1/0, true/false, on/off or yes/no)\n",
                   env);
    }
  }
  return level;
}

std::atomic<int> g_level{level_from_env()};

constexpr std::string_view level_name(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
  }
  return "?";
}

using Clock = std::chrono::steady_clock;

Clock::time_point process_start() noexcept {
  static const Clock::time_point start = Clock::now();
  return start;
}

/// Small dense thread ids in order of first log call (t0, t1, ...), far more
/// readable than std::thread::id hashes.
std::uint32_t thread_ordinal() noexcept {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id = next.fetch_add(1);
  return id;
}

// Touch the start time during static initialization so "elapsed" means
// elapsed since program start, not since the first log call.
const Clock::time_point g_start_anchor = process_start();

}  // namespace

std::optional<LogLevel> parse_log_level(std::string_view s) noexcept {
  if (iequals(s, "debug") || s == "0") return LogLevel::kDebug;
  if (iequals(s, "info") || s == "1") return LogLevel::kInfo;
  if (iequals(s, "warn") || s == "2") return LogLevel::kWarn;
  if (iequals(s, "error") || s == "3") return LogLevel::kError;
  return std::nullopt;
}

std::optional<bool> parse_env_bool(std::string_view s) noexcept {
  if (s == "1" || iequals(s, "true") || iequals(s, "on") || iequals(s, "yes"))
    return true;
  if (s == "0" || iequals(s, "false") || iequals(s, "off") || iequals(s, "no"))
    return false;
  return std::nullopt;
}

LogLevel log_level() noexcept {
  return static_cast<LogLevel>(g_level.load(std::memory_order_relaxed));
}

void log_line(LogLevel level, std::string_view message) {
  if (!log_enabled(level)) return;
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - process_start()).count();
  char prefix[64];
  const int n =
      std::snprintf(prefix, sizeof prefix, "[%9.3fs t%u %.*s] ", elapsed,
                    thread_ordinal(),
                    static_cast<int>(level_name(level).size()),
                    level_name(level).data());
  std::string line;
  line.reserve(message.size() + static_cast<std::size_t>(n) + 1);
  line.append(prefix, static_cast<std::size_t>(n > 0 ? n : 0));
  line.append(message);
  line.push_back('\n');
  std::fwrite(line.data(), 1, line.size(), stderr);
}

}  // namespace ftcf::util
