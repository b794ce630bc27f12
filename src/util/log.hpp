// Lightweight leveled logging to stderr.
//
// The library itself never logs in hot paths; logging is for the bench
// harnesses and examples to narrate progress of long sweeps.
//
// Each line carries the elapsed time since process start and a small
// per-thread id:  "[  12.345s t0 info] message".
//
// The threshold can be set before main() runs via the FTCF_LOG_LEVEL
// environment variable ("debug" | "info" | "warn" | "error", or 0-3), or
// forced to debug with a truthy FTCF_LOG_DEBUG; an unparseable value in
// either variable earns one warning line on stderr and falls back to the
// default instead of silently misbehaving. For debug messages whose
// *arguments* are expensive to build, use the FTCF_LOG_DEBUG call-site guard
// macro below — plain log_debug() drops the message below threshold but
// still evaluates its arguments.
#pragma once

#include <optional>
#include <sstream>
#include <string_view>

namespace ftcf::util {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Parse a log-level spelling: "debug"|"info"|"warn"|"error" (any ASCII
/// case) or "0".."3". Empty or unrecognized input yields nullopt — callers
/// decide the fallback.
[[nodiscard]] std::optional<LogLevel> parse_log_level(
    std::string_view s) noexcept;

/// Parse a boolean environment value: 1/true/on/yes vs 0/false/off/no (any
/// ASCII case). Anything else yields nullopt.
[[nodiscard]] std::optional<bool> parse_env_bool(std::string_view s) noexcept;

/// Global threshold; messages below it are dropped. Default: kInfo, or
/// FTCF_LOG_LEVEL / FTCF_LOG_DEBUG from the environment when set.
[[nodiscard]] LogLevel log_level() noexcept;

/// True when a message at `level` would currently be emitted.
[[nodiscard]] inline bool log_enabled(LogLevel level) noexcept {
  return static_cast<int>(level) >= static_cast<int>(log_level());
}

/// Emit one line "[<elapsed>s t<tid> <level>] message" to stderr
/// (thread-safe: one fwrite per line; tids are assigned per thread in order
/// of first log call).
void log_line(LogLevel level, std::string_view message);

namespace detail {
template <typename... Args>
void log_fmt(LogLevel level, Args&&... args) {
  if (static_cast<int>(level) < static_cast<int>(log_level())) return;
  std::ostringstream oss;
  (oss << ... << std::forward<Args>(args));
  log_line(level, oss.str());
}
}  // namespace detail

template <typename... Args>
void log_debug(Args&&... args) {
  detail::log_fmt(LogLevel::kDebug, std::forward<Args>(args)...);
}
template <typename... Args>
void log_info(Args&&... args) {
  detail::log_fmt(LogLevel::kInfo, std::forward<Args>(args)...);
}
template <typename... Args>
void log_warn(Args&&... args) {
  detail::log_fmt(LogLevel::kWarn, std::forward<Args>(args)...);
}
template <typename... Args>
void log_error(Args&&... args) {
  detail::log_fmt(LogLevel::kError, std::forward<Args>(args)...);
}

}  // namespace ftcf::util

/// Call-site guard: skips argument evaluation AND formatting entirely when
/// debug logging is below threshold.
#define FTCF_LOG_DEBUG(...)                                              \
  do {                                                                   \
    if (::ftcf::util::log_enabled(::ftcf::util::LogLevel::kDebug))       \
      ::ftcf::util::log_debug(__VA_ARGS__);                              \
  } while (0)
