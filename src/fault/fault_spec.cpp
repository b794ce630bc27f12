#include "fault/fault_spec.hpp"

#include <charconv>
#include <sstream>

#include "util/error.hpp"

namespace ftcf::fault {

using util::ParseError;

namespace {

/// Split `text` on `sep`, keeping empty pieces (they are parse errors the
/// caller reports with context).
std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    auto pos = text.find(sep, start);
    if (pos == std::string::npos) pos = text.size();
    out.push_back(text.substr(start, pos - start));
    if (pos == text.size()) break;
    start = pos + 1;
  }
  return out;
}

std::uint64_t parse_u64_field(const std::string& token, const std::string& ctx) {
  std::uint64_t value = 0;
  const char* begin = token.data();
  const char* end = begin + token.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end)
    throw ParseError("fault spec: bad " + ctx + " '" + token + "'");
  return value;
}

double parse_factor_field(const std::string& token, const std::string& ctx) {
  double value = 0.0;
  const char* begin = token.data();
  const char* end = begin + token.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end)
    throw ParseError("fault spec: bad " + ctx + " '" + token + "'");
  return value;
}

void need_fields(const std::vector<std::string>& f, std::size_t lo,
                 std::size_t hi, const std::string& token) {
  if (f.size() < lo || f.size() > hi)
    throw ParseError("fault spec: malformed fault '" + token + "'");
  for (const std::string& piece : f)
    if (piece.empty())
      throw ParseError("fault spec: empty field in '" + token + "'");
}

/// Parse an `@t=` time value: a number with an optional us/ms/s unit suffix
/// (default microseconds). Returns nanoseconds.
sim::SimTime parse_time_field(const std::string& text,
                              const std::string& token) {
  std::size_t digits = 0;
  while (digits < text.size() &&
         text[digits] >= '0' && text[digits] <= '9')
    ++digits;
  if (digits == 0)
    throw ParseError("fault spec: bad time '" + text + "' in '" + token + "'");
  const std::string unit = text.substr(digits);
  std::uint64_t scale = 1000;  // default: microseconds
  if (unit == "us" || unit.empty()) scale = 1000;
  else if (unit == "ms") scale = 1000 * 1000;
  else if (unit == "s") scale = 1000ull * 1000 * 1000;
  else
    throw ParseError("fault spec: bad time unit '" + unit + "' in '" + token +
                     "' (us|ms|s)");
  const std::uint64_t value = parse_u64_field(text.substr(0, digits), "time");
  return static_cast<sim::SimTime>(value * scale);
}

Fault parse_one(const std::string& token) {
  // Strip an optional `@t=TIME` suffix first; it composes with the
  // timestampable kinds below.
  std::string body = token;
  sim::SimTime at = 0;
  if (const auto at_pos = token.find('@'); at_pos != std::string::npos) {
    const std::string suffix = token.substr(at_pos + 1);
    if (suffix.rfind("t=", 0) != 0)
      throw ParseError("fault spec: bad event-time suffix '@" + suffix +
                       "' in '" + token + "' (expected @t=TIME)");
    at = parse_time_field(suffix.substr(2), token);
    if (at <= 0)
      throw ParseError("fault spec: event time must be positive in '" + token +
                       "'");
    body = token.substr(0, at_pos);
  }

  auto fields = split(body, ':');
  std::string kind = fields.front();
  Fault fault;
  fault.at = at;
  bool repair = false;
  if (kind == "repair") {
    // repair:link:NODE:PORT@t=T | repair:switch:NODE@t=T — re-dispatch on
    // the repaired kind with the leading "repair" stripped.
    if (fields.size() < 2)
      throw ParseError("fault spec: malformed fault '" + token + "'");
    repair = true;
    fields.erase(fields.begin());
    kind = fields.front();
    if (kind != "link" && kind != "switch")
      throw ParseError("fault spec: repair targets link or switch, got '" +
                       token + "'");
    if (at == 0)
      throw ParseError("fault spec: repair needs an event time (@t=...) in '" +
                       token + "'");
  }
  if (kind == "link") {
    need_fields(fields, 3, 3, token);
    fault.kind = repair ? FaultKind::kRepairLink : FaultKind::kLinkDown;
    fault.node = fields[1];
    fault.port = static_cast<std::uint32_t>(parse_u64_field(fields[2], "port"));
  } else if (kind == "switch") {
    need_fields(fields, 2, 2, token);
    fault.kind = repair ? FaultKind::kRepairSwitch : FaultKind::kSwitchDown;
    fault.node = fields[1];
  } else if (kind == "rate") {
    need_fields(fields, 4, 4, token);
    if (at != 0)
      throw ParseError("fault spec: rate faults are static (no @t=) in '" +
                       token + "'");
    fault.kind = FaultKind::kDegradedRate;
    fault.node = fields[1];
    fault.port = static_cast<std::uint32_t>(parse_u64_field(fields[2], "port"));
    fault.rate_factor = parse_factor_field(fields[3], "rate factor");
    if (!(fault.rate_factor > 0.0) || fault.rate_factor > 1.0)
      throw ParseError("fault spec: rate factor must be in (0, 1], got '" +
                       fields[3] + "'");
  } else if (kind == "flap") {
    need_fields(fields, 4, 5, token);
    if (at != 0)
      throw ParseError("fault spec: flap carries its own times (no @t=) in '" +
                       token + "'");
    fault.kind = FaultKind::kLinkFlap;
    fault.node = fields[1];
    fault.port = static_cast<std::uint32_t>(parse_u64_field(fields[2], "port"));
    fault.down_at = static_cast<sim::SimTime>(
        parse_u64_field(fields[3], "flap down time") * 1000);
    if (fields.size() == 5) {
      fault.up_at = static_cast<sim::SimTime>(
          parse_u64_field(fields[4], "flap up time") * 1000);
      if (fault.up_at <= fault.down_at)
        throw ParseError("fault spec: flap revival must come after death in '" +
                         token + "'");
    }
  } else if (kind == "rand-links") {
    need_fields(fields, 3, 3, token);
    fault.kind = FaultKind::kRandomLinks;
    fault.count = parse_u64_field(fields[1], "link count");
    fault.seed = parse_u64_field(fields[2], "seed");
    if (fault.count == 0)
      throw ParseError("fault spec: rand-links count must be positive");
  } else if (kind == "mtbf") {
    need_fields(fields, 6, 6, token);
    if (at != 0)
      throw ParseError("fault spec: mtbf carries its own horizon (no @t=) in '" +
                       token + "'");
    fault.kind = FaultKind::kMtbf;
    fault.count = parse_u64_field(fields[1], "cable count");
    fault.down_at = static_cast<sim::SimTime>(
        parse_u64_field(fields[2], "mtbf") * 1000);
    fault.up_at = static_cast<sim::SimTime>(
        parse_u64_field(fields[3], "mttr") * 1000);
    fault.horizon = static_cast<sim::SimTime>(
        parse_u64_field(fields[4], "horizon") * 1000);
    fault.seed = parse_u64_field(fields[5], "seed");
    if (fault.count == 0)
      throw ParseError("fault spec: mtbf cable count must be positive");
    if (fault.down_at <= 0 || fault.up_at <= 0 || fault.horizon <= 0)
      throw ParseError("fault spec: mtbf/mttr/horizon must be positive in '" +
                       token + "'");
  } else {
    throw ParseError("fault spec: unknown fault kind '" + kind +
                     "' (link|switch|rate|flap|rand-links|repair|mtbf)");
  }
  return fault;
}

}  // namespace

std::string Fault::to_string() const {
  std::ostringstream oss;
  switch (kind) {
    case FaultKind::kLinkDown:
      oss << "link:" << node << ':' << port;
      break;
    case FaultKind::kSwitchDown:
      oss << "switch:" << node;
      break;
    case FaultKind::kDegradedRate:
      oss << "rate:" << node << ':' << port << ':' << rate_factor;
      break;
    case FaultKind::kLinkFlap:
      oss << "flap:" << node << ':' << port << ':' << down_at / 1000;
      if (up_at != sim::kNever) oss << ':' << up_at / 1000;
      break;
    case FaultKind::kRandomLinks:
      oss << "rand-links:" << count << ':' << seed;
      break;
    case FaultKind::kRepairLink:
      oss << "repair:link:" << node << ':' << port;
      break;
    case FaultKind::kRepairSwitch:
      oss << "repair:switch:" << node;
      break;
    case FaultKind::kMtbf:
      oss << "mtbf:" << count << ':' << down_at / 1000 << ':' << up_at / 1000
          << ':' << horizon / 1000 << ':' << seed;
      break;
  }
  if (at != 0) oss << "@t=" << at / 1000 << "us";
  return oss.str();
}

std::string FaultSpec::to_string() const {
  std::string out;
  for (const Fault& fault : faults) {
    if (!out.empty()) out += ',';
    out += fault.to_string();
  }
  return out;
}

FaultSpec parse_faults(const std::string& text) {
  FaultSpec spec;
  if (text.empty()) return spec;
  for (const std::string& token : split(text, ',')) {
    if (token.empty())
      throw ParseError("fault spec: empty fault entry in '" + text + "'");
    spec.faults.push_back(parse_one(token));
  }
  return spec;
}

}  // namespace ftcf::fault
