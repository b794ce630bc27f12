#include "check/diagnostics.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "util/error.hpp"
#include "util/expects.hpp"

namespace ftcf::check {

const char* severity_name(Severity severity) noexcept {
  switch (severity) {
    case Severity::kNote: return "note";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "?";
}

Suppressions Suppressions::parse(std::istream& is) {
  Suppressions out;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const auto b = line.find_first_not_of(" \t\r");
    if (b == std::string::npos) continue;
    const auto e = line.find_last_not_of(" \t\r");
    std::string token = line.substr(b, e - b + 1);

    Entry entry;
    const auto colon = token.find(':');
    if (colon != std::string::npos) {
      entry.rule = token.substr(0, colon);
      entry.location_part = token.substr(colon + 1);
    } else {
      entry.rule = token;
    }
    // Tolerate padding around the separator ("rule : location"): trim both
    // parts so hand-edited baselines match what the analyzers emit.
    const auto trim = [](std::string& s) {
      const auto tb = s.find_first_not_of(" \t");
      if (tb == std::string::npos) {
        s.clear();
        return;
      }
      const auto te = s.find_last_not_of(" \t");
      s = s.substr(tb, te - tb + 1);
    };
    trim(entry.rule);
    trim(entry.location_part);
    if (entry.rule.empty() ||
        entry.rule.find_first_of(" \t") != std::string::npos)
      throw util::ParseError("suppressions line " + std::to_string(lineno) +
                             ": expected 'rule' or 'rule:location', got '" +
                             token + "'");
    out.entries_.push_back(std::move(entry));
  }
  return out;
}

Suppressions Suppressions::parse_string(const std::string& text) {
  std::istringstream iss(text);
  return parse(iss);
}

std::vector<std::string> Suppressions::rules() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const Entry& entry : entries_) out.push_back(entry.rule);
  return out;
}

bool Suppressions::matches(const Finding& finding) const {
  for (const Entry& entry : entries_) {
    if (entry.rule != finding.rule) continue;
    if (entry.location_part.empty() ||
        finding.location.find(entry.location_part) != std::string::npos)
      return true;
  }
  return false;
}

void Diagnostics::set_suppressions(Suppressions suppressions) {
  suppressions_ = std::move(suppressions);
}

void Diagnostics::add(Finding finding) {
  // Drift guard: a rule outside the catalog could never be suppressed or
  // baselined, so emitting one is a library bug, not an input problem.
  if (!is_known_rule(finding.rule))
    util::ensures(false, "rule '" + finding.rule +
                             "' is not in the known-rule catalog; add it to "
                             "known_rule_ids()");
  if (suppressions_.matches(finding)) {
    ++suppressed_;
    return;
  }
  ++counts_[static_cast<std::size_t>(finding.severity)];
  findings_.push_back(std::move(finding));
}

void Diagnostics::note(std::string rule, std::string location,
                       std::string message) {
  add(Finding{std::move(rule), Severity::kNote, std::move(location),
              std::move(message)});
}

void Diagnostics::warning(std::string rule, std::string location,
                          std::string message) {
  add(Finding{std::move(rule), Severity::kWarning, std::move(location),
              std::move(message)});
}

void Diagnostics::error(std::string rule, std::string location,
                        std::string message) {
  add(Finding{std::move(rule), Severity::kError, std::move(location),
              std::move(message)});
}

std::uint64_t Diagnostics::count(Severity severity) const noexcept {
  return counts_[static_cast<std::size_t>(severity)];
}

void Diagnostics::write_text(std::ostream& os) const {
  for (const Finding& f : findings_) {
    os << severity_name(f.severity) << '[' << f.rule << ']';
    if (!f.location.empty()) os << ' ' << f.location;
    os << ": " << f.message << '\n';
  }
  os << "check: " << errors() << " error(s), " << warnings()
     << " warning(s), " << notes() << " note(s)";
  if (suppressed_ != 0) os << ", " << suppressed_ << " suppressed";
  os << '\n';
}

void write_json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr const char* hex = "0123456789abcdef";
          os << "\\u00" << hex[(c >> 4) & 0xf] << hex[c & 0xf];
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void Diagnostics::write_json(
    std::ostream& os, const std::map<std::string, std::string>& meta) const {
  os << "{\n \"meta\":{";
  bool first = true;
  for (const auto& [key, value] : meta) {
    if (!first) os << ',';
    first = false;
    write_json_string(os, key);
    os << ':';
    write_json_string(os, value);
  }
  os << "},\n \"summary\":{\"errors\":" << errors()
     << ",\"notes\":" << notes() << ",\"suppressed\":" << suppressed_
     << ",\"warnings\":" << warnings() << "},\n \"findings\":[";
  first = true;
  for (const Finding& f : findings_) {
    os << (first ? "\n  " : ",\n  ");
    first = false;
    os << "{\"location\":";
    write_json_string(os, f.location);
    os << ",\"message\":";
    write_json_string(os, f.message);
    os << ",\"rule\":";
    write_json_string(os, f.rule);
    os << ",\"severity\":\"" << severity_name(f.severity) << "\"}";
  }
  os << (findings_.empty() ? "]\n}\n" : "\n ]\n}\n");
}

std::span<const std::string_view> known_rule_ids() noexcept {
  // Sorted ascending; keep in sync with docs/STATIC_ANALYSIS.md.
  static constexpr std::string_view kRules[] = {
      "cdg-adaptive-cycle",
      "cdg-adaptive-ok",
      "cdg-cycle",
      "cdg-walk-mismatch",
      "cert-ok",
      "cert-symbolic-mismatch",
      "cert-symbolic-ok",
      "cert-telemetry-mismatch",
      "cert-telemetry-ok",
      "cps-displacement",
      "hsd-violation",
      "lft-incomplete",
      "order-mismatch",
      "order-partial",
      "pgft-structure",
      "rlft-cbb",
      "rlft-parallel-ports",
      "rlft-radix",
      "rlft-single-cable",
      "route-problem",
      "route-unreachable",
      "suppress-unknown-rule",
      "symbolic-inapplicable",
      "updown-turn",
      "vl-assignment",
      "vl-bound-gap",
      "vl-cycle",
      "vl-optimal",
  };
  return kRules;
}

bool is_known_rule(std::string_view rule) noexcept {
  constexpr std::string_view kBlamePrefix = "blame-";
  if (rule.rfind(kBlamePrefix, 0) == 0)
    return is_known_rule(rule.substr(kBlamePrefix.size()));
  const auto rules = known_rule_ids();
  return std::binary_search(rules.begin(), rules.end(), rule);
}

void write_baseline(const Diagnostics& diagnostics, std::ostream& os) {
  os << "# suppression baseline written by ftcf_tool check --write-baseline\n"
        "# one entry per line: rule or rule:location-substring\n";
  std::vector<std::string> seen;
  for (const Finding& f : diagnostics.findings()) {
    // A location the parser cannot reproduce — comment markers, line breaks,
    // or leading/trailing padding it would trim away — falls back to
    // suppressing the rule everywhere.
    const std::string& loc = f.location;
    const bool roundtrips =
        !loc.empty() && loc.find_first_of("#\r\n") == std::string::npos &&
        loc.front() != ' ' && loc.front() != '\t' && loc.back() != ' ' &&
        loc.back() != '\t';
    std::string token = f.rule;
    if (roundtrips) token += ':' + loc;
    if (std::find(seen.begin(), seen.end(), token) != seen.end()) continue;
    seen.push_back(token);
    os << token << '\n';
  }
}

}  // namespace ftcf::check
