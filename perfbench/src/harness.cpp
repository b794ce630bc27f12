#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

void Digest::add(std::string_view bytes) noexcept {
  for (const char c : bytes) {
    hash_ ^= static_cast<unsigned char>(c);
    hash_ *= 0x100000001b3ULL;
  }
  add_separator();
}

void Digest::add(std::uint64_t value) noexcept {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (value >> (8 * i)) & 0xffU;
    hash_ *= 0x100000001b3ULL;
  }
}

void Digest::add_separator() noexcept {
  hash_ ^= 0xffU;
  hash_ *= 0x100000001b3ULL;
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(hash_));
  return buf;
}

Tracer::Scope::Scope(Tracer& tracer, const char* name)
    : tracer_(tracer), index_(tracer.spans_.size()) {
  Span span;
  span.name = tracer.intern(name);
  span.parent = tracer.open_.empty()
                    ? -1
                    : static_cast<std::int64_t>(tracer.open_.back());
  span.request = tracer.request_;
  span.start_ns = tracer.now_ns();
  tracer.spans_.push_back(span);
  tracer.open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  tracer_.spans_[index_].end_ns = tracer_.now_ns();
  tracer_.open_.pop_back();
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

std::uint32_t Tracer::intern(const char* name) {
  const auto it = name_ids_.find(name);
  if (it != name_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  name_ids_.emplace(name, id);
  return id;
}

std::uint64_t Tracer::counter(const std::string& name) const {
  const auto it = counts_.find(name);
  return it == counts_.end() ? 0 : it->second;
}

void Tracer::write_json(std::ostream& os) const {
  os << "{\"names\":[";
  for (std::size_t i = 0; i < names_.size(); ++i)
    os << (i ? "," : "") << '"' << names_[i] << '"';
  os << "],\"fields\":[\"name\",\"parent\",\"request\",\"start_ns\",\"end_ns\"]"
        ",\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "\n") << '[' << s.name << ',' << s.parent << ','
       << s.request << ',' << s.start_ns << ',' << s.end_ns << ']';
  }
  os << "]}\n";
}

std::map<std::string, SpanTotals> span_totals(const Tracer& tracer) {
  const std::vector<Span>& spans = tracer.spans();
  // Children run on the caller's thread inside their parent, so the part of
  // a parent they cover is the sum of their durations.
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans)
    if (s.parent >= 0)
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  std::map<std::string, SpanTotals> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    SpanTotals& t = totals[tracer.names()[s.name]];
    const auto dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    t.busy_s += dur;
    t.self_s += dur - static_cast<double>(child_ns[i]) * 1e-9;
    ++t.calls;
  }
  return totals;
}

double percentile(std::vector<double> samples, double pct) {
  if (samples.empty()) throw std::invalid_argument("percentile of no samples");
  std::sort(samples.begin(), samples.end());
  const double rank = pct / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    const auto start = line.find_first_not_of(' ', colon + 1);
    return start == std::string::npos ? "unknown" : line.substr(start);
  }
  return "unknown";
}

}  // namespace perfbench
