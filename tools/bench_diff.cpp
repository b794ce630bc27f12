// bench_diff — compare two BENCH_*.json micro-benchmark exports and fail on
// regressions, the CI gate of the bench regression tracker:
//
//   bench_diff --baseline BENCH_micro_perf.json --current build/bench.json
//              [--threshold 0.15]
//
// Absolute floors gate gauges that must never sink below a contract value
// regardless of what the baseline drifted to (e.g. the incremental-repair
// speedup the churn engine promises):
//
//   bench_diff ... --min-gauge speedup.recertify_incremental_vs_full:4
//
// Exit codes: 0 no regression beyond the threshold, 1 at least one case
// regressed or a --min-gauge floor was violated (or the gauge is missing),
// 2 usage error / malformed input. Benchmarks present in only
// one side are skipped with a warning on stderr — a renamed or newly-added
// bench must not break CI for unrelated changes — unless --strict-missing
// makes disappeared baseline cases fail. The text diff on stdout is
// deterministic (name-sorted).
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/bench_compare.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/parse.hpp"

namespace {

ftcf::obs::BenchSample load_sample(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is)
    throw ftcf::util::Error("cannot open bench json '" + path + "'");
  return ftcf::obs::parse_bench_json(is);
}

/// Parse "key:value[,key:value...]" into (gauge name, floor) pairs. The
/// gauge name may itself contain dots, so only the last ':' splits.
std::vector<std::pair<std::string, double>> parse_floors(
    const std::string& spec) {
  std::vector<std::pair<std::string, double>> floors;
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    std::size_t end = spec.find(',', begin);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(begin, end - begin);
    begin = end + 1;
    if (entry.empty()) continue;
    const std::size_t colon = entry.rfind(':');
    if (colon == std::string::npos || colon == 0)
      throw ftcf::util::Error("--min-gauge entry '" + entry +
                              "' is not KEY:VALUE");
    const auto value = ftcf::util::parse_f64(entry.substr(colon + 1));
    if (!value || !std::isfinite(*value))
      throw ftcf::util::Error("--min-gauge entry '" + entry +
                              "' has a non-numeric floor");
    floors.emplace_back(entry.substr(0, colon), *value);
  }
  return floors;
}

/// Check every floor against the current sample's gauges; a missing gauge
/// fails the gate just like a violated floor (a silently renamed gauge
/// must not green-light CI).
bool check_floors(const ftcf::obs::BenchSample& current,
                  const std::vector<std::pair<std::string, double>>& floors) {
  bool ok = true;
  for (const auto& [name, floor] : floors) {
    const auto it = current.gauges.find(name);
    if (it == current.gauges.end() || !std::isfinite(it->second)) {
      std::cout << "min-gauge " << name << ": MISSING (floor " << floor
                << ")\n";
      ok = false;
    } else if (it->second < floor) {
      std::cout << "min-gauge " << name << ": " << it->second << " < floor "
                << floor << " VIOLATION\n";
      ok = false;
    } else {
      std::cout << "min-gauge " << name << ": " << it->second << " >= floor "
                << floor << " ok\n";
    }
  }
  return ok;
}

int run_main(int argc, char** argv) {
  using namespace ftcf;
  util::Cli cli("bench_diff",
                "diff two BENCH_*.json exports, fail on perf regressions");
  cli.add_option("baseline", "committed baseline BENCH_*.json", "");
  cli.add_option("current", "freshly produced BENCH_*.json", "");
  cli.add_option("threshold",
                 "regression fraction that fails (0.15 = 15%)", "0.15");
  cli.add_flag("strict-missing",
               "fail when a baseline case is absent from current "
               "(default: warn and skip)");
  cli.add_option("min-gauge",
                 "absolute gauge floors as KEY:VALUE[,KEY:VALUE...]; a "
                 "current gauge below its floor (or missing) fails",
                 "");
  if (!cli.parse(argc, argv)) return 0;
  if (cli.str("baseline").empty() || cli.str("current").empty())
    throw util::Error("need --baseline and --current");
  const auto threshold = util::parse_f64(cli.str("threshold"));
  if (!threshold || !(*threshold >= 0))
    throw util::Error("--threshold must be a non-negative number");
  const auto floors = parse_floors(cli.str("min-gauge"));

  const obs::BenchSample baseline = load_sample(cli.str("baseline"));
  const obs::BenchSample current = load_sample(cli.str("current"));
  const obs::BenchComparison cmp =
      obs::compare_bench(baseline, current, *threshold);
  obs::write_bench_diff_text(std::cout, cmp);

  for (const std::string& name : cmp.missing)
    std::cerr << "warning: baseline case '" << name
              << "' absent from current (skipped)\n";
  for (const std::string& name : cmp.added)
    std::cerr << "warning: current case '" << name
              << "' absent from baseline (skipped)\n";
  const bool floors_ok = check_floors(current, floors);
  const bool missing_fails =
      !cmp.missing.empty() && cli.flag("strict-missing");
  return cmp.regressed() || missing_fails || !floors_ok ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Any failure to read or compare the inputs is a usage error: exit 2.
  return ftcf::util::guarded_main(argc, argv, run_main, 2);
}
