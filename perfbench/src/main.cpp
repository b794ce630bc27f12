// perfbench: single-process, closed-loop request runner over the ftcf library.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--threads T] [--smoke] [--spans-out PATH]
//
// Set-up runs several times and reports its median. Requests are then served
// one at a time, in whole rounds, until S seconds have passed and enough
// requests completed for the tail percentile. Every request is verified.
//
// --trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
// and traced rounds, reports per-layer span totals and counters from the
// traced ones, and the latency gap between the two as the tracing overhead.
//
// Output: a `meta {...}` line (machine, pinned threads, digest, checks) and,
// last, {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

/// Worker threads the library's parallel loops use: fixed, never "all
/// cores", so runs on a busier or larger machine stay comparable.
constexpr std::uint32_t kDefaultThreads = 2;

constexpr std::size_t kMinSetupSamples = 5;
constexpr double kSetupProbeEveryS = 1.0;

/// Layer calls the traced run reports, as `<name>.busy_s` and `<name>.calls`.
constexpr const char* kLayerSpans[] = {
    "topology.fabric_build",      "routing.dmodk_compute",
    "routing.incremental_build",  "routing.incremental_repair",
    "ordering.build",             "cps.generate",
    "core.grouped_rd",            "check.symbolic_certify",
    "check.certify",              "check.certificate_json",
    "check.recertify_build",      "check.recertify_update",
    "check.cdg",                  "fault.updown_bfs",
    "churn.timeline_resolve",     "sim.traffic_build",
    "sim.packet_run",             "request",
};

/// Counters recorded at the same boundaries.
constexpr const char* kLayerCounts[] = {
    "cps.pairs",             "check.symbolic_proved",
    "check.symbolic_declined", "check.flows_walked",
    "check.blames",          "check.certificate_bytes",
    "routing.entries_changed", "routing.changed_dests",
    "check.flows_rewalked",  "check.stages_changed",
    "churn.events",          "churn.events_applied",
    "sim.events",            "sim.packets_delivered",
    "sim.bytes_delivered",
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::uint32_t threads = kDefaultThreads;
  bool smoke = false;
  std::string spans_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--threads T] [--smoke] [--spans-out PATH]\n"
               "workloads:";
  for (const std::string& name : workload_names()) std::cerr << ' ' << name;
  std::cerr << '\n';
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--threads") {
        args.threads = static_cast<std::uint32_t>(std::stoul(value));
      } else if (flag == "--spans-out") {
        args.spans_out = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  if (args.threads == 0) usage("--threads must be positive");
  return args;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + '"';
}

std::string number(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

int run(const Args& args) {
  const std::uint32_t nproc = std::max(1u, std::thread::hardware_concurrency());
  const std::uint32_t threads = std::min(args.threads, nproc);
  ftcf::par::set_default_threads(threads);

  const WorkloadOptions options{.seed = args.seed, .smoke = args.smoke};
  const auto workload = make_workload(args.workload, options);
  Tracer tracer;

  // Set-up of the serving instance (traced when tracing). Further set-up
  // samples come from throwaway instances built between rounds across the
  // whole run, so their median does not inherit one moment's machine speed.
  std::vector<double> setup_times;
  const auto time_setup = [&](Workload& instance, Tracer& t) {
    const auto t0 = Clock::now();
    instance.setup(t);
    setup_times.push_back(seconds_between(t0, Clock::now()));
  };
  const auto probe_setup = [&] {
    const auto probe = make_workload(args.workload, options);
    Tracer untraced;
    time_setup(*probe, untraced);
  };
  tracer.set_enabled(args.trace);
  time_setup(*workload, tracer);
  auto last_probe = Clock::now();

  const std::size_t round = workload->round_size();
  const double tail = workload->tail_percentile();
  // Enough requests to leave ten samples beyond the tail percentile.
  const auto tail_min = static_cast<std::uint64_t>(
      std::ceil(10.0 / (1.0 - tail / 100.0)) + 1);
  const std::uint64_t min_requests = args.smoke ? 2 * round : tail_min;
  const std::uint64_t digest_requests = round;
  const double hard_stop_s = args.seconds + 60.0;

  std::vector<double> latencies_ms;
  std::vector<double> round_work, round_s;  ///< per round: work, request time
  std::uint64_t work = 0, failed = 0;
  std::vector<std::string> failures;
  Digest digest;

  const auto start = Clock::now();
  std::uint64_t i = 0;
  for (;; ++i) {
    if (i % round == 0) {
      const double elapsed = seconds_between(start, Clock::now());
      if (i >= min_requests && (args.smoke || elapsed >= args.seconds)) break;
      if (elapsed >= hard_stop_s) break;
      if (args.smoke || seconds_between(last_probe, Clock::now()) >=
                            kSetupProbeEveryS) {
        probe_setup();
        last_probe = Clock::now();
      }
      tracer.set_enabled(args.trace && (i / round) % 2 == 1);
      round_work.push_back(0.0);
      round_s.push_back(0.0);
    }
    tracer.set_request(i + 1);
    bool ok = true;
    std::string why;
    const auto t0 = Clock::now();
    try {
      if (tracer.enabled())
        tracer.call("request", [&] { workload->serve(i, tracer); });
      else
        workload->serve(i, tracer);
    } catch (const std::exception& e) {
      ok = false;
      why = e.what();
    }
    const double dt = seconds_between(t0, Clock::now());
    latencies_ms.push_back(dt * 1e3);
    round_s.back() += dt;
    if (ok) {
      const Verdict verdict =
          workload->verify(i, i < digest_requests ? &digest : nullptr);
      ok = verdict.ok;
      why = verdict.why;
      work += workload->work();
      round_work.back() += static_cast<double>(workload->work());
    }
    if (!ok) {
      ++failed;
      if (failures.size() < 5)
        failures.push_back("request " + std::to_string(i) + ": " + why);
    }
  }
  const std::uint64_t attempted = i;
  while (setup_times.size() < kMinSetupSamples) probe_setup();
  const double elapsed = seconds_between(start, Clock::now());

  // Throughput is the median over rounds, so a slow stretch of the machine
  // moves it only if it covers half the run.
  std::vector<double> round_rates;
  for (std::size_t r = 0; r < round_s.size(); ++r)
    if (round_s[r] > 0.0) round_rates.push_back(round_work[r] / round_s[r]);

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", median(setup_times), "s"},
        {"request_p50_ms", median(latencies_ms), "ms"},
        {"request_tail_ms", percentile(latencies_ms, tail), "ms"},
        {"throughput_per_s", median(round_rates), "1/s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
  } else {
    const auto totals = span_totals(tracer);
    for (const char* name : kLayerSpans) {
      const auto it = totals.find(name);
      const SpanTotals t = it == totals.end() ? SpanTotals{} : it->second;
      metrics.push_back({std::string(name) + ".busy_s", t.busy_s, "s"});
      metrics.push_back(
          {std::string(name) + ".calls", static_cast<double>(t.calls), "count"});
    }
    for (const char* name : kLayerCounts)
      metrics.push_back(
          {name, static_cast<double>(tracer.counter(name)), "count"});
    const auto req = totals.find("request");
    const double unattributed =
        req == totals.end() || req->second.busy_s <= 0.0
            ? 0.0
            : req->second.self_s / req->second.busy_s;
    metrics.push_back({"trace.unattributed_frac", unattributed, "ratio"});
    // Traced rounds are the odd ones: pair each traced request with the
    // same slot of the untraced round before it.
    std::vector<double> ratios;
    for (std::size_t k = round; k < latencies_ms.size(); ++k)
      if ((k / round) % 2 == 1 && latencies_ms[k - round] > 0.0)
        ratios.push_back(latencies_ms[k] / latencies_ms[k - round]);
    const double overhead = ratios.empty() ? 0.0 : median(ratios) - 1.0;
    metrics.push_back({"trace.overhead_frac", overhead, "ratio"});
    if (!args.spans_out.empty()) {
      std::ofstream out(args.spans_out);
      tracer.write_json(out);
      if (!out) std::cerr << "perfbench: cannot write " << args.spans_out << '\n';
    }
  }

  std::ostringstream meta;
  meta << "{\"workload\":" << json_string(args.workload)
       << ",\"seed\":" << args.seed << ",\"seconds\":" << number(args.seconds)
       << ",\"trace\":" << (args.trace ? 1 : 0)
       << ",\"smoke\":" << (args.smoke ? "true" : "false")
       << ",\"threads\":" << threads << ",\"nproc\":" << nproc
       << ",\"cpu_model\":" << json_string(cpu_model())
       << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE)
       << ",\"loop\":\"closed, 1 client\",\"requests\":" << attempted
       << ",\"round_size\":" << round << ",\"elapsed_s\":" << number(elapsed)
       << ",\"tail_percentile\":" << number(tail)
       << ",\"tail_samples_beyond\":"
       << static_cast<std::uint64_t>(static_cast<double>(attempted) *
                                     (1.0 - tail / 100.0))
       << ",\"work_unit\":" << json_string(workload->work_unit())
       << ",\"work\":" << work << ",\"setup_samples_s\":[";
  for (std::size_t k = 0; k < setup_times.size(); ++k)
    meta << (k ? "," : "") << number(setup_times[k]);
  meta << "],\"digest\":\"" << digest.hex()
       << "\",\"digest_requests\":" << digest_requests << ",\"failures\":[";
  for (std::size_t k = 0; k < failures.size(); ++k)
    meta << (k ? "," : "") << json_string(failures[k]);
  meta << "]}";
  std::cout << "meta " << meta.str() << '\n';

  std::cout << "{\"correct\":" << (failed == 0 ? "true" : "false")
            << ",\"attempted\":" << attempted << ",\"failed\":" << failed
            << ",\"metrics\":{";
  for (std::size_t k = 0; k < metrics.size(); ++k)
    std::cout << (k ? "," : "") << json_string(metrics[k].name)
              << ":{\"value\":" << number(metrics[k].value)
              << ",\"unit\":" << json_string(metrics[k].unit) << '}';
  std::cout << "}}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Keep freed memory in the process instead of returning it to the kernel:
  // otherwise every large request re-faults (and the kernel re-zeroes) tens
  // of MiB, a cost that swings with the neighbours' memory traffic.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
