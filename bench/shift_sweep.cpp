// Full unsampled Shift sweep: every displacement s = 1..N-1 of the Shift
// CPS, simulated as an independent single-stage run (so the sweep's memory
// footprint is one stage, not N-1 — the full 11664-node sequence would not
// fit). The paper's claim under test: with D-Mod-K routing and the in-order
// (topology) placement, *every* Shift stage is contention free, so every
// stage sustains full normalized bandwidth.
//
// Stages are independent runs; --partitions N splits each run's fabric over
// N partitions of the packet engine. The JSON artifact (--json) is
// deterministic: per-stage normalized bandwidth as a series indexed by
// displacement, plus min/mean/max summary gauges — CI uploads it for the
// 11664-node RLFT (see .github/workflows/ci.yml).
#include <fstream>
#include <iostream>

#include "cps/generators.hpp"
#include "obs/metrics.hpp"
#include "ordering/ordering.hpp"
#include "routing/dmodk.hpp"
#include "sim/packet_sim.hpp"
#include "topology/presets.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace ftcf;

int run(int argc, char** argv) {
  util::Cli cli("shift_sweep",
                "unsampled per-displacement Shift sweep (contention-freedom "
                "acceptance for Fig. 2's ordered series)");
  cli.add_option("nodes", "cluster size preset", "648");
  cli.add_option("kib", "message size in KiB", "2");
  cli.add_option("order", "topology|random|adversarial", "topology");
  cli.add_option("seed", "random-order seed", "2011");
  cli.add_option("threads", "worker threads (0 = hardware)", "0");
  cli.add_option("partitions",
                 "packet-engine partitions per stage run (PDES): 1 = serial, "
                 "0 = one per thread",
                 "1");
  cli.add_option("max-stages", "stop after this many displacements (0 = all; "
                 "smoke-test hook)", "0");
  cli.add_option("json", "deterministic JSON artifact ('-' = skip)", "-");
  cli.add_option("min-bw", "fail (exit 1) if any stage's normalized BW falls "
                 "below this (0 = report only; meaningful for large "
                 "messages, where BW is not latency-bound)", "0");
  cli.add_option("max-spread", "fail (exit 1) if (max - min) / max exceeds "
                 "this (0 = report only). Contention-freedom makes every "
                 "Shift stage equally fast, at any message size — spread, "
                 "not absolute BW, is the small-message acceptance signal",
                 "0");
  if (!cli.parse(argc, argv)) return 0;
  par::set_default_threads(
      static_cast<std::uint32_t>(cli.uinteger("threads")));

  const topo::Fabric fabric(topo::paper_cluster(cli.uinteger("nodes")));
  const auto tables = route::DModKRouter{}.compute(fabric);
  const std::uint64_t n = fabric.num_hosts();
  const std::uint64_t bytes = cli.uinteger("kib") * 1024;
  const order::NodeOrdering ordering =
      cli.str("order") == "random"
          ? order::NodeOrdering::random(fabric, cli.uinteger("seed"))
          : (cli.str("order") == "adversarial"
                 ? order::NodeOrdering::adversarial_ring(fabric)
                 : order::NodeOrdering::topology(fabric));

  sim::PacketSim psim(fabric, tables);
  psim.set_partitions(
      cli.uinteger("partitions") == 0
          ? par::default_threads()
          : static_cast<std::uint32_t>(cli.uinteger("partitions")));

  std::uint64_t displacements = n - 1;
  if (cli.uinteger("max-stages") > 0 &&
      cli.uinteger("max-stages") < displacements)
    displacements = cli.uinteger("max-stages");

  obs::MetricsRegistry registry;
  registry.set_meta("bench", "shift_sweep");
  registry.set_meta("topology", fabric.spec().to_string());
  registry.set_meta("order", cli.str("order"));
  registry.set_meta("kib", std::to_string(cli.uinteger("kib")));
  registry.set_meta("engine",
                    cli.uinteger("partitions") == 1 ? "serial" : "pdes");
  // One sample per displacement; keep the series unsampled even at 11664.
  registry.set_series_capacity(
      static_cast<std::size_t>(displacements) + 2);
  auto& bw_series = registry.series("shift_sweep.normalized_bw");

  double min_bw = 0.0, max_bw = 0.0, sum_bw = 0.0;
  std::uint64_t min_stage = 0;
  std::uint64_t total_events = 0;
  for (std::uint64_t s = 1; s <= displacements; ++s) {
    // An independent single-stage sequence per displacement: constant
    // memory across the sweep.
    cps::Sequence one;
    one.name = "shift";
    one.num_ranks = n;
    one.stages.push_back(cps::shift_stage(n, s));
    const auto traffic = sim::traffic_from_cps(one, ordering, n, bytes);

    const sim::RunResult result = psim.run(traffic, sim::Progression::kAsync);
    total_events += result.events;
    const double bw = result.normalized_bw;
    bw_series.sample(static_cast<sim::SimTime>(s), bw);
    sum_bw += bw;
    if (s == 1 || bw < min_bw) {
      min_bw = bw;
      min_stage = s;
    }
    if (s == 1 || bw > max_bw) max_bw = bw;
    if (s % 512 == 0)
      util::log_info("shift_sweep: ", s, "/", displacements,
                     " displacements done");
  }

  const double mean_bw =
      displacements > 0 ? sum_bw / static_cast<double>(displacements) : 0.0;
  registry.counter("shift_sweep.stages").inc(displacements);
  registry.counter("shift_sweep.events").inc(total_events);
  registry.gauge("shift_sweep.normalized_bw.min").set(min_bw);
  registry.gauge("shift_sweep.normalized_bw.mean").set(mean_bw);
  registry.gauge("shift_sweep.normalized_bw.max").set(max_bw);
  registry.gauge("shift_sweep.normalized_bw.spread")
      .set(max_bw > 0.0 ? (max_bw - min_bw) / max_bw : 0.0);
  registry.gauge("shift_sweep.min_stage").set(static_cast<double>(min_stage));

  util::Table table({"metric", "value"});
  table.set_title("Shift sweep, " + fabric.spec().to_string() + ", " +
                  util::fmt_bytes(bytes) + " messages, " + cli.str("order") +
                  " order");
  table.add_row({"displacements", std::to_string(displacements)});
  table.add_row({"normalized BW min",
                 util::fmt_double(min_bw, 3) + " (s=" +
                     std::to_string(min_stage) + ")"});
  table.add_row({"normalized BW mean", util::fmt_double(mean_bw, 3)});
  table.add_row({"normalized BW max", util::fmt_double(max_bw, 3)});
  table.add_row({"events", std::to_string(total_events)});
  table.print(std::cout);

  if (cli.str("json") != "-") {
    std::ofstream out(cli.str("json"), std::ios::binary | std::ios::trunc);
    registry.write_json(out);
    if (!out) {
      std::cerr << "shift_sweep: cannot write " << cli.str("json") << "\n";
      return 1;
    }
    std::cout << "wrote " << cli.str("json") << "\n";
  }

  const double gate = cli.real("min-bw");
  if (gate > 0.0 && min_bw < gate) {
    std::cerr << "shift_sweep: normalized BW " << min_bw << " at s="
              << min_stage << " is below the --min-bw gate " << gate << "\n";
    return 1;
  }
  const double spread_gate = cli.real("max-spread");
  const double spread = max_bw > 0.0 ? (max_bw - min_bw) / max_bw : 0.0;
  if (spread_gate > 0.0 && spread > spread_gate) {
    std::cerr << "shift_sweep: BW spread " << spread << " (min " << min_bw
              << " at s=" << min_stage << ", max " << max_bw
              << ") exceeds the --max-spread gate " << spread_gate << "\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ftcf::util::guarded_main(argc, argv, run);
}
