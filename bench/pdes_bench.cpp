// Packet-engine throughput: the serial event loop vs the partitioned PDES
// engine on the paper's 648-node RLFT, over a representative slice of the
// Shift sweep under synchronized progression (the Fig. 2 workload shape).
//
// The exported BENCH_pdes.json carries ns/op and events/s gauges per case
// plus a derived `speedup.pdes_vs_serial` gauge (best PDES case over the
// serial engine). On a single-CPU runner the PDES cases pay the window
// machinery without gaining real parallelism, so ~1.0x (or slightly below)
// is the honest expectation there; the gauge exists to track multi-core
// runners and regressions in the window overhead itself.
#include <benchmark/benchmark.h>

#include "bench_export.hpp"
#include "cps/generators.hpp"
#include "ordering/ordering.hpp"
#include "routing/dmodk.hpp"
#include "sim/packet_sim.hpp"
#include "topology/presets.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace ftcf;

/// Shared scenario: the 648-node RLFT, D-Mod-K tables, and four Shift
/// displacements (intra-leaf, cross-leaf, cross-spine, last) at 2 KiB under
/// the in-order placement.
struct PdesRig {
  PdesRig()
      : fabric(topo::paper_cluster(648)),
        tables(route::DModKRouter{}.compute(fabric)),
        workload(sim::traffic_from_cps(
            cps::shift(fabric.num_hosts()),
            order::NodeOrdering::topology(fabric), fabric.num_hosts(),
            2 * 1024, &slice)) {}
  const std::vector<std::size_t> slice{0, 8, 323, 645};
  topo::Fabric fabric;
  route::ForwardingTables tables;
  std::vector<sim::StageTraffic> workload;
};

const PdesRig& rig() {
  static const PdesRig r;
  return r;
}

void BM_SerialEngine648(benchmark::State& state) {
  const PdesRig& r = rig();
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::PacketSim psim(r.fabric, r.tables);
    const sim::RunResult result =
        psim.run(r.workload, sim::Progression::kSynchronized);
    events += result.events;
    benchmark::DoNotOptimize(result.makespan);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_SerialEngine648);

/// args: {partitions, threads}. items/s = simulation events per second.
void BM_PdesEngine648(benchmark::State& state) {
  const PdesRig& r = rig();
  const auto partitions = static_cast<std::uint32_t>(state.range(0));
  const auto threads = static_cast<std::uint32_t>(state.range(1));
  par::set_default_threads(threads);
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::PacketSim psim(r.fabric, r.tables);
    psim.set_partitions(partitions);
    const sim::RunResult result =
        psim.run(r.workload, sim::Progression::kSynchronized);
    events += result.events;
    benchmark::DoNotOptimize(result.makespan);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  par::set_default_threads(0);
}
BENCHMARK(BM_PdesEngine648)
    ->ArgNames({"partitions", "threads"})
    ->Args({2, 1})
    ->Args({2, 2})
    ->Args({8, 2})
    ->Args({8, 8});

int run_main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 2;

  obs::MetricsRegistry registry;
  ftcf::benchio::JsonExportReporter reporter(registry, "pdes");
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  // Best PDES case vs the serial engine (same workload, same fabric).
  const double serial =
      registry.gauge("ns_per_op.BM_SerialEngine648").value();
  double best_pdes = 0.0;
  for (const char* name :
       {"ns_per_op.BM_PdesEngine648/partitions:2/threads:1",
        "ns_per_op.BM_PdesEngine648/partitions:2/threads:2",
        "ns_per_op.BM_PdesEngine648/partitions:8/threads:2",
        "ns_per_op.BM_PdesEngine648/partitions:8/threads:8"}) {
    const double v = registry.gauge(name).value();
    if (v > 0.0 && (best_pdes == 0.0 || v < best_pdes)) best_pdes = v;
  }
  if (serial > 0.0 && best_pdes > 0.0) {
    const double speedup = serial / best_pdes;
    registry.gauge("speedup.pdes_vs_serial").set(speedup);
    std::cout << "pdes speedup (serial / best pdes): " << speedup << "x\n";
  }
  return ftcf::benchio::write_bench_json(registry, "BENCH_pdes.json");
}

}  // namespace

int main(int argc, char** argv) {
  return ftcf::util::guarded_main(argc, argv, run_main);
}
