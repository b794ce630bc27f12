// Micro-benchmarks (google-benchmark) of the library's hot paths: fabric
// construction, D-Mod-K table computation (the subnet-manager cost), route
// tracing, HSD stage analysis, CPS generation and the packet simulator's
// event rate.
//
// Besides the console table, every run writes a machine-readable
// BENCH_micro_perf.json (override the path with FTCF_BENCH_JSON, or set it
// to "" to skip): per-case ns/op and items/s as metrics-registry gauges plus
// run metadata, for tracking throughput across commits.
#include <benchmark/benchmark.h>

#include "analysis/hsd.hpp"
#include "bench_export.hpp"
#include "core/grouped_rd.hpp"
#include "cps/generators.hpp"
#include "obs/metrics.hpp"
#include "routing/dmodk.hpp"
#include "sim/packet_sim.hpp"
#include "topology/presets.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace ftcf;

void BM_FabricBuild(benchmark::State& state) {
  const auto spec = topo::paper_cluster(static_cast<std::uint64_t>(state.range(0)));
  for (auto _ : state) {
    topo::Fabric fabric(spec);
    benchmark::DoNotOptimize(fabric.num_ports());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(spec.num_hosts()));
}
BENCHMARK(BM_FabricBuild)->Arg(128)->Arg(324)->Arg(1944);

void BM_DModKTables(benchmark::State& state) {
  const topo::Fabric fabric(
      topo::paper_cluster(static_cast<std::uint64_t>(state.range(0))));
  const route::DModKRouter router;
  for (auto _ : state) {
    auto tables = router.compute(fabric);
    benchmark::DoNotOptimize(tables.complete());
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(fabric.num_switches() * fabric.num_hosts()));
}
BENCHMARK(BM_DModKTables)->Arg(128)->Arg(324)->Arg(1944);

/// Restores the process-wide default thread count on scope exit so the
/// threaded cases don't leak their setting into later benchmarks.
class ThreadsGuard {
 public:
  explicit ThreadsGuard(std::uint32_t threads)
      : saved_(par::default_threads()) {
    par::set_default_threads(threads);
  }
  ~ThreadsGuard() { par::set_default_threads(saved_); }
  ThreadsGuard(const ThreadsGuard&) = delete;
  ThreadsGuard& operator=(const ThreadsGuard&) = delete;

 private:
  std::uint32_t saved_;
};

// The parallel-sweep cases: same work as their serial counterparts, with the
// worker count as the second argument. The JSON export records each
// (size, threads) point, so the speedup at 2/4/8 workers over threads=1 is
// tracked across commits. Output is identical for every thread count; only
// the wall clock changes.
void BM_DModKTablesThreaded(benchmark::State& state) {
  const topo::Fabric fabric(
      topo::paper_cluster(static_cast<std::uint64_t>(state.range(0))));
  const ThreadsGuard guard(static_cast<std::uint32_t>(state.range(1)));
  const route::DModKRouter router;
  for (auto _ : state) {
    auto tables = router.compute(fabric);
    benchmark::DoNotOptimize(tables.complete());
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(fabric.num_switches() * fabric.num_hosts()));
}
// UseRealTime: the pool workers do the work, so the default CPU-time clock
// (main thread only) would report bogus super-linear "speedups". Wall clock
// is the honest metric for the threaded sweeps.
BENCHMARK(BM_DModKTablesThreaded)
    ->Args({1944, 1})
    ->Args({1944, 2})
    ->Args({1944, 4})
    ->Args({1944, 8})
    ->UseRealTime();

void BM_HsdShiftSequenceThreaded(benchmark::State& state) {
  const topo::Fabric fabric(
      topo::paper_cluster(static_cast<std::uint64_t>(state.range(0))));
  const auto tables = route::DModKRouter{}.compute(fabric);
  const analysis::HsdAnalyzer analyzer(fabric, tables);
  const auto ordering = order::NodeOrdering::topology(fabric);
  const cps::Sequence seq = cps::shift(fabric.num_hosts());
  const ThreadsGuard guard(static_cast<std::uint32_t>(state.range(1)));
  for (auto _ : state) {
    const auto metrics = analyzer.analyze_sequence(seq, ordering);
    benchmark::DoNotOptimize(metrics.avg_max_hsd);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(seq.num_stages()));
}
BENCHMARK(BM_HsdShiftSequenceThreaded)
    ->Args({1944, 1})
    ->Args({1944, 2})
    ->Args({1944, 4})
    ->Args({1944, 8})
    ->UseRealTime();

void BM_HsdEnsembleThreaded(benchmark::State& state) {
  const topo::Fabric fabric(
      topo::paper_cluster(static_cast<std::uint64_t>(state.range(0))));
  const auto tables = route::DModKRouter{}.compute(fabric);
  const cps::Sequence seq = cps::recursive_doubling(fabric.num_hosts());
  const ThreadsGuard guard(static_cast<std::uint32_t>(state.range(1)));
  for (auto _ : state) {
    const auto acc =
        analysis::random_order_hsd_ensemble(fabric, tables, seq, 8, 42);
    benchmark::DoNotOptimize(acc.mean());
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_HsdEnsembleThreaded)
    ->Args({324, 1})
    ->Args({324, 2})
    ->Args({324, 4})
    ->Args({324, 8})
    ->UseRealTime();

void BM_TraceRoute(benchmark::State& state) {
  const topo::Fabric fabric(topo::paper_cluster(324));
  const auto tables = route::DModKRouter{}.compute(fabric);
  std::uint64_t s = 0;
  for (auto _ : state) {
    const auto links = route::trace_route(fabric, tables, s % 324,
                                          (s * 7 + 13) % 324);
    benchmark::DoNotOptimize(links.size());
    ++s;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceRoute);

void BM_HsdShiftStage(benchmark::State& state) {
  const topo::Fabric fabric(
      topo::paper_cluster(static_cast<std::uint64_t>(state.range(0))));
  const auto tables = route::DModKRouter{}.compute(fabric);
  const analysis::HsdAnalyzer analyzer(fabric, tables);
  const auto ordering = order::NodeOrdering::topology(fabric);
  const auto flows =
      ordering.map_stage(cps::shift_stage(fabric.num_hosts(), 5));
  for (auto _ : state) {
    const auto metrics = analyzer.analyze_stage(flows);
    benchmark::DoNotOptimize(metrics.max_hsd);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(flows.size()));
}
BENCHMARK(BM_HsdShiftStage)->Arg(324)->Arg(1944);

void BM_ShiftGeneration(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    const auto seq = cps::shift(n);
    benchmark::DoNotOptimize(seq.total_pairs());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n * (n - 1)));
}
BENCHMARK(BM_ShiftGeneration)->Arg(128)->Arg(324);

void BM_GroupedRdGeneration(benchmark::State& state) {
  const topo::Fabric fabric(
      topo::paper_cluster(static_cast<std::uint64_t>(state.range(0))));
  for (auto _ : state) {
    const auto seq = core::grouped_recursive_doubling(fabric);
    benchmark::DoNotOptimize(seq.total_pairs());
  }
}
BENCHMARK(BM_GroupedRdGeneration)->Arg(324)->Arg(1944);

void BM_PacketSimEventRate(benchmark::State& state) {
  const topo::Fabric fabric(topo::paper_cluster(128));
  const auto tables = route::DModKRouter{}.compute(fabric);
  const auto ordering = order::NodeOrdering::topology(fabric);
  const auto stages = sim::traffic_from_cps(cps::dissemination(128), ordering,
                                            128, 16 * 1024);
  sim::PacketSim psim(fabric, tables);
  std::uint64_t events = 0;
  for (auto _ : state) {
    const auto result = psim.run(stages, sim::Progression::kAsync);
    events += result.events;
    benchmark::DoNotOptimize(result.makespan);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_PacketSimEventRate);

int run_main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 2;

  obs::MetricsRegistry registry;
  benchio::JsonExportReporter reporter(registry, "micro_perf");
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return benchio::write_bench_json(registry, "BENCH_micro_perf.json");
}

}  // namespace

int main(int argc, char** argv) {
  return ftcf::util::guarded_main(argc, argv, run_main);
}
