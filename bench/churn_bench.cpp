// Churn engine benchmarks on the paper's 3-level 648-node RLFT
// (PGFT(3; 6,6,18; 1,6,6; 1,1,1)): per-event incremental LFT repair and
// incremental re-certification against their from-scratch counterparts.
//
// The exported BENCH_churn.json carries the CI-gated ns/op gauges plus a
// derived `speedup.recertify_incremental_vs_full` gauge, which CI holds at
// >= 4x incremental-vs-full re-certify on this fabric.
//
// Every case that fans out over ftcf::par workers runs with UseRealTime():
// the main thread mostly waits on the workers, so its CPU time would drive
// both the iteration count and items/s off a clock ns/op does not use.
// Those cases export under a "/real_time" suffix.
#include <benchmark/benchmark.h>

#include <vector>

#include "bench_export.hpp"
#include "check/certify.hpp"
#include "check/recertify.hpp"
#include "churn/campaign.hpp"
#include "cps/generators.hpp"
#include "fault/degraded.hpp"
#include "routing/degraded.hpp"
#include "routing/incremental.hpp"
#include "topology/spec.hpp"
#include "util/cli.hpp"

namespace {

using namespace ftcf;

const char kRlft648[] = "PGFT(3; 6,6,18; 1,6,6; 1,1,1)";

/// The shared 648-node scenario: pristine baseline, Shift CPS over the
/// in-order topology placement, and one leaf up-cable to churn.
struct ChurnRig {
  ChurnRig()
      : fabric(topo::parse_pgft(kRlft648)),
        state(fabric, fault::parse_faults("")),
        ordering(order::NodeOrdering::topology(fabric)),
        sequence(cps::shift(fabric.num_hosts())) {
    const topo::NodeId leaf = fabric.switch_node(1, 0);
    cable = fabric.port_id(leaf, fabric.node(leaf).num_down_ports);
  }
  topo::Fabric fabric;
  fault::FaultState state;
  order::NodeOrdering ordering;
  cps::Sequence sequence;
  topo::PortId cable = topo::kInvalidPort;
};

/// From-scratch degraded D-Mod-K build over the live health view — what a
/// non-incremental fabric manager pays per event.
void BM_FullRepair648(benchmark::State& state) {
  ChurnRig rig;
  route::IncrementalRepair repair(rig.state);
  (void)repair.fail_cable(rig.cable);
  for (auto _ : state) {
    const auto tables =
        route::compute_degraded_dmodk(rig.fabric, repair.health());
    benchmark::DoNotOptimize(tables.complete());
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(rig.fabric.num_switches() *
                                rig.fabric.num_hosts()));
}
BENCHMARK(BM_FullRepair648);

/// Incremental repair: one churn event per iteration (alternating
/// fail/repair of the same cable, so the rig returns to its start state
/// every other iteration).
void BM_IncrementalRepair648(benchmark::State& state) {
  ChurnRig rig;
  route::IncrementalRepair repair(rig.state);
  bool down = false;
  std::uint64_t entries = 0;
  for (auto _ : state) {
    const route::RepairDelta delta =
        down ? repair.repair_cable(rig.cable) : repair.fail_cable(rig.cable);
    down = !down;
    entries += delta.entries_changed;
    benchmark::DoNotOptimize(delta.applied);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(entries));
}
BENCHMARK(BM_IncrementalRepair648)->UseRealTime();

/// Incremental repair of one cable while others stay down: the first up
/// cable of leaves 0..7 fails up front, then each iteration repairs one of
/// them (timed) and fails it again (untimed), cycling through the eight.
/// Unlike the single-cable alternation above, most non-pristine columns
/// here owe their deviation to a cable that stays down, so a repair that
/// re-routed every non-pristine destination would pay for all of them.
void BM_IncrementalRepairHeld648(benchmark::State& state) {
  ChurnRig rig;
  route::IncrementalRepair repair(rig.state);
  std::vector<topo::PortId> held;
  for (std::uint64_t o = 0; o < 8; ++o) {
    const topo::NodeId leaf = rig.fabric.switch_node(1, o);
    held.push_back(
        rig.fabric.port_id(leaf, rig.fabric.node(leaf).num_down_ports));
    (void)repair.fail_cable(held.back());
  }
  std::size_t next = 0;
  std::uint64_t entries = 0;
  for (auto _ : state) {
    const route::RepairDelta delta = repair.repair_cable(held[next]);
    entries += delta.entries_changed;
    benchmark::DoNotOptimize(delta.applied);
    state.PauseTiming();
    (void)repair.fail_cable(held[next]);
    next = (next + 1) % held.size();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(entries));
}
BENCHMARK(BM_IncrementalRepairHeld648)->UseRealTime();

/// From-scratch certification of the degraded fabric — the paper-checker
/// cost an event would trigger without the incremental path.
void BM_FullRecertify648(benchmark::State& state) {
  ChurnRig rig;
  route::IncrementalRepair repair(rig.state);
  (void)repair.fail_cable(rig.cable);
  for (auto _ : state) {
    const check::Certificate cert = check::certify_contention_freedom(
        rig.fabric, repair.tables(), rig.ordering, rig.sequence);
    benchmark::DoNotOptimize(cert.contention_free);
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(rig.sequence.total_pairs()));
}
BENCHMARK(BM_FullRecertify648)->UseRealTime();

/// Incremental re-certification of one churn event per iteration: the
/// repair delta dirties a handful of destination columns and only their
/// flows are re-walked.
void BM_IncrementalRecertify648(benchmark::State& state) {
  ChurnRig rig;
  route::IncrementalRepair repair(rig.state);
  check::IncrementalCertifier recert(rig.fabric, repair.tables(), rig.ordering,
                                     rig.sequence);
  bool down = false;
  std::uint64_t flows = 0;
  for (auto _ : state) {
    // The routing repair is benchmarked by the *Repair648 pair; pause so
    // this case isolates the re-certification cost the full case measures.
    state.PauseTiming();
    const route::RepairDelta delta =
        down ? repair.repair_cable(rig.cable) : repair.fail_cable(rig.cable);
    down = !down;
    state.ResumeTiming();
    const check::CertificateDelta cert_delta = recert.update(delta);
    flows += cert_delta.flows_rewalked;
    benchmark::DoNotOptimize(cert_delta.contention_free);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(flows));
}
BENCHMARK(BM_IncrementalRecertify648)->UseRealTime();

/// End-to-end campaign event: incremental repair + re-certification + the
/// CDG deadlock re-proof, amortized over a 2-event fail/repair timeline.
void BM_CampaignEvent648(benchmark::State& state) {
  ChurnRig rig;
  const churn::Timeline timeline = churn::resolve_timeline(
      rig.fabric,
      fault::parse_faults("link:leaf0:6@t=100us,repair:link:leaf0:6@t=200us"));
  churn::CampaignOptions options;
  options.sample_srcs = 0;  // repair + recertify + CDG only
  std::uint64_t events = 0;
  for (auto _ : state) {
    const churn::CampaignReport report = churn::run_campaign(
        rig.fabric, timeline, rig.ordering, rig.sequence, options);
    events += report.num_events;
    benchmark::DoNotOptimize(report.final_contention_free);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_CampaignEvent648)->UseRealTime();

int run_main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 2;

  obs::MetricsRegistry registry;
  benchio::JsonExportReporter reporter(registry, "churn");
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  // The ROADMAP acceptance ratio: from-scratch certify vs one incremental
  // re-certify event (both gauges are per-op ns on the same fabric).
  const double full =
      registry.gauge("ns_per_op.BM_FullRecertify648/real_time").value();
  const double incremental =
      registry.gauge("ns_per_op.BM_IncrementalRecertify648/real_time").value();
  if (full > 0 && incremental > 0) {
    const double speedup = full / incremental;
    registry.gauge("speedup.recertify_incremental_vs_full").set(speedup);
    std::cout << "recertify speedup (full / incremental): " << speedup
              << "x\n";
  }
  return benchio::write_bench_json(registry, "BENCH_churn.json");
}

}  // namespace

int main(int argc, char** argv) {
  return ftcf::util::guarded_main(argc, argv, run_main);
}
