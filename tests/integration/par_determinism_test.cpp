// Serial-vs-parallel determinism suite: the parallel sweep engine promises
// byte-identical output for every thread count. 1, 2 and 8 workers must
// produce the same LFT dump, the same HSD metrics (sequence and random
// ensemble), the same job-interference report and the same exported metrics
// JSON — not merely "statistically equal".
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "check/certify.hpp"
#include "core/jobs.hpp"
#include "core/report.hpp"
#include "cps/generators.hpp"
#include "obs/metrics.hpp"
#include "routing/dmodk.hpp"
#include "routing/lft_io.hpp"
#include "topology/presets.hpp"
#include "util/thread_pool.hpp"

namespace ftcf {
namespace {

constexpr std::uint32_t kThreadCounts[] = {1, 2, 8};

/// Runs `produce` once per thread count and returns the three outputs.
std::vector<std::string> outputs_per_thread_count(
    const std::function<std::string()>& produce) {
  const std::uint32_t saved = par::default_threads();
  std::vector<std::string> outputs;
  for (const std::uint32_t threads : kThreadCounts) {
    par::set_default_threads(threads);
    outputs.push_back(produce());
  }
  par::set_default_threads(saved);
  return outputs;
}

void expect_identical(const std::vector<std::string>& outputs,
                      const char* what) {
  ASSERT_EQ(outputs.size(), 3u);
  EXPECT_EQ(outputs[0], outputs[1]) << what << ": 1 vs 2 threads";
  EXPECT_EQ(outputs[0], outputs[2]) << what << ": 1 vs 8 threads";
}

TEST(ParDeterminism, LftDumpIsByteIdenticalAcrossThreadCounts) {
  const topo::Fabric fabric(topo::paper_cluster(324));
  const auto outputs = outputs_per_thread_count([&] {
    const auto tables = route::DModKRouter{}.compute(fabric);
    std::ostringstream os;
    route::write_lfts(fabric, tables, os);
    return os.str();
  });
  expect_identical(outputs, "LFT dump");
  EXPECT_FALSE(outputs[0].empty());
}

TEST(ParDeterminism, HsdMetricsAreByteIdenticalAcrossThreadCounts) {
  const topo::Fabric fabric(topo::paper_cluster(128));
  const auto tables = route::DModKRouter{}.compute(fabric);
  const auto ordering = order::NodeOrdering::random(fabric, 3);
  const cps::Sequence seq = cps::shift(128);

  const auto outputs = outputs_per_thread_count([&] {
    const auto cert =
        check::certify_contention_freedom(fabric, tables, ordering, seq);
    const auto metrics = check::summarize(cert);
    std::ostringstream os;
    os.precision(17);
    os << metrics.avg_max_hsd << '|' << metrics.worst_stage_hsd << '|'
       << metrics.worst_up_hsd << '|' << metrics.worst_down_hsd << '|'
       << metrics.unroutable_flows << '|';
    for (const check::StageWitness& w : cert.stages) os << w.max_hsd << ',';
    return os.str();
  });
  expect_identical(outputs, "HSD sequence metrics");
}

TEST(ParDeterminism, EnsembleStatisticsAreByteIdenticalAcrossThreadCounts) {
  const topo::Fabric fabric(topo::paper_cluster(128));
  const auto tables = route::DModKRouter{}.compute(fabric);
  const cps::Sequence seq = cps::recursive_doubling(128);

  const auto outputs = outputs_per_thread_count([&] {
    // 11 trials: not a multiple of the internal block size, so the tail
    // block's merge is covered too.
    const auto acc =
        core::random_order_hsd_ensemble(fabric, tables, seq, 11, 77);
    std::ostringstream os;
    os.precision(17);
    os << acc.count() << '|' << acc.mean() << '|' << acc.min() << '|'
       << acc.max() << '|' << acc.stddev();
    return os.str();
  });
  expect_identical(outputs, "ensemble statistics");
}

TEST(ParDeterminism, JobInterferenceReportIsIdenticalAcrossThreadCounts) {
  const topo::Fabric fabric(topo::paper_cluster(128));
  const auto tables = route::DModKRouter{}.compute(fabric);
  const auto jobs = core::allocate_jobs(fabric, {32, 64});

  const auto outputs = outputs_per_thread_count([&] {
    const auto report = core::analyze_job_interference(fabric, tables, jobs);
    std::ostringstream os;
    os << report.worst_single_job_hsd << '|' << report.worst_combined_hsd
       << '|' << report.isolated;
    return os.str();
  });
  expect_identical(outputs, "job interference report");
}

TEST(ParDeterminism, MetricsJsonExportIsByteIdenticalAcrossThreadCounts) {
  const topo::Fabric fabric(topo::paper_cluster(128));
  const auto outputs = outputs_per_thread_count([&] {
    const auto tables = route::DModKRouter{}.compute(fabric);
    const auto ordering = order::NodeOrdering::topology(fabric);
    obs::MetricsRegistry registry;
    registry.set_meta("suite", "par_determinism");
    for (const cps::CpsKind kind :
         {cps::CpsKind::kShift, cps::CpsKind::kRecursiveDoubling,
          cps::CpsKind::kDissemination}) {
      const auto seq = cps::generate(kind, fabric.num_hosts());
      const auto metrics = check::summarize(
          check::certify_contention_freedom(fabric, tables, ordering, seq));
      registry.gauge(std::string("hsd.avg_max.") + cps::cps_name(kind))
          .set(metrics.avg_max_hsd);
      registry.gauge(std::string("hsd.worst.") + cps::cps_name(kind))
          .set(metrics.worst_stage_hsd);
    }
    const auto acc = core::random_order_hsd_ensemble(
        fabric, tables, cps::shift(128), 6, 42);
    registry.gauge("hsd.random_shift.mean").set(acc.mean());
    registry.gauge("hsd.random_shift.max").set(acc.max());
    std::ostringstream os;
    registry.write_json(os);
    return os.str();
  });
  expect_identical(outputs, "metrics JSON");
  EXPECT_NE(outputs[0].find("hsd.random_shift.mean"), std::string::npos);
}

}  // namespace
}  // namespace ftcf
