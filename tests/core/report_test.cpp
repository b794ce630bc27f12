#include "core/report.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "cps/generators.hpp"
#include "routing/dmodk.hpp"
#include "topology/presets.hpp"

namespace ftcf::core {
namespace {

std::string report_text(const topo::Fabric& fabric,
                        const ReportOptions& options = {}) {
  std::ostringstream oss;
  write_fabric_report(fabric, oss, options);
  return oss.str();
}

TEST(Report, ContainsAllSections) {
  const topo::Fabric fabric(topo::fig4b_pgft16());
  const std::string text = report_text(fabric);
  EXPECT_NE(text.find("PGFT(2; 4,4; 1,2; 1,2)"), std::string::npos);
  EXPECT_NE(text.find("structure: ok"), std::string::npos);
  EXPECT_NE(text.find("Theorem 1"), std::string::npos);
  EXPECT_NE(text.find("Theorem 3"), std::string::npos);
  EXPECT_NE(text.find("grouped-recursive-doubling"), std::string::npos);
  EXPECT_NE(text.find("shift"), std::string::npos);
}

TEST(Report, SectionsCanBeDisabled) {
  const topo::Fabric fabric(topo::fig4b_pgft16());
  ReportOptions options;
  options.check_theorems = false;
  const std::string text = report_text(fabric, options);
  EXPECT_EQ(text.find("Theorem"), std::string::npos);
  EXPECT_NE(text.find("structure: ok"), std::string::npos);
}

TEST(Report, FlagsArityOnRlfts) {
  const topo::Fabric fabric(topo::paper_cluster(128));
  EXPECT_NE(report_text(fabric, {.check_theorems = false, .random_trials = 1})
                .find("RLFT of arity K = 8"),
            std::string::npos);
}

TEST(Report, PlanColumnsAreCongestionFree) {
  const topo::Fabric fabric(topo::fig4b_pgft16());
  const std::string text = report_text(fabric);
  // Every CPS row shows plan HSD 1.00.
  std::size_t ones = 0;
  for (std::size_t pos = text.find("| 1.00"); pos != std::string::npos;
       pos = text.find("| 1.00", pos + 1))
    ++ones;
  EXPECT_GE(ones, 8u);
}

TEST(HsdAnalyzer, EnsembleStatisticsAreDeterministic) {
  const topo::Fabric fabric(topo::paper_cluster(128));
  const auto tables = route::DModKRouter{}.compute(fabric);
  const cps::Sequence seq = cps::dissemination(128);
  const auto a = random_order_hsd_ensemble(fabric, tables, seq, 5, 99);
  const auto b = random_order_hsd_ensemble(fabric, tables, seq, 5, 99);
  EXPECT_EQ(a.count(), 5u);
  EXPECT_DOUBLE_EQ(a.mean(), b.mean());
  EXPECT_DOUBLE_EQ(a.min(), b.min());
  EXPECT_GE(a.max(), a.min());
}

// Pinned against the current trial-seed derivation (util::derive_seed):
// these values change only if the seeding scheme or the HSD count changes,
// and must be independent of the thread count. (The old `seed + t` scheme
// produced different ensembles; repinned when it was replaced.)
TEST(HsdAnalyzer, EnsembleValuesArePinned) {
  const topo::Fabric fabric(topo::paper_cluster(128));
  const auto tables = route::DModKRouter{}.compute(fabric);
  const cps::Sequence seq = cps::dissemination(128);
  const auto acc = random_order_hsd_ensemble(fabric, tables, seq, 5, 99);
  EXPECT_EQ(acc.count(), 5u);
  EXPECT_DOUBLE_EQ(acc.mean(), 3.4571428571428573);
  EXPECT_DOUBLE_EQ(acc.min(), 3.2857142857142856);
  EXPECT_DOUBLE_EQ(acc.max(), 3.5714285714285716);
}

}  // namespace
}  // namespace ftcf::core
