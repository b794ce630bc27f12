#include "core/report.hpp"

#include <gtest/gtest.h>

#include <sstream>

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

}  // namespace
}  // namespace ftcf::core
