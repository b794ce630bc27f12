#include "core/theorems.hpp"

#include <gtest/gtest.h>

#include "topology/presets.hpp"

namespace ftcf::core {
namespace {

using topo::Fabric;
using topo::PgftSpec;

TEST(Theorem1, HoldsAcrossRlftSweep) {
  for (const PgftSpec& spec : {
           topo::fig4b_pgft16(),
           topo::rlft2_full(4),
           PgftSpec({4, 4}, {1, 2}, {1, 2}),
           PgftSpec({6, 4}, {1, 2}, {1, 3}),
           topo::paper_cluster(128),
           PgftSpec({2, 2, 4}, {1, 2, 2}, {1, 1, 1}),
           PgftSpec({3, 3, 6}, {1, 3, 3}, {1, 1, 1}),
           PgftSpec({4, 4, 4}, {1, 4, 4}, {1, 1, 1}),
       }) {
    const Fabric fabric(spec);
    const TheoremReport report = check_theorem1(fabric);
    EXPECT_TRUE(report.holds) << spec.to_string() << ": " << report.detail;
    EXPECT_EQ(report.worst_up_hsd, 1u) << spec.to_string();
    EXPECT_EQ(report.stages_checked, fabric.num_hosts() - 1);
  }
}

TEST(Theorem2, HoldsAcrossRlftSweep) {
  for (const PgftSpec& spec : {
           topo::fig4b_pgft16(),
           topo::rlft2_full(4),
           PgftSpec({4, 4}, {1, 2}, {1, 2}),
           topo::paper_cluster(128),
           PgftSpec({2, 2, 4}, {1, 2, 2}, {1, 1, 1}),
           PgftSpec({3, 3, 6}, {1, 3, 3}, {1, 1, 1}),
       }) {
    const Fabric fabric(spec);
    const TheoremReport report = check_theorem2(fabric);
    EXPECT_TRUE(report.holds) << spec.to_string() << ": " << report.detail;
    EXPECT_EQ(report.worst_down_hsd, 1u) << spec.to_string();
  }
}

TEST(Theorem3, GroupedRecursiveDoublingIsCongestionFree) {
  for (const PgftSpec& spec : {
           topo::fig4b_pgft16(),
           topo::rlft2_full(4),
           topo::paper_cluster(128),
           PgftSpec({2, 2, 4}, {1, 2, 2}, {1, 1, 1}),
           PgftSpec({3, 3, 6}, {1, 3, 3}, {1, 1, 1}),  // m=3: fold stages
           PgftSpec({5, 5, 2}, {1, 5, 5}, {1, 1, 1}),  // m=5: fold stages
       }) {
    const Fabric fabric(spec);
    const TheoremReport report = check_theorem3(fabric);
    EXPECT_TRUE(report.holds) << spec.to_string() << ": " << report.detail;
  }
}

TEST(Theorems, NonConstantCbbBreaksTheorem1) {
  // A 2:1 tapered tree cannot carry a full Shift without contention; the
  // checker must report it rather than claim the guarantee.
  const Fabric fabric(PgftSpec::xgft({4, 4}, {1, 2}));
  const TheoremReport report = check_theorem1(fabric);
  EXPECT_FALSE(report.holds);
  EXPECT_GE(report.worst_up_hsd, 2u);
  EXPECT_FALSE(report.detail.empty());
}

}  // namespace
}  // namespace ftcf::core
