// Parameterized audit sweep: every CPS on every preset fabric under the
// CollectivePlan must be congestion-free — the repo-wide statement of the
// paper's conclusion, as one test matrix.
#include <gtest/gtest.h>

#include <tuple>

#include "core/plan.hpp"
#include "routing/ftree.hpp"
#include "topology/presets.hpp"

namespace ftcf {
namespace {

using Param = std::tuple<std::uint64_t, cps::CpsKind>;

class PlanAuditSweep : public ::testing::TestWithParam<Param> {};

INSTANTIATE_TEST_SUITE_P(
    PresetsTimesCps, PlanAuditSweep,
    ::testing::Combine(::testing::Values(16ull, 128ull, 324ull),
                       ::testing::ValuesIn(std::vector<cps::CpsKind>(
                           std::begin(cps::kAllCpsKinds),
                           std::end(cps::kAllCpsKinds)))),
    [](const ::testing::TestParamInfo<Param>& param_info) {
      std::string name = std::to_string(std::get<0>(param_info.param)) + "_" +
                         cps::cps_name(std::get<1>(param_info.param));
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

TEST_P(PlanAuditSweep, CongestionFreeUnderThePlan) {
  const auto [nodes, kind] = GetParam();
  const topo::Fabric fabric(topo::paper_cluster(nodes));
  const core::CollectivePlan plan(fabric);
  const cps::Sequence seq = plan.sequence_for(kind);
  const auto cert = plan.audit(seq);
  const auto metrics = check::summarize(cert);
  EXPECT_TRUE(cert.contention_free)
      << cps_name(kind) << " on " << fabric.spec().to_string()
      << ": worst HSD " << metrics.worst_stage_hsd;
  EXPECT_DOUBLE_EQ(metrics.avg_max_hsd, 1.0);
}

TEST_P(PlanAuditSweep, FtreeTablesGiveTheSameGuarantee) {
  const auto [nodes, kind] = GetParam();
  const topo::Fabric fabric(topo::paper_cluster(nodes));
  const core::CollectivePlan plan(fabric);
  const auto ftree_tables = route::FtreeRouter{}.compute(fabric);
  const auto metrics = check::summarize(check::certify_contention_freedom(
      fabric, ftree_tables, plan.ordering(), plan.sequence_for(kind)));
  EXPECT_LE(metrics.worst_stage_hsd, 1u)
      << cps_name(kind) << " on " << fabric.spec().to_string();
}

}  // namespace
}  // namespace ftcf
