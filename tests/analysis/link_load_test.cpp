#include "analysis/link_load.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "cps/generators.hpp"
#include "ordering/ordering.hpp"
#include "routing/dmodk.hpp"
#include "topology/presets.hpp"

namespace ftcf::analysis {
namespace {

using topo::Fabric;

TEST(LinkLoad, HistogramOfCleanShiftIsAllOnes) {
  const Fabric fabric(topo::fig4b_pgft16());
  const auto tables = route::DModKRouter{}.compute(fabric);
  const HsdAnalyzer analyzer(fabric, tables);
  const auto ordering = order::NodeOrdering::topology(fabric);
  std::vector<std::uint32_t> loads;
  const auto flows = ordering.map_stage(cps::shift_stage(16, 4));
  (void)analyzer.analyze_stage(flows, &loads);
  // 16 flows, destination 4 away: all leave their leaf = 4 links each, and
  // every used link carries exactly one flow.
  EXPECT_EQ(std::count(loads.begin(), loads.end(), 1u), 64);
  EXPECT_EQ(*std::max_element(loads.begin(), loads.end()), 1u);
}

TEST(LinkLoad, PerLevelBreakdownSeparatesDirections) {
  const Fabric fabric(topo::fig4b_pgft16());
  const auto tables = route::DModKRouter{}.compute(fabric);
  const HsdAnalyzer analyzer(fabric, tables);
  std::vector<std::uint32_t> loads;
  const std::vector<cps::Pair> flows{{0, 4}, {1, 8}, {2, 12}, {3, 5}};
  (void)analyzer.analyze_stage(flows, &loads);
  const auto levels = per_level_loads(fabric, loads);
  ASSERT_FALSE(levels.empty());
  bool saw_up = false, saw_down = false;
  for (const LevelLoad& ll : levels) {
    saw_up = saw_up || ll.upward;
    saw_down = saw_down || !ll.upward;
    EXPECT_GE(ll.max_load, 1u);
    EXPECT_GE(static_cast<double>(ll.max_load), ll.avg_load);
  }
  EXPECT_TRUE(saw_up);
  EXPECT_TRUE(saw_down);
}

TEST(LinkLoad, HotLinksAreCounted) {
  const Fabric fabric(topo::fig4b_pgft16());
  const auto tables = route::DModKRouter{}.compute(fabric);
  const HsdAnalyzer analyzer(fabric, tables);
  std::vector<std::uint32_t> loads;
  // Three flows from leaf 0 to destinations congruent mod 4: one hot up-link.
  const std::vector<cps::Pair> flows{{0, 4}, {1, 8}, {2, 12}};
  (void)analyzer.analyze_stage(flows, &loads);
  const auto levels = per_level_loads(fabric, loads);
  std::uint64_t hot = 0;
  for (const LevelLoad& ll : levels)
    if (ll.upward && ll.level == 1) hot += ll.hot_links;
  EXPECT_EQ(hot, 1u);
}

TEST(LinkLoad, LeafRenderingShowsEveryLeaf) {
  const Fabric fabric(topo::fig4b_pgft16());
  const auto tables = route::DModKRouter{}.compute(fabric);
  const HsdAnalyzer analyzer(fabric, tables);
  const auto ordering = order::NodeOrdering::topology(fabric);
  std::vector<std::uint32_t> loads;
  (void)analyzer.analyze_stage(ordering.map_stage(cps::shift_stage(16, 4)), &loads);
  const std::string text = render_leaf_up_loads(fabric, loads);
  EXPECT_NE(text.find("S1_0 up: 1 1 1 1"), std::string::npos);
  EXPECT_NE(text.find("S1_3"), std::string::npos);
}

}  // namespace
}  // namespace ftcf::analysis
