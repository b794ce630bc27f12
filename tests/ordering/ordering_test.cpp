#include "ordering/ordering.hpp"

#include <gtest/gtest.h>

#include "util/expects.hpp"

#include <algorithm>
#include <set>

#include "analysis/hsd.hpp"
#include "cps/generators.hpp"
#include "routing/dmodk.hpp"
#include "topology/presets.hpp"

namespace ftcf::order {
namespace {

using topo::Fabric;

TEST(NodeOrdering, TopologyOrderIsIdentity) {
  const Fabric fabric(topo::fig4b_pgft16());
  const auto ordering = NodeOrdering::topology(fabric);
  EXPECT_EQ(ordering.num_ranks(), 16u);
  for (std::uint64_t r = 0; r < 16; ++r) EXPECT_EQ(ordering.host_of(r), r);
}

TEST(NodeOrdering, RandomOrderIsAPermutation) {
  const Fabric fabric(topo::paper_cluster(128));
  const auto ordering = NodeOrdering::random(fabric, 42);
  std::set<std::uint64_t> hosts(ordering.hosts().begin(),
                                ordering.hosts().end());
  EXPECT_EQ(hosts.size(), 128u);
  bool identity = true;
  for (std::uint64_t r = 0; r < 128; ++r)
    identity = identity && ordering.host_of(r) == r;
  EXPECT_FALSE(identity);
}

TEST(NodeOrdering, RandomOrderVariesWithSeed) {
  const Fabric fabric(topo::paper_cluster(128));
  const auto a = NodeOrdering::random(fabric, 1);
  const auto b = NodeOrdering::random(fabric, 2);
  bool differ = false;
  for (std::uint64_t r = 0; r < 128 && !differ; ++r)
    differ = a.host_of(r) != b.host_of(r);
  EXPECT_TRUE(differ);
}

TEST(NodeOrdering, CompactSubsetSortsAndInverts) {
  const auto ordering =
      NodeOrdering::compact_subset({9, 3, 14, 0}, 16);
  EXPECT_EQ(ordering.num_ranks(), 4u);
  EXPECT_EQ(ordering.host_of(0), 0u);
  EXPECT_EQ(ordering.host_of(1), 3u);
  EXPECT_EQ(ordering.host_of(3), 14u);
  EXPECT_EQ(ordering.host_of(2), 9u);
  EXPECT_EQ(std::count(ordering.hosts().begin(), ordering.hosts().end(), 1u),
            0);
}

TEST(NodeOrdering, RejectsDuplicateHosts) {
  EXPECT_THROW(NodeOrdering({1, 1}, 4), util::PreconditionError);
  EXPECT_THROW(NodeOrdering({5}, 4), util::PreconditionError);
}

TEST(NodeOrdering, MapStageTranslatesRanksToHosts) {
  const auto ordering = NodeOrdering::compact_subset({2, 5, 7}, 8);
  const cps::Stage stage{{{0, 1}, {1, 2}, {2, 0}}, {}};
  const auto mapped = ordering.map_stage(stage);
  EXPECT_EQ(mapped, (std::vector<cps::Pair>{{2, 5}, {5, 7}, {7, 2}}));
}

TEST(SubAllocations, CountMatchesPaperExample) {
  // §V: the maximal 3-level 36-port RLFT has 36 sub-allocations of 324 nodes.
  const Fabric fabric(topo::paper_cluster(11664));
  EXPECT_EQ(num_sub_allocations(fabric), 36u);
}

TEST(SubAllocations, ResidueClassSelectsStriddenHosts) {
  const Fabric fabric(topo::paper_cluster(128));  // stride N / prod(w) = 16
  EXPECT_EQ(num_sub_allocations(fabric), 16u);
  const std::uint32_t residues[] = {3};
  const auto ordering = NodeOrdering::residue_allocation(fabric, residues);
  EXPECT_EQ(ordering.num_ranks(), 8u);
  for (std::uint64_t r = 0; r < ordering.num_ranks(); ++r)
    EXPECT_EQ(ordering.host_of(r) % 16, 3u);
}

TEST(Adversarial, RingSuccessorsShareALeafUpPort) {
  // The §II construction: under D-Mod-K every leaf's successors sit behind
  // one up-going port, so a Ring stage drives leaf-up HSD to ~K.
  const Fabric fabric(topo::paper_cluster(128));  // K = 8
  const auto ordering = NodeOrdering::adversarial_ring(fabric);
  const route::ForwardingTables tables =
      route::DModKRouter{}.compute(fabric);
  const analysis::HsdAnalyzer analyzer(fabric, tables);
  const auto flows = ordering.map_stage(cps::shift_stage(128, 1));
  const auto metrics = analyzer.analyze_stage(flows);
  // Cycle splices cost a couple of flows; demand at least K-2 on one link.
  EXPECT_GE(metrics.max_up_hsd, 6u);
}

TEST(LeafRandom, KeepsLeavesContiguous) {
  const Fabric fabric(topo::paper_cluster(128));  // 16 leaves of 8
  const auto ordering = NodeOrdering::leaf_random(fabric, 3);
  for (std::uint64_t r = 0; r < 128; r += 8) {
    const std::uint64_t leaf = ordering.host_of(r) / 8;
    for (std::uint64_t t = 0; t < 8; ++t) {
      EXPECT_EQ(ordering.host_of(r + t) / 8, leaf);  // same leaf
      EXPECT_EQ(ordering.host_of(r + t) % 8, t);     // in-leaf order kept
    }
  }
  std::set<std::uint64_t> hosts(ordering.hosts().begin(),
                                ordering.hosts().end());
  EXPECT_EQ(hosts.size(), 128u);
}

TEST(LeafRandom, PermutesLeavesForMostSeeds) {
  const Fabric fabric(topo::paper_cluster(128));
  const auto a = NodeOrdering::leaf_random(fabric, 1);
  const auto b = NodeOrdering::leaf_random(fabric, 2);
  bool differ = false;
  for (std::uint64_t r = 0; r < 128 && !differ; r += 8)
    differ = a.host_of(r) != b.host_of(r);
  EXPECT_TRUE(differ);
}

TEST(LeafInterleaved, RoundRobinsAcrossLeaves) {
  const Fabric fabric(topo::fig4b_pgft16());  // 4 leaves of 4
  const auto ordering = NodeOrdering::leaf_interleaved(fabric);
  // ranks 0..3 land on leaves 0..3 slot 0; ranks 4..7 on slot 1; etc.
  for (std::uint64_t r = 0; r < 16; ++r) {
    EXPECT_EQ(ordering.host_of(r) / 4, r % 4);
    EXPECT_EQ(ordering.host_of(r) % 4, r / 4);
  }
}

TEST(Adversarial, IsAPermutationOfAllHosts) {
  const Fabric fabric(topo::paper_cluster(324));
  const auto ordering = NodeOrdering::adversarial_ring(fabric);
  std::set<std::uint64_t> hosts(ordering.hosts().begin(),
                                ordering.hosts().end());
  EXPECT_EQ(hosts.size(), 324u);
}

}  // namespace
}  // namespace ftcf::order
