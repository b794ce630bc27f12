#include "topology/presets.hpp"

#include <gtest/gtest.h>

#include "util/expects.hpp"

#include "util/error.hpp"

namespace ftcf::topo {
namespace {

TEST(Presets, PaperClusterSizes) {
  EXPECT_EQ(paper_cluster(16).num_hosts(), 16u);
  EXPECT_EQ(paper_cluster(128).num_hosts(), 128u);
  EXPECT_EQ(paper_cluster(324).num_hosts(), 324u);
  EXPECT_EQ(paper_cluster(648).num_hosts(), 648u);
  EXPECT_EQ(paper_cluster(1728).num_hosts(), 1728u);
  EXPECT_EQ(paper_cluster(1944).num_hosts(), 1944u);
  EXPECT_EQ(paper_cluster(11664).num_hosts(), 11664u);
  // 324: 18 leaves under 9 dual-ported spines.
  EXPECT_EQ(paper_cluster(324).p(2), 2u);
  EXPECT_EQ(paper_cluster(324).nodes_at_level(2), 9u);
}

TEST(Presets, UnknownSizeThrows) {
  EXPECT_THROW(paper_cluster(1000), util::SpecError);
}

TEST(Presets, PaperClustersAreRlfts) {
  for (const std::uint64_t n : {128ull, 324ull, 648ull, 1728ull, 1944ull,
                                11664ull}) {
    const PgftSpec spec = paper_cluster(n);
    EXPECT_TRUE(spec.has_constant_cbb()) << spec.to_string();
    EXPECT_TRUE(spec.has_single_cable_hosts()) << spec.to_string();
    EXPECT_TRUE(spec.is_rlft()) << spec.to_string();
  }
}

TEST(Presets, Fig4VariantsDescribeSameHosts) {
  EXPECT_EQ(fig4a_xgft16().num_hosts(), fig4b_pgft16().num_hosts());
  // XGFT needs 4 spines; the PGFT needs 2 (the point of Fig. 4).
  EXPECT_EQ(fig4a_xgft16().nodes_at_level(2), 4u);
  EXPECT_EQ(fig4b_pgft16().nodes_at_level(2), 2u);
}

TEST(Presets, Rlft2FullMatchesDirectorDimensions) {
  const PgftSpec spec = rlft2_full(18);
  EXPECT_EQ(spec.num_hosts(), 648u);
  EXPECT_EQ(spec.nodes_at_level(1), 36u);
  EXPECT_EQ(spec.nodes_at_level(2), 18u);
  // Every switch uses all 36 ports.
  EXPECT_EQ(spec.down_ports_at_level(1) + spec.up_ports_at_level(1), 36u);
  EXPECT_EQ(spec.down_ports_at_level(2), 36u);
}

TEST(Presets, Rlft3TopBounds) {
  EXPECT_EQ(rlft3_top(18, 6).num_hosts(), 1944u);
  EXPECT_THROW(rlft3_top(18, 37), util::PreconditionError);
}

}  // namespace
}  // namespace ftcf::topo
