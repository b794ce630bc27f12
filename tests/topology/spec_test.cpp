#include "topology/spec.hpp"

#include <gtest/gtest.h>

#include "util/expects.hpp"

#include "util/error.hpp"

namespace ftcf::topo {
namespace {

TEST(PgftSpec, CountsForPaperFig4b) {
  // PGFT(2; 4,4; 1,2; 1,2): 16 hosts, 4 leaves, 2 spines.
  const PgftSpec spec({4, 4}, {1, 2}, {1, 2});
  EXPECT_EQ(spec.height(), 2u);
  EXPECT_EQ(spec.num_hosts(), 16u);
  EXPECT_EQ(spec.nodes_at_level(0), 16u);
  EXPECT_EQ(spec.nodes_at_level(1), 4u);
  EXPECT_EQ(spec.nodes_at_level(2), 2u);
  EXPECT_EQ(spec.up_ports_at_level(0), 1u);
  EXPECT_EQ(spec.up_ports_at_level(1), 4u);   // w2*p2 = 2*2
  EXPECT_EQ(spec.up_ports_at_level(2), 0u);
  EXPECT_EQ(spec.down_ports_at_level(1), 4u);
  EXPECT_EQ(spec.down_ports_at_level(2), 8u);  // m2*p2 = 4*2
}

TEST(PgftSpec, PrefixProducts) {
  const PgftSpec spec({18, 18, 36}, {1, 18, 18}, {1, 1, 1});
  EXPECT_EQ(spec.w_prefix_product(0), 1u);
  EXPECT_EQ(spec.w_prefix_product(1), 1u);
  EXPECT_EQ(spec.w_prefix_product(2), 18u);
  EXPECT_EQ(spec.w_prefix_product(3), 324u);
  EXPECT_EQ(spec.m_prefix_product(3), 11664u);
}

TEST(PgftSpec, RlftChecks) {
  const PgftSpec max3(
      {18, 18, 36}, {1, 18, 18}, {1, 1, 1});  // paper's maximal 3-level
  EXPECT_TRUE(max3.has_constant_cbb());
  EXPECT_TRUE(max3.has_single_cable_hosts());
  EXPECT_TRUE(max3.has_constant_arity());
  EXPECT_TRUE(max3.is_rlft());
  EXPECT_EQ(max3.arity(), 18u);

  const PgftSpec bad_cbb({4, 4}, {1, 1}, {1, 1});  // 2:1 oversubscribed
  EXPECT_FALSE(bad_cbb.has_constant_cbb());
  EXPECT_FALSE(bad_cbb.is_rlft());

  const PgftSpec dual_rail({4, 4}, {2, 4}, {2, 2});
  EXPECT_FALSE(dual_rail.has_single_cable_hosts());
}

TEST(PgftSpec, XgftFactoryHasUnitParallelism) {
  const PgftSpec xg = PgftSpec::xgft({4, 4}, {1, 4});
  EXPECT_EQ(xg.p(1), 1u);
  EXPECT_EQ(xg.p(2), 1u);
  EXPECT_EQ(xg.num_hosts(), 16u);
}

TEST(PgftSpec, RejectsMalformedTuples) {
  EXPECT_THROW(PgftSpec({}, {}, {}), util::SpecError);
  EXPECT_THROW(PgftSpec({4}, {1, 2}, {1}), util::SpecError);
  EXPECT_THROW(PgftSpec({0, 4}, {1, 2}, {1, 1}), util::SpecError);
  EXPECT_THROW(PgftSpec({1 << 17, 1 << 17, 4}, {1, 1, 1}, {1, 1, 1}),
               util::SpecError);
}

TEST(PgftSpec, ToStringRoundTrips) {
  const PgftSpec spec({4, 4}, {1, 2}, {1, 2});
  EXPECT_EQ(spec.to_string(), "PGFT(2; 4,4; 1,2; 1,2)");
  EXPECT_EQ(parse_pgft(spec.to_string()), spec);
}

TEST(PgftSpec, ParsesXgftText) {
  const PgftSpec parsed = parse_pgft("XGFT(2; 4,4; 1,4)");
  EXPECT_EQ(parsed, PgftSpec::xgft({4, 4}, {1, 4}));
}

TEST(PgftSpec, ParseRejectsGarbage) {
  EXPECT_THROW(parse_pgft("PGFT"), util::ParseError);
  EXPECT_THROW(parse_pgft("PGFT(2; 4,4; 1,2)"), util::ParseError);
  EXPECT_THROW(parse_pgft("PGFT(2; 4,x; 1,2; 1,1)"), util::ParseError);
  EXPECT_THROW(parse_pgft("PGFT(3; 4,4; 1,2; 1,1)"), util::ParseError);
}

TEST(PgftSpec, LevelAccessorsValidateRange) {
  const PgftSpec spec({4, 4}, {1, 2}, {1, 2});
  EXPECT_THROW((void)spec.m(0), util::PreconditionError);
  EXPECT_THROW((void)spec.m(3), util::PreconditionError);
  EXPECT_THROW((void)spec.down_ports_at_level(0), util::PreconditionError);
}

}  // namespace
}  // namespace ftcf::topo
