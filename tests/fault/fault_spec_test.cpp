// FaultSpec grammar and FaultState resolution: round-trips, typed parse
// errors, alias resolution and deterministic random sampling.
#include "fault/fault_spec.hpp"

#include <gtest/gtest.h>

#include "fault/degraded.hpp"
#include "topology/presets.hpp"
#include "util/error.hpp"

namespace ftcf::fault {
namespace {

using topo::Fabric;

Fabric fig4b() { return Fabric(topo::fig4b_pgft16()); }

TEST(FaultSpecParse, EmptyTextIsPristine) {
  const FaultSpec spec = parse_faults("");
  EXPECT_TRUE(spec.empty());
  EXPECT_EQ(spec.to_string(), "");
}

TEST(FaultSpecParse, RoundTripsEveryKind) {
  const std::string text =
      "link:S1_0:4,switch:spine1,rate:leaf0:2:0.5,flap:S1_1:5:50:200,"
      "rand-links:3:7";
  const FaultSpec spec = parse_faults(text);
  ASSERT_EQ(spec.faults.size(), 5u);
  EXPECT_EQ(spec.faults[0].kind, FaultKind::kLinkDown);
  EXPECT_EQ(spec.faults[1].kind, FaultKind::kSwitchDown);
  EXPECT_EQ(spec.faults[2].kind, FaultKind::kDegradedRate);
  EXPECT_EQ(spec.faults[3].kind, FaultKind::kLinkFlap);
  EXPECT_EQ(spec.faults[4].kind, FaultKind::kRandomLinks);
  EXPECT_EQ(spec.to_string(), text);
  // Parse(to_string()) is the identity once more.
  EXPECT_EQ(parse_faults(spec.to_string()).to_string(), text);
}

TEST(FaultSpecParse, FlapTimesAreMicrosecondsScaledToNs) {
  const FaultSpec spec = parse_faults("flap:S1_0:4:50:200");
  ASSERT_EQ(spec.faults.size(), 1u);
  EXPECT_EQ(spec.faults[0].down_at, 50'000);
  EXPECT_EQ(spec.faults[0].up_at, 200'000);
  EXPECT_EQ(parse_faults("flap:S1_0:4:50").faults[0].up_at, sim::kNever);
}

struct BadSpec {
  const char* label;
  const char* text;
};

// Print the label, so test names never carry pointer bytes.
void PrintTo(const BadSpec& c, std::ostream* os) { *os << c.label; }

class MalformedFaults : public ::testing::TestWithParam<BadSpec> {};

INSTANTIATE_TEST_SUITE_P(
    Table, MalformedFaults,
    ::testing::Values(
        BadSpec{"unknown_kind", "meteor:leaf0"},
        BadSpec{"trailing_comma", "switch:spine0,"},
        BadSpec{"empty_entry", "switch:spine0,,link:S1_0:4"},
        BadSpec{"link_missing_port", "link:S1_0"},
        BadSpec{"link_port_not_a_number", "link:S1_0:four"},
        BadSpec{"link_extra_field", "link:S1_0:4:9"},
        BadSpec{"switch_empty_name", "switch:"},
        BadSpec{"rate_factor_zero", "rate:leaf0:2:0"},
        BadSpec{"rate_factor_above_one", "rate:leaf0:2:1.5"},
        BadSpec{"rate_factor_garbage", "rate:leaf0:2:fast"},
        BadSpec{"flap_revive_before_death", "flap:S1_0:4:200:50"},
        BadSpec{"rand_links_zero_count", "rand-links:0:7"},
        BadSpec{"rand_links_bad_seed", "rand-links:3:lucky"}),
    [](const auto& param_info) { return param_info.param.label; });

TEST_P(MalformedFaults, ThrowsTypedParseError) {
  EXPECT_THROW((void)parse_faults(GetParam().text), util::ParseError);
}

TEST(FaultStateResolve, AliasesNameTheSameSwitch) {
  const Fabric fabric = fig4b();
  // leaf0 == L1_S0 == its fabric name; spine0 is a top-level switch.
  const topo::NodeId leaf = FaultState::resolve_node(fabric, "leaf0");
  EXPECT_EQ(FaultState::resolve_node(fabric, "L1_S0"), leaf);
  EXPECT_EQ(FaultState::resolve_node(fabric, fabric.node_name(leaf)), leaf);
  EXPECT_EQ(fabric.node(leaf).level, 1u);
  const topo::NodeId spine = FaultState::resolve_node(fabric, "spine0");
  EXPECT_EQ(fabric.node(spine).level, fabric.height());
  EXPECT_THROW((void)FaultState::resolve_node(fabric, "nebula7"),
               util::SpecError);
}

TEST(FaultStateResolve, CableKillsBothDirections) {
  const Fabric fabric = fig4b();
  const FaultState state(fabric, parse_faults("link:S1_0:4"));
  EXPECT_EQ(state.cables_down(), 1u);
  const topo::NodeId leaf = FaultState::resolve_node(fabric, "leaf0");
  const topo::PortId out = fabric.port_id(leaf, 4);
  EXPECT_FALSE(state.link_up(out));
  EXPECT_FALSE(state.link_up(fabric.port(out).peer));
  EXPECT_FALSE(state.pristine());
}

TEST(FaultStateResolve, DeadSwitchKillsAllItsCables) {
  const Fabric fabric = fig4b();
  const FaultState state(fabric, parse_faults("switch:spine0"));
  EXPECT_EQ(state.switches_down(), 1u);
  const topo::NodeId spine = FaultState::resolve_node(fabric, "spine0");
  EXPECT_FALSE(state.node_up(spine));
  const topo::Node& n = fabric.node(spine);
  EXPECT_EQ(state.cables_down(), n.num_down_ports + n.num_up_ports);
}

TEST(FaultStateResolve, HostCableMarksTheHostDown) {
  const Fabric fabric = fig4b();
  const FaultState state(fabric, parse_faults("link:H3:0"));
  EXPECT_FALSE(state.host_up(3));
  EXPECT_TRUE(state.host_up(2));
  EXPECT_EQ(state.surviving_hosts().size(), 15u);
}

TEST(FaultStateResolve, FlapsAreNotStaticallyDown) {
  const Fabric fabric = fig4b();
  const FaultState state(fabric, parse_faults("flap:S1_0:4:50:200"));
  EXPECT_FALSE(state.pristine());
  EXPECT_EQ(state.cables_down(), 0u);
  ASSERT_EQ(state.flaps().size(), 1u);
  EXPECT_EQ(state.flaps()[0].down_at, 50'000);
  const topo::PortId flapped = state.flaps()[0].port;
  EXPECT_TRUE(state.link_up(flapped));  // static routing sees it healthy
}

TEST(FaultStateResolve, RandomLinksAreSeedReproducible) {
  const Fabric fabric = fig4b();
  const FaultState a(fabric, parse_faults("rand-links:3:42"));
  const FaultState b(fabric, parse_faults("rand-links:3:42"));
  const FaultState c(fabric, parse_faults("rand-links:3:43"));
  EXPECT_EQ(a.cables_down(), 3u);
  std::vector<bool> down_a, down_b, down_c;
  for (std::uint64_t p = 0; p < fabric.num_ports(); ++p) {
    down_a.push_back(!a.link_up(static_cast<topo::PortId>(p)));
    down_b.push_back(!b.link_up(static_cast<topo::PortId>(p)));
    down_c.push_back(!c.link_up(static_cast<topo::PortId>(p)));
  }
  EXPECT_EQ(down_a, down_b);
  EXPECT_NE(down_a, down_c);
}

TEST(FaultStateResolve, RejectsBadTargets) {
  const Fabric fabric = fig4b();
  // Unknown node, out-of-range port, switch fault aimed at a host.
  EXPECT_THROW(FaultState(fabric, parse_faults("link:S9_9:0")),
               util::SpecError);
  EXPECT_THROW(FaultState(fabric, parse_faults("link:leaf0:99")),
               util::SpecError);
  EXPECT_THROW(FaultState(fabric, parse_faults("switch:H0")),
               util::SpecError);
}

TEST(FaultStateResolve, DegradedRateIsPerDirection) {
  const Fabric fabric = fig4b();
  const FaultState state(fabric, parse_faults("rate:leaf0:4:0.25"));
  EXPECT_EQ(state.cables_degraded(), 1u);
  const topo::NodeId leaf = FaultState::resolve_node(fabric, "leaf0");
  const topo::PortId out = fabric.port_id(leaf, 4);
  EXPECT_DOUBLE_EQ(state.rate_factor(out), 0.25);
  EXPECT_DOUBLE_EQ(state.rate_factor(fabric.port(out).peer), 0.25);
  EXPECT_TRUE(state.link_up(out));  // degraded, not dead
}

}  // namespace
}  // namespace ftcf::fault
