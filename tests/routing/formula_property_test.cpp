// Property tests of the D-Mod-K closed form itself (Eq. (1) and the lemmas
// of the appendix), independent of any traffic pattern.
#include <gtest/gtest.h>

#include <set>

#include "routing/dmodk.hpp"
#include "routing/trace.hpp"
#include "topology/presets.hpp"

namespace ftcf::route {
namespace {

using topo::Fabric;
using topo::PgftSpec;

std::vector<PgftSpec> sweep() {
  return {
      topo::fig4b_pgft16(),
      topo::rlft2_full(6),
      PgftSpec({6, 6}, {1, 3}, {1, 2}),
      topo::paper_cluster(324),
      PgftSpec({3, 3, 6}, {1, 3, 3}, {1, 1, 1}),
      PgftSpec({4, 2, 4}, {1, 2, 4}, {1, 2, 1}),  // parallel mid-level rails
  };
}

TEST(Eq1, LemmaTwoCyclicSpread) {
  // Lemma 2: any w_{l+1}p_{l+1} *consecutive* destinations map to all
  // distinct up-going ports (the cyclic, non-overlapping spread).
  for (const PgftSpec& spec : sweep()) {
    for (std::uint32_t l = 1; l < spec.height(); ++l) {
      const std::uint64_t ports = spec.up_ports_at_level(l);
      const std::uint64_t stride = spec.w_prefix_product(l);
      // Consecutive *routable* destinations at this level differ by the
      // divisor stride; check every aligned window.
      for (std::uint64_t base = 0; base + ports * stride <= spec.num_hosts();
           base += stride) {
        std::set<std::uint32_t> seen;
        for (std::uint64_t i = 0; i < ports; ++i)
          seen.insert(
              DModKRouter::up_port_formula(spec, l, base + i * stride));
        EXPECT_EQ(seen.size(), ports)
            << spec.to_string() << " level " << l << " base " << base;
      }
    }
  }
}

TEST(Eq1, PortIsPeriodicInDestination) {
  // q_l(j) depends on j only through floor(j / W_l) mod (w p): adding
  // W_l * w_{l+1} * p_{l+1} to j must not change the port.
  for (const PgftSpec& spec : sweep()) {
    for (std::uint32_t l = 1; l < spec.height(); ++l) {
      const std::uint64_t period =
          spec.w_prefix_product(l) * spec.up_ports_at_level(l);
      for (std::uint64_t j = 0; j + period < spec.num_hosts(); ++j) {
        EXPECT_EQ(DModKRouter::up_port_formula(spec, l, j),
                  DModKRouter::up_port_formula(spec, l, j + period))
            << spec.to_string();
      }
    }
  }
}

TEST(Eq1, DownRailNeverExceedsParallelism) {
  for (const PgftSpec& spec : sweep()) {
    for (std::uint32_t l = 1; l <= spec.height(); ++l) {
      for (std::uint64_t j = 0; j < spec.num_hosts(); ++j) {
        EXPECT_LT(DModKRouter::down_rail_formula(spec, l, j), spec.p(l))
            << spec.to_string();
      }
    }
  }
}

TEST(Lemma5, AllSourcesUseOnePeakPerDestination) {
  // Lemma 5 on instantiated fabrics with parallel ports: for every
  // destination, all sources' routes cross the same top-level switch.
  for (const PgftSpec& spec : sweep()) {
    const Fabric fabric(spec);
    const ForwardingTables tables = DModKRouter{}.compute(fabric);
    const std::uint64_t n = fabric.num_hosts();
    for (std::uint64_t d = 0; d < n; d += 3) {
      std::set<topo::NodeId> peaks;
      for (std::uint64_t s = 0; s < n; s += 2) {
        if (s == d) continue;
        for (const topo::PortId pid : trace_route(fabric, tables, s, d)) {
          const topo::NodeId at = fabric.port(pid).node;
          if (fabric.node(at).level == fabric.height()) peaks.insert(at);
        }
      }
      EXPECT_LE(peaks.size(), 1u)
          << spec.to_string() << " destination " << d;
    }
  }
}

TEST(Hops, MatchLcaDistance) {
  // Route length is exactly 2*lca(s,d) links: host->leaf, lca-1 up,
  // lca-1 down, leaf->host.
  const Fabric fabric(topo::paper_cluster(1944));
  const ForwardingTables tables = DModKRouter{}.compute(fabric);
  const auto lca_level = [&](std::uint64_t a, std::uint64_t b) {
    for (std::uint32_t pos = fabric.height(); pos >= 1; --pos)
      if (fabric.host_digit(a, pos) != fabric.host_digit(b, pos)) return pos;
    return 0u;
  };
  for (std::uint64_t s = 0; s < fabric.num_hosts(); s += 131) {
    for (std::uint64_t d = 1; d < fabric.num_hosts(); d += 97) {
      if (s == d) continue;
      const auto links = trace_route(fabric, tables, s, d);
      EXPECT_EQ(links.size(), 2ull * lca_level(s, d)) << s << " -> " << d;
    }
  }
}

}  // namespace
}  // namespace ftcf::route
