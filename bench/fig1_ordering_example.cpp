// Figure 1 reproduction: a 16-node, 2-level fat-tree running the traffic
// pattern  destination = (source + 4) mod 16.
//
// (a) With a random MPI node order, several leaf up-links carry two or more
//     flows — the paper's picture shows 3 hot links.
// (b) With the routing-aware (topology) order, every link carries exactly
//     one flow: congestion-free.
//
// The bench prints the per-leaf up-link loads for both orders (the row of
// numbers on top of Fig. 1) plus a sweep over random seeds showing how many
// hot links a random order produces on average.
#include <iostream>

#include "analysis/link_load.hpp"
#include "cps/generators.hpp"
#include "ordering/ordering.hpp"
#include "routing/dmodk.hpp"
#include "topology/presets.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace ftcf;

std::uint64_t hot_link_count(const analysis::HsdAnalyzer& analyzer,
                             const order::NodeOrdering& ordering,
                             const cps::Stage& stage,
                             const topo::Fabric& fabric,
                             std::vector<std::uint32_t>& loads) {
  analyzer.analyze_stage(ordering.map_stage(stage), &loads);
  std::uint64_t hot = 0;
  for (const auto& level : analysis::per_level_loads(fabric, loads))
    hot += level.hot_links;
  return hot;
}

int run_main(int argc, char** argv) {
  util::Cli cli("fig1_ordering_example",
                "Fig. 1: routing-aware node order removes the hot spots of "
                "dst = (src + 4) mod 16");
  cli.add_option("seed", "random-order seed shown in detail", "3");
  cli.add_option("trials", "random orders for the summary sweep", "100");
  cli.add_flag("csv", "emit CSV instead of aligned tables");
  if (!cli.parse(argc, argv)) return 0;

  const topo::Fabric fabric(topo::fig4b_pgft16());
  const route::ForwardingTables tables = route::DModKRouter{}.compute(fabric);
  const analysis::HsdAnalyzer analyzer(fabric, tables);
  const cps::Stage stage = cps::shift_stage(fabric.num_hosts(), 4);

  std::vector<std::uint32_t> loads;

  std::cout << "Topology: " << fabric.spec().to_string()
            << "  (16 nodes, 4 leaves, 2 spines, D-Mod-K routing)\n"
            << "Pattern:  dst = (src + 4) mod 16\n\n";

  const auto random_order =
      order::NodeOrdering::random(fabric, cli.uinteger("seed"));
  const auto topo_order = order::NodeOrdering::topology(fabric);

  std::cout << "(a) random MPI node order (seed " << cli.uinteger("seed")
            << ") — leaf up-link flow counts:\n";
  analyzer.analyze_stage(random_order.map_stage(stage), &loads);
  std::cout << analysis::render_leaf_up_loads(fabric, loads);
  const auto random_metrics =
      analyzer.analyze_stage(random_order.map_stage(stage));

  std::cout << "\n(b) routing-aware MPI node order — leaf up-link flow counts:\n";
  analyzer.analyze_stage(topo_order.map_stage(stage), &loads);
  std::cout << analysis::render_leaf_up_loads(fabric, loads);
  const auto topo_metrics = analyzer.analyze_stage(topo_order.map_stage(stage));

  util::Table table({"ordering", "max HSD", "hot links (load > 1)"});
  table.set_title("\nFig. 1 summary");
  table.add_row({"random", std::to_string(random_metrics.max_hsd),
                 std::to_string(hot_link_count(analyzer, random_order, stage,
                                               fabric, loads))});
  table.add_row({"routing-aware", std::to_string(topo_metrics.max_hsd),
                 std::to_string(hot_link_count(analyzer, topo_order, stage,
                                               fabric, loads))});

  // Sweep: how typical is the picture in (a)?
  util::Accumulator hot_links;
  const std::uint32_t trials = cli.positive_u32("trials");
  for (std::uint32_t t = 0; t < trials; ++t) {
    const auto ordering = order::NodeOrdering::random(fabric, 1000 + t);
    hot_links.add(static_cast<double>(
        hot_link_count(analyzer, ordering, stage, fabric, loads)));
  }

  if (cli.flag("csv")) table.print_csv(std::cout);
  else table.print(std::cout);

  std::cout << "\nAcross " << trials << " random orders: " << std::fixed
            << hot_links.mean() << " hot links on average (min "
            << hot_links.min() << ", max " << hot_links.max()
            << "); the paper's example shows 3.\n"
            << "Routing-aware order always yields 0 hot links (HSD = 1).\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ftcf::util::guarded_main(argc, argv, run_main);
}
