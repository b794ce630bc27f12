// Ablation A: how much of the result is the routing algorithm?
//
// Fix the MPI node order to the topology order and swap the router:
// D-Mod-K (paper), OpenSM-style min-hop up/down with greedy balancing, and
// deterministic random up-port selection. Only D-Mod-K aligns the up-port
// choice with the shift structure, so only it reaches HSD 1 on every stage —
// ordering alone is not enough (§I: "it is the combination of the two
// worlds").
#include <iostream>

#include "check/certify.hpp"
#include "core/grouped_rd.hpp"
#include "cps/generators.hpp"
#include "routing/router.hpp"
#include "topology/presets.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"
#include "util/table.hpp"

namespace {

int run_main(int argc, char** argv) {
  using namespace ftcf;

  util::Cli cli("ablation_routing",
                "routing ablation: D-Mod-K vs up/down vs random, topology "
                "order fixed");
  cli.add_option("sizes", "cluster size presets", "324,1944");
  cli.add_option("seed", "random router seed", "5");
  cli.add_flag("csv", "CSV output");
  cli.add_option("threads", "worker threads (0 = all cores)", "0");
  if (!cli.parse(argc, argv)) return 0;
  par::set_default_threads(static_cast<std::uint32_t>(cli.uinteger("threads")));

  util::Table table({"fabric", "router", "shift avg HSD", "shift worst HSD",
                     "grouped-RD avg HSD", "grouped-RD worst HSD"});
  table.set_title(
      "Routing ablation (node order fixed to topology order everywhere)");

  for (const std::uint64_t nodes : cli.uint_list("sizes")) {
    const topo::Fabric fabric(topo::paper_cluster(nodes));
    const auto ordering = order::NodeOrdering::topology(fabric);
    const cps::Sequence shift_seq = cps::shift(fabric.num_hosts());
    const cps::Sequence grd_seq = core::grouped_recursive_doubling(fabric);

    for (const route::RouterKind kind :
         {route::RouterKind::kDModK, route::RouterKind::kUpDown,
          route::RouterKind::kRandom}) {
      const auto router = route::make_router(kind, cli.uinteger("seed"));
      const auto tables = router->compute(fabric);
      const auto shift_metrics = check::summarize(
          check::certify_contention_freedom(fabric, tables, ordering,
                                            shift_seq));
      const auto grd_metrics = check::summarize(
          check::certify_contention_freedom(fabric, tables, ordering, grd_seq));
      table.add_row({fabric.spec().to_string(), router->name(),
                     util::fmt_double(shift_metrics.avg_max_hsd, 2),
                     std::to_string(shift_metrics.worst_stage_hsd),
                     util::fmt_double(grd_metrics.avg_max_hsd, 2),
                     std::to_string(grd_metrics.worst_stage_hsd)});
    }
  }

  if (cli.flag("csv")) table.print_csv(std::cout);
  else table.print(std::cout);
  std::cout
      << "\nOnly D-Mod-K reads 1.00 on every fabric. Two findings:\n"
         "  * on 2-level RLFTs, greedy destination-order min-hop balancing "
         "coincides with\n    D-Mod-K (the arithmetic destination subsequences "
         "make round-robin == mod-k);\n"
         "  * on 3-level fabrics that alignment collapses (worst HSD = K!) — "
         "up/down can be\n    *worse* than random because its collisions are "
         "systematic, not spread.\n"
         "Routing and ordering must be designed together (§I).\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ftcf::util::guarded_main(argc, argv, run_main);
}
