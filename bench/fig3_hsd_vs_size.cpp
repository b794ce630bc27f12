// Figure 3 reproduction: average maximal Hot-Spot-Degree vs cluster size for
// the Binomial, Butterfly (recursive doubling), Dissemination, Ring, Shift
// and Tournament collectives under random MPI node order — averaged over 25
// random orders, with min/max across orders as error bars (paper §II).
//
// Expected shape: Ring, Shift and Butterfly grow steeply with cluster size;
// Binomial and Tournament stay low (few concurrent pairs per stage).
#include <iostream>

#include "analysis/hsd.hpp"
#include "cps/generators.hpp"
#include "routing/dmodk.hpp"
#include "topology/presets.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

int run_main(int argc, char** argv) {
  using namespace ftcf;

  util::Cli cli("fig3_hsd_vs_size",
                "Fig. 3: average max HSD vs cluster size, 25 random orders");
  cli.add_option("sizes", "cluster sizes", "128,324,1728,1944");
  cli.add_option("trials", "random node orders per point", "25");
  cli.add_option("seed", "base seed", "100");
  cli.add_option("threads", "worker threads (0 = all cores)", "0");
  cli.add_flag("csv", "CSV output");
  if (!cli.parse(argc, argv)) return 0;
  par::set_default_threads(static_cast<std::uint32_t>(cli.uinteger("threads")));

  const std::uint32_t trials =
      static_cast<std::uint32_t>(cli.uinteger("trials"));
  const cps::CpsKind kinds[] = {
      cps::CpsKind::kBinomial,     cps::CpsKind::kRecursiveDoubling,
      cps::CpsKind::kDissemination, cps::CpsKind::kRing,
      cps::CpsKind::kShift,        cps::CpsKind::kTournament,
  };

  util::Table table({"nodes", "collective", "avg max HSD", "min", "max"});
  table.set_title(
      "Fig. 3 — avg of per-stage max HSD, over " + std::to_string(trials) +
      " random orders (butterfly = recursive doubling)");

  for (const std::uint64_t nodes : cli.uint_list("sizes")) {
    const topo::Fabric fabric(topo::paper_cluster(nodes));
    const auto tables = route::DModKRouter{}.compute(fabric);
    for (const cps::CpsKind kind : kinds) {
      const cps::Sequence seq = cps::generate(kind, fabric.num_hosts());
      const util::Accumulator acc = analysis::random_order_hsd_ensemble(
          fabric, tables, seq, trials, cli.uinteger("seed"));
      const std::string name = kind == cps::CpsKind::kRecursiveDoubling
                                   ? "butterfly"
                                   : cps::cps_name(kind);
      table.add_row({std::to_string(nodes), name,
                     util::fmt_double(acc.mean(), 2),
                     util::fmt_double(acc.min(), 2),
                     util::fmt_double(acc.max(), 2)});
      util::log_info("fig3: ", nodes, " ", name, " mean=",
                     util::fmt_double(acc.mean(), 2));
    }
  }

  if (cli.flag("csv")) table.print_csv(std::cout);
  else table.print(std::cout);
  std::cout << "\nPaper shape check: ring/shift/butterfly grow quickly with "
               "size; binomial and\ntournament stay near 1-2. With topology "
               "order + D-Mod-K all of these are exactly 1\n(see "
               "table3_hsd_cases).\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ftcf::util::guarded_main(argc, argv, run_main);
}
