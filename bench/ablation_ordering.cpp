// Ablation C: how much of the result is the node ordering?
//
// Fix D-Mod-K routing and sweep placement policies, from the paper's
// topology order to schemes real schedulers produce: whole-leaf grants in
// random order, round-robin spreading, fully random ranks, and the §II
// adversarial order. Reported: static HSD of the Shift CPS and measured
// bandwidth of one synchronized Ring stage in the packet simulator.
#include <iostream>

#include "check/certify.hpp"
#include "cps/generators.hpp"
#include "obs/cli.hpp"
#include "routing/dmodk.hpp"
#include "sim/packet_sim.hpp"
#include "topology/obs_names.hpp"
#include "topology/presets.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"
#include "util/table.hpp"

namespace {

int run_main(int argc, char** argv) {
  using namespace ftcf;

  util::Cli cli("ablation_ordering",
                "node-ordering ablation under fixed D-Mod-K routing");
  cli.add_option("nodes", "cluster size preset", "1944");
  cli.add_option("kib", "ring message size in KiB", "256");
  cli.add_option("seed", "randomized-placement seed", "17");
  cli.add_flag("csv", "CSV output");
  obs::ObsCli::add_options(cli);
  cli.add_option("threads", "worker threads (0 = all cores)", "0");
  if (!cli.parse(argc, argv)) return 0;
  par::set_default_threads(static_cast<std::uint32_t>(cli.uinteger("threads")));
  obs::ObsCli obs_cli(cli);

  const topo::Fabric fabric(topo::paper_cluster(cli.uinteger("nodes")));
  const auto tables = route::DModKRouter{}.compute(fabric);
  sim::PacketSim psim(fabric, tables);
  psim.set_observer(obs_cli.observer());
  const std::uint64_t n = fabric.num_hosts();
  const std::uint64_t seed = cli.uinteger("seed");
  const cps::Sequence shift_seq = cps::shift(n);
  const cps::Sequence ring_seq = cps::ring(n);
  const std::uint64_t bytes = cli.kib_bytes("kib");

  struct Policy {
    const char* name;
    order::NodeOrdering ordering;
  };
  const Policy policies[] = {
      {"topology (paper)", order::NodeOrdering::topology(fabric)},
      {"whole leaves, random order",
       order::NodeOrdering::leaf_random(fabric, seed)},
      {"round-robin across leaves",
       order::NodeOrdering::leaf_interleaved(fabric)},
      {"fully random", order::NodeOrdering::random(fabric, seed)},
      {"adversarial (§II)", order::NodeOrdering::adversarial_ring(fabric)},
  };

  util::Table table({"placement", "shift avg HSD", "shift worst HSD",
                     "ring stage BW (sim)"});
  table.set_title("Ordering ablation on " + fabric.spec().to_string() +
                  ", D-Mod-K routing fixed");

  for (const Policy& policy : policies) {
    const auto metrics = check::summarize(check::certify_contention_freedom(
        fabric, tables, policy.ordering, shift_seq));
    const auto result =
        psim.run(sim::traffic_from_cps(ring_seq, policy.ordering, n, bytes),
                 sim::Progression::kSynchronized);
    table.add_row({policy.name, util::fmt_double(metrics.avg_max_hsd, 2),
                   std::to_string(metrics.worst_stage_hsd),
                   util::fmt_ratio_percent(result.normalized_bw)});
  }

  if (cli.flag("csv")) table.print_csv(std::cout);
  else table.print(std::cout);
  std::cout
      << "\nFindings (3-level fabric): locality alone is not enough — whole-"
         "leaf grants in\nrandom order congest (and on 2-level fabrics they "
         "happen to survive; try --nodes 324).\nRound-robin interleaving "
         "survives because it is itself a rotation of the tree order,\n"
         "preserving the cyclic arithmetic D-Mod-K spreads. Random and "
         "adversarial ranks lose\n4-14x of the bandwidth.\n";
  obs_cli.finish(topo::trace_naming(fabric));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ftcf::util::guarded_main(argc, argv, run_main);
}
