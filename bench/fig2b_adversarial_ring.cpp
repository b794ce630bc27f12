// §II adversarial-order experiment: a Ring permutation under a node order
// constructed so that every leaf switch funnels all its flows through a
// single up-going link. The paper measures 231.5 MB/s effective bandwidth —
// 7.1% of nominal — against QDR links oversubscribed 18x.
//
// This bench reproduces the experiment on the 2-level 648-node RLFT of
// 36-port switches (worst oversubscription = K = 18) and contrasts it with
// random and topology orders.
#include <iostream>

#include "cps/generators.hpp"
#include "obs/cli.hpp"
#include "routing/dmodk.hpp"
#include "sim/packet_sim.hpp"
#include "topology/obs_names.hpp"
#include "topology/presets.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

int run_main(int argc, char** argv) {
  using namespace ftcf;

  util::Cli cli("fig2b_adversarial_ring",
                "§II: Ring permutation under adversarial node order "
                "(92.9% bandwidth loss)");
  cli.add_option("nodes", "cluster size preset (2-level)", "648");
  cli.add_option("kib", "message size in KiB", "1024");
  cli.add_option("seed", "random-order seed", "7");
  cli.add_option("partitions",
                 "packet-engine partitions (PDES; same results): 1 = serial, "
                 "0 = one per thread",
                 "1");
  cli.add_flag("csv", "CSV output");
  obs::ObsCli::add_options(cli);
  if (!cli.parse(argc, argv)) return 0;
  obs::ObsCli obs_cli(cli);

  const topo::Fabric fabric(topo::paper_cluster(cli.uinteger("nodes")));
  const auto tables = route::DModKRouter{}.compute(fabric);
  sim::PacketSim psim(fabric, tables);
  psim.set_observer(obs_cli.observer());
  psim.set_partitions(
      cli.uinteger("partitions") == 0
          ? par::default_threads()
          : static_cast<std::uint32_t>(cli.uinteger("partitions")));
  const std::uint64_t n = fabric.num_hosts();
  const std::uint64_t bytes = cli.uinteger("kib") * 1024;
  const cps::Sequence ring = cps::ring(n);
  const sim::Calibration calib;

  util::Table table(
      {"node order", "eff. BW per host", "normalized", "vs paper"});
  table.set_title("Ring permutation, " + fabric.spec().to_string() + ", " +
                  util::fmt_bytes(bytes) + " messages");

  const auto run = [&](const order::NodeOrdering& ordering) {
    const auto traffic = sim::traffic_from_cps(ring, ordering, n, bytes);
    return psim.run(traffic, sim::Progression::kSynchronized);
  };

  struct Case {
    const char* name;
    order::NodeOrdering ordering;
    const char* paper_note;
  };
  const Case cases[] = {
      {"adversarial", order::NodeOrdering::adversarial_ring(fabric),
       "paper: 231.5 MB/s = 7.1%"},
      {"random", order::NodeOrdering::random(fabric, cli.uinteger("seed")),
       "paper: ~60% for large msgs"},
      {"topology (D-Mod-K aware)", order::NodeOrdering::topology(fabric),
       "paper: full bandwidth"},
  };
  for (const Case& c : cases) {
    const auto result = run(c.ordering);
    const double mbps = result.effective_bw_per_host / 1e6;
    table.add_row({c.name, util::fmt_double(mbps, 1) + " MB/s",
                   util::fmt_ratio_percent(result.normalized_bw),
                   c.paper_note});
  }

  if (cli.flag("csv")) table.print_csv(std::cout);
  else table.print(std::cout);
  std::cout << "\nWorst possible oversubscription on this fabric: K = "
            << fabric.spec().arity() << " flows per leaf up-link\n"
            << "(4000 MB/s link / " << fabric.spec().arity() << " = "
            << util::fmt_double(4000.0 / fabric.spec().arity(), 1)
            << " MB/s per flow; the paper reports 231.5 MB/s).\n";
  obs_cli.finish(topo::trace_naming(fabric));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ftcf::util::guarded_main(argc, argv, run_main);
}
