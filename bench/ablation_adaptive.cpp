// Ablation D: proactive (the paper) vs reactive (adaptive routing).
//
// §I argues against adaptive routing twice: it reacts only *after* a hot
// spot has formed (losing throughput during adaptation), and it reorders
// packets, which transports like InfiniBand Reliable Connected cannot
// accept. This bench runs the same workloads under
//
//   * D-Mod-K + topology order      (proactive, the paper's proposal),
//   * D-Mod-K + random order        (the §II baseline),
//   * adaptive up-ports + random order  (reactive repair of the same mess),
//
// and reports both bandwidth and the packet reordering adaptivity caused.
#include <iostream>

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

  util::Cli cli("ablation_adaptive",
                "proactive D-Mod-K vs reactive adaptive routing");
  cli.add_option("nodes", "cluster size preset", "324");
  cli.add_option("kib", "message size in KiB", "128");
  cli.add_option("stages", "shift stages sampled", "24");
  cli.add_option("seed", "random-order seed", "2011");
  cli.add_flag("csv", "CSV output");
  obs::ObsCli::add_options(cli);
  cli.add_option("threads", "worker threads (0 = all cores)", "0");
  if (!cli.parse(argc, argv)) return 0;
  par::set_default_threads(static_cast<std::uint32_t>(cli.uinteger("threads")));
  obs::ObsCli obs_cli(cli);

  const topo::Fabric fabric(topo::paper_cluster(cli.uinteger("nodes")));
  const auto tables = route::DModKRouter{}.compute(fabric);
  const std::uint64_t n = fabric.num_hosts();
  const std::uint64_t bytes = cli.uinteger("kib") * 1024;

  const auto topo_order = order::NodeOrdering::topology(fabric);
  const auto rand_order =
      order::NodeOrdering::random(fabric, cli.uinteger("seed"));

  const cps::Sequence shift_seq = cps::shift(n);
  std::vector<std::size_t> sample;
  const std::size_t want = cli.uinteger("stages");
  for (std::size_t i = 0; i < want; ++i)
    sample.push_back(1 + i * (shift_seq.num_stages() - 1) / want);

  const auto topo_traffic =
      sim::traffic_from_cps(shift_seq, topo_order, n, bytes, &sample);
  const auto rand_traffic =
      sim::traffic_from_cps(shift_seq, rand_order, n, bytes, &sample);

  struct Config {
    const char* name;
    const std::vector<sim::StageTraffic>* traffic;
    sim::UpSelection selection;
  };
  const Config configs[] = {
      {"D-Mod-K + topology order (proactive)", &topo_traffic,
       sim::UpSelection::kDeterministic},
      {"D-Mod-K + random order", &rand_traffic,
       sim::UpSelection::kDeterministic},
      {"adaptive up-ports + random order (reactive)", &rand_traffic,
       sim::UpSelection::kAdaptive},
      {"adaptive up-ports + topology order", &topo_traffic,
       sim::UpSelection::kAdaptive},
  };

  util::Table table({"configuration", "normalized BW", "out-of-order packets",
                     "avg msg latency"});
  table.set_title("Shift CPS (sampled) on " + fabric.spec().to_string() +
                  ", " + util::fmt_bytes(bytes) + " messages, async");

  for (const Config& config : configs) {
    sim::PacketSim psim(fabric, tables);
    psim.set_observer(obs_cli.observer());
    psim.set_up_selection(config.selection);
    const auto result =
        psim.run(*config.traffic, sim::Progression::kAsync);
    table.add_row({config.name,
                   util::fmt_ratio_percent(result.normalized_bw),
                   std::to_string(result.out_of_order_packets),
                   util::fmt_double(result.message_latency_us.mean(), 1) +
                       " us"});
  }

  if (cli.flag("csv")) table.print_csv(std::cout);
  else table.print(std::cout);
  std::cout << "\nAdaptivity repairs part of the random-order loss but (a) "
               "not all of it and (b) at\nthe price of reordering — which "
               "IB RC transports cannot tolerate (§I). The\nproactive "
               "configuration needs no adaptation and reorders nothing.\n";

  // §VII side-note: OS jitter on the proactive configuration.
  std::cout << "\nOS-jitter sensitivity (synchronized stages, proactive "
               "configuration):\n";
  for (const std::uint64_t jitter_us : {0ull, 10ull, 100ull, 1000ull}) {
    sim::PacketSim psim(fabric, tables);
    psim.set_stage_jitter(static_cast<sim::SimTime>(jitter_us * 1000), 7);
    const auto result =
        psim.run(topo_traffic, sim::Progression::kSynchronized);
    std::cout << "  jitter <= " << jitter_us << " us: normalized BW "
              << util::fmt_ratio_percent(result.normalized_bw) << '\n';
  }
  std::cout << "Jitter, not contention, is what remains once routing and "
               "ordering are right —\nthe paper points to clock "
               "synchronization protocols for exactly this.\n";
  obs_cli.finish(topo::trace_naming(fabric));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ftcf::util::guarded_main(argc, argv, run_main);
}
