// Figure 2 reproduction: normalized effective bandwidth vs message size for
// the Shift and Recursive-Doubling permutation sequences under *random* MPI
// node order, on an InfiniBand-calibrated packet simulation (QDR links, PCIe
// Gen2 hosts), with end-ports progressing asynchronously through their
// destination sequences (paper §II).
//
// Expected shape (paper): bandwidth falls as messages grow (head-of-line
// blocking persists longer); Recursive-Doubling sits below Shift because its
// short stage sequence (log2 N vs N-1 stages) cannot average congestion out.
// A third series shows the paper's fix — D-Mod-K with topology order — at
// full bandwidth for every size.
//
// Runtime control: Shift has N-1 stages; we simulate a deterministic sample
// of stages (scaled down for large messages) and report bandwidth over the
// sample. Under random order stages are statistically exchangeable, so the
// sample preserves the curve; --stages overrides, --full uses the 1944-node
// topology of the paper instead of 324.
#include <iostream>

#include "cps/generators.hpp"
#include "obs/cli.hpp"
#include "routing/dmodk.hpp"
#include "sim/packet_sim.hpp"
#include "topology/obs_names.hpp"
#include "topology/presets.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace ftcf;

/// Deterministic, evenly spread sample of `want` stage indices out of total.
std::vector<std::size_t> sample_stages(std::size_t total, std::size_t want) {
  std::vector<std::size_t> idx;
  if (want >= total) {
    idx.resize(total);
    for (std::size_t i = 0; i < total; ++i) idx[i] = i;
    return idx;
  }
  for (std::size_t i = 0; i < want; ++i)
    idx.push_back(1 + i * (total - 1) / want);  // skip the trivial s=0 slot
  return idx;
}

int run_main(int argc, char** argv) {
  util::Cli cli("fig2_bw_vs_msgsize",
                "Fig. 2: normalized effective BW vs message size (random "
                "order, async progression)");
  cli.add_option("nodes", "cluster size preset", "324");
  cli.add_option("sizes", "message sizes in KiB",
                 "8,16,32,64,128,256,512,1024");
  cli.add_option("stages", "shift stages to sample at 64 KiB (scaled by "
                 "size; 0 = auto)", "0");
  cli.add_option("seed", "random-order seed", "2011");
  cli.add_flag("full", "use the paper's 1944-node topology");
  cli.add_option("partitions",
                 "packet-engine partitions (PDES; same results): 1 = serial, "
                 "0 = one per thread",
                 "1");
  cli.add_flag("csv", "CSV output");
  obs::ObsCli::add_options(cli);
  if (!cli.parse(argc, argv)) return 0;
  obs::ObsCli obs_cli(cli);

  const std::uint64_t nodes = cli.flag("full") ? 1944 : cli.uinteger("nodes");
  const topo::Fabric fabric(topo::paper_cluster(nodes));
  const auto tables = route::DModKRouter{}.compute(fabric);
  sim::PacketSim psim(fabric, tables);
  psim.set_observer(obs_cli.observer());
  psim.set_partitions(
      cli.uinteger("partitions") == 0
          ? par::default_threads()
          : static_cast<std::uint32_t>(cli.uinteger("partitions")));

  const std::uint64_t n = fabric.num_hosts();
  const auto random_order = order::NodeOrdering::random(fabric, cli.uinteger("seed"));
  const auto topo_order = order::NodeOrdering::topology(fabric);
  const cps::Sequence shift_seq = cps::shift(n);
  const cps::Sequence rd_seq = cps::recursive_doubling(n);

  util::Table table({"msg size", "shift random", "recursive-doubling random",
                     "shift ordered (D-Mod-K)"});
  table.set_title("Fig. 2 — normalized effective bandwidth (1.0 = PCIe rate)");

  for (const std::uint64_t kib : cli.uint_list("sizes")) {
    const std::uint64_t bytes = kib * 1024;
    // Keep the event count roughly constant across sizes.
    std::size_t want = cli.uinteger("stages");
    if (want == 0) {
      const std::uint64_t at64k = nodes >= 1000 ? 12 : 40;
      want = static_cast<std::size_t>(
          std::max<std::uint64_t>(4, at64k * 64 / std::max<std::uint64_t>(kib, 8)));
    }
    const auto subset = sample_stages(shift_seq.num_stages(), want);

    const auto shift_random = psim.run(
        sim::traffic_from_cps(shift_seq, random_order, n, bytes, &subset),
        sim::Progression::kAsync);
    const auto rd_random =
        psim.run(sim::traffic_from_cps(rd_seq, random_order, n, bytes),
                 sim::Progression::kAsync);
    const auto shift_ordered = psim.run(
        sim::traffic_from_cps(shift_seq, topo_order, n, bytes, &subset),
        sim::Progression::kAsync);

    table.add_row({util::fmt_bytes(bytes),
                   util::fmt_double(shift_random.normalized_bw, 3),
                   util::fmt_double(rd_random.normalized_bw, 3),
                   util::fmt_double(shift_ordered.normalized_bw, 3)});
    util::log_info("fig2: ", util::fmt_bytes(bytes), " done (",
                   shift_random.events + rd_random.events +
                       shift_ordered.events,
                   " events)");
  }

  std::cout << "Topology: " << fabric.spec().to_string() << " (" << n
            << " nodes), calibration: QDR 4000 MB/s links, PCIe 3250 MB/s "
               "hosts, 2 KiB MTU\n\n";
  if (cli.flag("csv")) table.print_csv(std::cout);
  else table.print(std::cout);
  std::cout << "\nPaper shape check: both random-order series fall with "
               "message size;\nRecursive-Doubling lies below Shift; the "
               "ordered series stays near 1.0.\n";
  obs_cli.finish(topo::trace_naming(fabric));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ftcf::util::guarded_main(argc, argv, run_main);
}
