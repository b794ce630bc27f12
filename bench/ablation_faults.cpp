// Ablation E: what a fault costs, with and without degraded rerouting.
//
// Zahavi's contention-free result assumes a pristine RLFT; this ablation
// measures how gracefully it degrades. The same shift workload (D-Mod-K +
// topology order, the paper's proposal) runs across escalating damage
//
//   * pristine fabric                       (the paper's assumption),
//   * one leaf-to-spine cable down,
//   * one spine switch down,
//   * one cable at quarter rate,
//   * N random switch-switch cables down,
//
// twice per scenario: with stale pristine tables (the transport's retries
// carry the run) and with degraded D-Mod-K tables (routing absorbs the
// fault). Reported: analyzer HSD, delivered/failed bytes, drops and
// retransmits — the price of a fault in both congestion and resilience
// currency.
#include <iostream>

#include "analysis/hsd.hpp"
#include "check/check.hpp"
#include "cps/generators.hpp"
#include "fault/degraded.hpp"
#include "routing/degraded.hpp"
#include "routing/dmodk.hpp"
#include "sim/packet_sim.hpp"
#include "topology/presets.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"
#include "util/table.hpp"

namespace {

int run_main(int argc, char** argv) {
  using namespace ftcf;

  util::Cli cli("ablation_faults",
                "shift-collective cost of fabric faults, stale vs degraded "
                "routing");
  cli.add_option("nodes", "cluster size preset", "128");
  cli.add_option("kib", "message size in KiB", "64");
  cli.add_option("stages", "shift stages sampled", "8");
  cli.add_option("rand-cables", "cables killed in the random scenario", "4");
  cli.add_flag("csv", "CSV output");
  cli.add_option("threads", "worker threads (0 = all cores)", "0");
  if (!cli.parse(argc, argv)) return 0;
  par::set_default_threads(static_cast<std::uint32_t>(cli.uinteger("threads")));

  const topo::Fabric fabric(topo::paper_cluster(cli.uinteger("nodes")));
  const std::uint64_t n = fabric.num_hosts();
  const std::uint64_t bytes = cli.uinteger("kib") * 1024;

  const auto ordering = order::NodeOrdering::topology(fabric);
  const cps::Sequence shift_seq = cps::shift(n);
  std::vector<std::size_t> sample;
  const std::size_t want = cli.uinteger("stages");
  for (std::size_t i = 0; i < want; ++i)
    sample.push_back(1 + i * (shift_seq.num_stages() - 1) / want);
  const auto traffic =
      sim::traffic_from_cps(shift_seq, ordering, n, bytes, &sample);
  std::uint64_t offered = 0;
  for (const auto& st : traffic) offered += st.total_bytes();

  const std::string rand_spec =
      "rand-links:" + std::to_string(cli.uinteger("rand-cables")) + ":2011";
  const std::pair<const char*, std::string> scenarios[] = {
      {"pristine", ""},
      {"one leaf-spine cable down", "link:leaf0:" +
           std::to_string(fabric.node(fabric.switch_node(1, 0)).num_down_ports)},
      {"one spine switch down", "switch:spine0"},
      {"one cable at quarter rate", "rate:leaf0:" +
           std::to_string(fabric.node(fabric.switch_node(1, 0)).num_down_ports) +
           ":0.25"},
      {rand_spec.c_str(), rand_spec},
  };

  util::Table table({"scenario", "tables", "check", "avg max HSD", "delivered",
                     "failed", "dropped", "retransmitted"});
  table.set_title("Shift CPS (sampled) on " + fabric.spec().to_string() +
                  ", D-Mod-K + topology order, " + util::fmt_bytes(bytes) +
                  " messages");

  const auto pristine_tables = route::DModKRouter{}.compute(fabric);
  for (const auto& [label, spec_text] : scenarios) {
    const fault::FaultSpec spec = fault::parse_faults(spec_text);
    const fault::FaultState faults(fabric, spec);
    struct Variant {
      const char* name;
      route::ForwardingTables tables;
    };
    std::vector<Variant> variants;
    variants.push_back({"stale", pristine_tables});
    if (!faults.pristine())
      variants.push_back({"degraded", route::compute_degraded_dmodk(faults)});

    for (const Variant& variant : variants) {
      // Static analysis first: each variant's tables must stay provably
      // deadlock-free (CDG acyclic) even when degraded rerouting rewrote them.
      check::CheckOptions check_options;
      if (!faults.pristine()) check_options.faults = &faults;
      const auto checked =
          check::run_check(fabric, variant.tables, check_options);
      const std::string check_cell =
          checked.deadlock_free()
              ? (checked.diagnostics.errors() == 0 ? "ok" : "ERRORS")
              : "DEADLOCK";

      analysis::HsdAnalyzer analyzer(fabric, variant.tables);
      analyzer.set_tolerate_unroutable(true);
      const auto hsd = analyzer.analyze_sequence(shift_seq, ordering);

      sim::PacketSim psim(fabric, variant.tables);
      psim.set_fault_state(&faults);
      const auto result = psim.run(traffic, sim::Progression::kAsync);
      table.add_row({label, variant.name, check_cell,
                     util::fmt_double(hsd.avg_max_hsd, 3),
                     util::fmt_bytes(result.bytes_delivered),
                     util::fmt_bytes(result.bytes_failed),
                     std::to_string(result.packets_dropped),
                     std::to_string(result.packets_retransmitted)});
    }
  }

  if (cli.flag("csv")) table.print_csv(std::cout);
  else table.print(std::cout);
  std::cout << "\nDegraded D-Mod-K trades a bounded HSD increase for zero "
               "loss; stale tables keep\nthe pristine HSD on paper but pay "
               "in drops, retransmits and written-off bytes.\nRate faults "
               "change neither table: only the simulator sees the slow "
               "cable.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ftcf::util::guarded_main(argc, argv, run_main);
}
