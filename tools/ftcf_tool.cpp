// ftcf_tool — command-line front end for the library, in the spirit of the
// ibutils/ibdm workflow the paper's §VII builds on:
//
//   ftcf_tool topo     --spec "PGFT(2; 18,18; 1,9; 1,2)" [--out cluster.topo]
//   ftcf_tool route    --topo cluster.topo --router dmodk [--lft-out lfts.txt]
//   ftcf_tool hsd      --topo cluster.topo --cps shift --order topology
//   ftcf_tool simulate --topo cluster.topo --cps ring --order random
//                      --kib 256 [--sync] [--adaptive] [--trace t.json]
//                      [--metrics m.json] [--profile]
//                      [--partitions 8] [--full-oracle]
//                      [--faults "link:S1_0:4,flap:spine1:0:50:200"]
//   ftcf_tool inject   --nodes 324 --faults "switch:spine4" [--lft-out d.lft]
//   ftcf_tool theorems --spec "PGFT(3; 6,6,4; 1,6,6; 1,1,1)"
//   ftcf_tool check    --nodes 324 --router dmodk [--lft tables.lft]
//                      [--order topology] [--cps shift] [--json report.json]
//                      [--suppress baseline.txt] [--strict]
//   ftcf_tool churn    --nodes 648 --faults "mtbf:8:500:200:5000:7"
//                      [--cps shift] [--sample-srcs 8] [--full-oracle]
//                      [--report campaign.json] [--metrics m.json]
//
// `--topo` reads a topology file; `--spec` builds from a PGFT tuple; the
// preset shorthand `--nodes 324` uses the paper's cluster catalog.
//
// Exit codes: 0 success, 1 audit failure or internal error, 2 usage error or
// malformed input (a typed ftcf::util error, reported as one line on stderr).
#include <chrono>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>

#include "check/check.hpp"
#include "churn/campaign.hpp"
#include "obs/heatmap.hpp"
#include "fault/fault_spec.hpp"
#include "routing/degraded.hpp"
#include "core/grouped_rd.hpp"
#include "core/report.hpp"
#include "core/theorems.hpp"
#include "cps/generators.hpp"
#include "obs/cli.hpp"
#include "obs/profile.hpp"
#include "routing/lft_io.hpp"
#include "routing/router.hpp"
#include "routing/validate.hpp"
#include "sim/packet_sim.hpp"
#include "topology/obs_names.hpp"
#include "topology/presets.hpp"
#include "topology/topo_io.hpp"
#include "topology/validate.hpp"
#include "run_report.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/expects.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace ftcf;

void add_fabric_options(util::Cli& cli) {
  cli.add_option("spec", "PGFT tuple, e.g. 'PGFT(2; 4,4; 1,2; 1,2)'", "");
  cli.add_option("topo", "topology file to read", "");
  cli.add_option("nodes", "paper preset size (e.g. 324)", "0");
  cli.add_option("threads",
                 "worker threads for parallel phases (0 = all cores); "
                 "output is identical for every thread count",
                 "0");
}

/// Wire --threads into the ftcf::par default before any parallel phase.
void apply_threads(const util::Cli& cli) {
  par::set_default_threads(static_cast<std::uint32_t>(cli.uinteger("threads")));
}

topo::Fabric load_fabric(const util::Cli& cli) {
  const std::string spec = cli.str("spec");
  const std::string topo_file = cli.str("topo");
  const std::uint64_t nodes = cli.uinteger("nodes");
  if (!spec.empty()) return topo::Fabric(topo::parse_pgft(spec));
  if (!topo_file.empty()) {
    std::ifstream is(topo_file);
    if (!is) throw util::Error("cannot open topo file '" + topo_file + "'");
    return topo::read_topo(is);
  }
  if (nodes != 0) return topo::Fabric(topo::paper_cluster(nodes));
  throw util::Error("need one of --spec, --topo or --nodes");
}

void add_fault_options(util::Cli& cli) {
  cli.add_option("faults",
                 "fault spec: link:NODE:PORT | switch:NODE | "
                 "rate:NODE:PORT:FACTOR | flap:NODE:PORT:DOWN_US[:UP_US] | "
                 "rand-links:COUNT:SEED (comma-separated)",
                 "");
  cli.add_option("faults-file", "file with one fault token per line", "");
}

fault::FaultSpec load_fault_spec(const util::Cli& cli) {
  std::string text = cli.str("faults");
  const std::string file = cli.str("faults-file");
  if (!file.empty()) {
    std::ifstream is(file);
    if (!is) throw util::Error("cannot open faults file '" + file + "'");
    std::string line;
    while (std::getline(is, line)) {
      const auto hash = line.find('#');
      if (hash != std::string::npos) line.erase(hash);
      const auto b = line.find_first_not_of(" \t\r");
      if (b == std::string::npos) continue;
      const auto e = line.find_last_not_of(" \t\r");
      if (!text.empty()) text += ',';
      text += line.substr(b, e - b + 1);
    }
  }
  return fault::parse_faults(text);
}

/// Tables for a (possibly faulted) fabric: D-Mod-K re-routes around the
/// faults; every other router keeps its pristine tables (the simulator then
/// shows what the faults cost without rerouting).
route::ForwardingTables load_tables(const util::Cli& cli,
                                    const topo::Fabric& fabric,
                                    const fault::FaultState* faults) {
  const auto kind = route::parse_router_kind(cli.str("router"));
  if (faults != nullptr && !faults->pristine() &&
      kind == route::RouterKind::kDModK)
    return route::compute_degraded_dmodk(*faults);
  return route::make_router(kind, cli.uinteger("seed"))->compute(fabric);
}

order::NodeOrdering load_ordering(const std::string& name,
                                  const topo::Fabric& fabric,
                                  std::uint64_t seed) {
  if (name == "topology") return order::NodeOrdering::topology(fabric);
  if (name == "random") return order::NodeOrdering::random(fabric, seed);
  if (name == "adversarial")
    return order::NodeOrdering::adversarial_ring(fabric);
  if (name == "leaf-random")
    return order::NodeOrdering::leaf_random(fabric, seed);
  if (name == "interleaved")
    return order::NodeOrdering::leaf_interleaved(fabric);
  throw util::Error(
      "unknown order '" + name +
      "' (topology|random|adversarial|leaf-random|interleaved)");
}

/// The --cps sequence over every host: a cps::generate kind, or the §VI
/// grouped recursive doubling for "grouped-rd".
cps::Sequence load_sequence(const std::string& name,
                            const topo::Fabric& fabric) {
  if (name == "grouped-rd") return core::grouped_recursive_doubling(fabric);
  return cps::generate(cps::parse_cps(name), fabric.num_hosts());
}

int cmd_topo(int argc, const char* const* argv) {
  util::Cli cli("ftcf_tool topo", "build, validate and export a topology");
  add_fabric_options(cli);
  cli.add_option("out", "topo file to write ('-' = stdout summary only)", "-");
  if (!cli.parse(argc, argv)) return 0;
  apply_threads(cli);
  const topo::Fabric fabric = load_fabric(cli);

  const auto audit = topo::validate_fabric(fabric);
  const auto cbb = topo::validate_constant_cbb(fabric);
  std::cout << fabric.spec().to_string() << ": " << fabric.num_hosts()
            << " hosts, " << fabric.num_switches() << " switches, "
            << fabric.num_ports() << " ports\n"
            << "RLFT: " << (fabric.spec().is_rlft() ? "yes" : "no")
            << ", structure: " << (audit.ok ? "ok" : audit.problems.front())
            << ", constant CBB: " << (cbb.ok ? "yes" : "no") << '\n';
  if (cli.str("out") != "-") {
    std::ofstream os(cli.str("out"));
    topo::write_topo(fabric, os);
    std::cout << "wrote " << cli.str("out") << '\n';
  }
  return audit.ok ? 0 : 1;
}

int cmd_route(int argc, const char* const* argv) {
  util::Cli cli("ftcf_tool route", "compute and validate forwarding tables");
  add_fabric_options(cli);
  cli.add_option("router", "dmodk|ftree|updown|random", "dmodk");
  cli.add_option("seed", "random-router seed", "1");
  cli.add_option("lft-out", "LFT dump file ('-' = skip)", "-");
  cli.add_flag("profile", "time fabric/table construction, report at exit");
  if (!cli.parse(argc, argv)) return 0;
  apply_threads(cli);
  if (cli.flag("profile")) {
    obs::Profiler::instance().set_enabled(true);
    obs::enable_par_timing();
  }
  const topo::Fabric fabric = load_fabric(cli);

  const auto router = route::make_router(
      route::parse_router_kind(cli.str("router")), cli.uinteger("seed"));
  const auto tables = router->compute(fabric);
  const auto report = route::validate_routing(fabric, tables);
  std::cout << "router " << router->name() << ": tables "
            << (tables.complete() ? "complete" : "INCOMPLETE")
            << ", up*/down* audit "
            << (report.ok ? "ok" : report.problems.front()) << '\n';
  if (cli.str("lft-out") != "-") {
    std::ofstream os(cli.str("lft-out"));
    route::write_lfts(fabric, tables, os);
    std::cout << "wrote " << cli.str("lft-out") << '\n';
  }
  if (cli.flag("profile")) obs::Profiler::instance().report(std::cerr);
  return report.ok ? 0 : 1;
}

int cmd_hsd(int argc, const char* const* argv) {
  util::Cli cli("ftcf_tool hsd", "hot-spot-degree analysis of a CPS");
  add_fabric_options(cli);
  cli.add_option("router", "dmodk|ftree|updown|random", "dmodk");
  cli.add_option("cps", "ring|shift|binomial|dissemination|tournament|linear|"
                 "recursive-doubling|recursive-halving|grouped-rd", "shift");
  cli.add_option("order", "topology|random|adversarial|leaf-random|interleaved",
                 "topology");
  cli.add_option("seed", "seed for randomized choices", "1");
  add_fault_options(cli);
  cli.add_flag("profile", "time fabric/table construction, report at exit");
  if (!cli.parse(argc, argv)) return 0;
  apply_threads(cli);
  if (cli.flag("profile")) {
    obs::Profiler::instance().set_enabled(true);
    obs::enable_par_timing();
  }
  const topo::Fabric fabric = load_fabric(cli);

  const fault::FaultSpec fault_spec = load_fault_spec(cli);
  std::optional<fault::FaultState> faults;
  if (!fault_spec.empty()) faults.emplace(fabric, fault_spec);
  const auto tables = load_tables(cli, fabric, faults ? &*faults : nullptr);
  const auto ordering =
      load_ordering(cli.str("order"), fabric, cli.uinteger("seed"));
  const cps::Sequence seq = load_sequence(cli.str("cps"), fabric);

  const check::SequenceMetrics metrics = check::summarize(
      check::certify_contention_freedom(fabric, tables, ordering, seq));
  util::Table table({"metric", "value"});
  table.add_row({"stages", std::to_string(seq.num_stages())});
  table.add_row({"avg max HSD", util::fmt_double(metrics.avg_max_hsd, 3)});
  table.add_row({"worst stage HSD", std::to_string(metrics.worst_stage_hsd)});
  table.add_row({"worst up HSD", std::to_string(metrics.worst_up_hsd)});
  table.add_row({"worst down HSD", std::to_string(metrics.worst_down_hsd)});
  table.add_row({"congestion-free",
                 metrics.worst_stage_hsd <= 1 ? "yes" : "no"});
  if (faults) {
    table.add_row({"faults", fault_spec.to_string()});
    table.add_row({"unroutable flows",
                   std::to_string(metrics.unroutable_flows)});
  }
  table.print(std::cout);
  if (cli.flag("profile")) obs::Profiler::instance().report(std::cerr);
  return 0;
}

/// Strict RunResult equality, the --full-oracle contract: the partitioned
/// engine must reproduce the serial engine byte for byte — doubles included,
/// since both reduce the same integer tallies in the same order.
bool same_run_result(const sim::RunResult& a, const sim::RunResult& b) {
  const auto& la = a.message_latency_us;
  const auto& lb = b.message_latency_us;
  return a.makespan == b.makespan && a.bytes_delivered == b.bytes_delivered &&
         a.messages_delivered == b.messages_delivered &&
         a.packets_delivered == b.packets_delivered &&
         a.out_of_order_packets == b.out_of_order_packets &&
         a.events == b.events && a.active_hosts == b.active_hosts &&
         a.packets_dropped == b.packets_dropped &&
         a.packets_retransmitted == b.packets_retransmitted &&
         a.duplicate_packets == b.duplicate_packets &&
         a.messages_failed == b.messages_failed &&
         a.bytes_failed == b.bytes_failed &&
         a.link_down_events == b.link_down_events &&
         a.effective_bw_per_host == b.effective_bw_per_host &&
         a.normalized_bw == b.normalized_bw && la.count() == lb.count() &&
         la.sum() == lb.sum() && la.mean() == lb.mean() &&
         la.stddev() == lb.stddev() && la.min() == lb.min() &&
         la.max() == lb.max() && a.link_busy_ns == b.link_busy_ns &&
         a.max_queue_depth == b.max_queue_depth;
}

int cmd_simulate(int argc, const char* const* argv) {
  util::Cli cli("ftcf_tool simulate", "packet-level simulation of a CPS");
  add_fabric_options(cli);
  cli.add_option("router", "dmodk|ftree|updown|random", "dmodk");
  cli.add_option("cps", "CPS name (see hsd)", "ring");
  cli.add_option("order", "node ordering (see hsd)", "topology");
  cli.add_option("kib", "message size in KiB", "128");
  cli.add_option("seed", "seed for randomized choices", "1");
  cli.add_option("jitter-us", "synchronized-stage jitter bound", "0");
  cli.add_option("timeout-us", "per-packet retransmit timeout (0 = default)",
                 "0");
  cli.add_option("retries", "max send attempts per packet (0 = default)", "0");
  cli.add_flag("sync", "barrier between stages");
  cli.add_flag("adaptive", "adaptive up-port selection");
  cli.add_option("partitions",
                 "packet-engine partitions (PDES): 1 = serial, 0 = one per "
                 "--threads worker",
                 "1");
  cli.add_flag("full-oracle", "also run the serial engine and require the "
               "PDES RunResult to match it exactly");
  cli.add_option("vls", "attach a proposed destination->VL assignment of at "
                 "most N lanes so trace/heatmap cells split per VL (0 = off)",
                 "0");
  add_fault_options(cli);
  obs::ObsCli::add_options(cli);
  if (!cli.parse(argc, argv)) return 0;
  apply_threads(cli);
  obs::ObsCli obs_cli(cli);
  const topo::Fabric fabric = load_fabric(cli);

  const fault::FaultSpec fault_spec = load_fault_spec(cli);
  std::optional<fault::FaultState> faults;
  if (!fault_spec.empty()) faults.emplace(fabric, fault_spec);
  const auto tables = load_tables(cli, fabric, faults ? &*faults : nullptr);
  const auto ordering =
      load_ordering(cli.str("order"), fabric, cli.uinteger("seed"));
  const cps::Sequence seq = load_sequence(cli.str("cps"), fabric);
  const auto traffic = sim::traffic_from_cps(
      seq, ordering, fabric.num_hosts(), cli.kib_bytes("kib"));

  // The VL table must be attached before the observer is copied into the sim.
  std::optional<check::VlAssignment> vl;
  if (cli.uinteger("vls") > 0) {
    vl = check::propose_vl_assignment(
        fabric, tables, static_cast<std::uint32_t>(cli.uinteger("vls")));
    obs_cli.set_vl_table(&vl->lane_of_dest);
    obs_cli.set_heatmap_meta("vls", std::to_string(vl->num_lanes));
  }

  sim::PacketSim psim(fabric, tables);
  psim.set_observer(obs_cli.observer());
  if (faults) psim.set_fault_state(&*faults);
  if (cli.uinteger("timeout-us") > 0 || cli.uinteger("retries") > 0) {
    sim::Resilience policy;
    if (cli.uinteger("timeout-us") > 0)
      policy.timeout_ns =
          static_cast<sim::SimTime>(cli.uinteger("timeout-us") * 1000);
    if (cli.uinteger("retries") > 0)
      policy.max_attempts = static_cast<std::uint32_t>(cli.uinteger("retries"));
    psim.set_resilience(policy);
  }
  if (cli.flag("adaptive")) psim.set_up_selection(sim::UpSelection::kAdaptive);
  if (cli.uinteger("jitter-us") > 0)
    psim.set_stage_jitter(
        static_cast<sim::SimTime>(cli.uinteger("jitter-us") * 1000),
        cli.uinteger("seed"));
  const bool partitioned = cli.uinteger("partitions") != 1;
  psim.set_partitions(
      cli.uinteger("partitions") == 0
          ? par::default_threads()
          : static_cast<std::uint32_t>(cli.uinteger("partitions")));
  const auto progression = cli.flag("sync") ? sim::Progression::kSynchronized
                                            : sim::Progression::kAsync;

  const auto wall_start = std::chrono::steady_clock::now();
  const sim::RunResult result = psim.run(traffic, progression);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  const sim::PdesStats pdes_stats = psim.last_stats();

  if (cli.flag("full-oracle")) {
    // The serial re-run is unobserved so traces/metrics aren't
    // double-recorded.
    psim.set_observer({});
    psim.set_partitions(1);
    if (!same_run_result(result, psim.run(traffic, progression))) {
      std::cerr << "full-oracle: PDES RunResult diverges from the serial "
                   "engine (partitions="
                << pdes_stats.partitions << ")\n";
      return 1;
    }
    std::cout << "full-oracle: PDES matches the serial engine exactly\n";
  }

  util::Table table({"metric", "value"});
  table.add_row({"makespan", util::fmt_double(sim::to_us(result.makespan), 1) +
                                 " us"});
  table.add_row({"bytes delivered", util::fmt_bytes(result.bytes_delivered)});
  table.add_row({"normalized BW",
                 util::fmt_ratio_percent(result.normalized_bw)});
  table.add_row({"avg msg latency",
                 util::fmt_double(result.message_latency_us.mean(), 1) + " us"});
  table.add_row({"out-of-order packets",
                 std::to_string(result.out_of_order_packets)});
  table.add_row({"events", std::to_string(result.events)});
  if (partitioned) {
    table.add_row({"pdes partitions", std::to_string(pdes_stats.partitions)});
    table.add_row({"pdes windows", std::to_string(pdes_stats.windows)});
    table.add_row({"pdes channel events",
                   std::to_string(pdes_stats.channel_events)});
  }
  if (wall_s > 0.0) {
    // Wall-clock throughput; stdout only, never part of a JSON artifact.
    table.add_row({"events/sec",
                   util::fmt_double(static_cast<double>(result.events) /
                                        wall_s / 1e6,
                                    2) +
                       " M"});
  }
  if (faults) {
    table.add_row({"faults", fault_spec.to_string()});
    table.add_row({"packets dropped", std::to_string(result.packets_dropped)});
    table.add_row({"packets retransmitted",
                   std::to_string(result.packets_retransmitted)});
    table.add_row({"duplicate packets",
                   std::to_string(result.duplicate_packets)});
    table.add_row({"messages failed", std::to_string(result.messages_failed)});
    table.add_row({"bytes failed", util::fmt_bytes(result.bytes_failed)});
    table.add_row({"link-down events",
                   std::to_string(result.link_down_events)});
  }
  table.print(std::cout);
  if (obs_cli.metrics() != nullptr) {
    obs_cli.metrics()->set_meta("tool", "ftcf_tool simulate");
    obs_cli.metrics()->set_meta("topology", fabric.spec().to_string());
    obs_cli.metrics()->set_meta("cps", cli.str("cps"));
    obs_cli.metrics()->set_meta("order", cli.str("order"));
    if (faults) obs_cli.metrics()->set_meta("faults", fault_spec.to_string());
  }
  obs_cli.set_heatmap_meta("tool", "ftcf_tool simulate");
  obs_cli.set_heatmap_meta("topology", fabric.spec().to_string());
  obs_cli.set_heatmap_meta("cps", cli.str("cps"));
  obs_cli.set_heatmap_meta("order", cli.str("order"));
  obs_cli.finish(topo::trace_naming(fabric));
  return 0;
}

int cmd_inject(int argc, const char* const* argv) {
  util::Cli cli("ftcf_tool inject",
                "apply a fault spec, reroute D-Mod-K and audit the result");
  add_fabric_options(cli);
  add_fault_options(cli);
  cli.add_option("lft-out", "degraded LFT dump file ('-' = skip)", "-");
  if (!cli.parse(argc, argv)) return 0;
  apply_threads(cli);
  const topo::Fabric fabric = load_fabric(cli);

  const fault::FaultSpec fault_spec = load_fault_spec(cli);
  const fault::FaultState faults(fabric, fault_spec);
  route::DegradedStats stats;
  const auto tables = route::compute_degraded_dmodk(faults, &stats);
  const route::LftAudit audit = route::validate_lft(fabric, tables, &faults);

  util::Table table({"metric", "value"});
  table.add_row({"faults", fault_spec.empty() ? std::string("(none)")
                                              : fault_spec.to_string()});
  table.add_row({"cables down", std::to_string(faults.cables_down())});
  table.add_row({"switches down", std::to_string(faults.switches_down())});
  table.add_row({"cables degraded",
                 std::to_string(faults.cables_degraded())});
  table.add_row({"surviving hosts",
                 std::to_string(faults.surviving_hosts().size()) + " / " +
                     std::to_string(fabric.num_hosts())});
  table.add_row({"entries rerouted", std::to_string(stats.entries_rerouted)});
  table.add_row({"entries unrouted", std::to_string(stats.entries_unrouted)});
  table.add_row({"pairs checked", std::to_string(audit.pairs_checked)});
  table.add_row({"pairs unreachable", std::to_string(audit.unreachable.size())});
  table.add_row({"up*/down* audit",
                 audit.clean() ? std::string("ok") : audit.first_problem()});
  table.print(std::cout);
  if (cli.str("lft-out") != "-") {
    std::ofstream os(cli.str("lft-out"));
    route::write_lfts(fabric, tables, os);
    std::cout << "wrote " << cli.str("lft-out") << '\n';
  }
  return audit.clean() ? 0 : 1;
}

int cmd_check(int argc, const char* const* argv) {
  util::Cli cli("ftcf_tool check",
                "static analysis: CDG deadlock proof, walk cross-check, "
                "RLFT/theorem-precondition lints, contention-freedom "
                "certificates, per-VL and credit-loop provers");
  add_fabric_options(cli);
  cli.add_option("router", "dmodk|ftree|updown|random", "dmodk");
  cli.add_option("seed", "random-router seed", "1");
  cli.add_option("lft", "analyze tables from an LFT dump instead of routing "
                 "(may be incomplete, e.g. a degraded dump)", "");
  add_fault_options(cli);
  cli.add_option("order", "also lint a node ordering (see hsd; '' = skip)", "");
  cli.add_option("cps", "also lint a CPS (see hsd; '' = skip)", "");
  cli.add_option("suppress", "suppression/baseline file (rule[:location])", "");
  cli.add_option("json", "deterministic JSON report file ('-' = skip)", "-");
  cli.add_flag("certify", "emit a per-stage HSD=1 certificate or root-cause "
               "blame (requires --order and --cps)");
  cli.add_option("cert-out", "certificate JSON file ('-' = skip)", "-");
  cli.add_flag("symbolic", "derive the certificate algebraically from the "
               "PGFT digit decomposition when the closed form applies "
               "(canonical dmodk tables, identity order, shift/XOR stages); "
               "anything else falls back to the enumerative walk with a "
               "symbolic-inapplicable note (requires --certify)");
  cli.add_flag("symbolic-check", "with --symbolic: also run the enumerative "
               "certifier and byte-compare the two certificates (rule "
               "cert-symbolic-mismatch on divergence)");
  cli.add_option("proof-out", "symbolic proof JSON file ('-' = skip)", "-");
  cli.add_flag("replay", "re-simulate a sample of the certified stages and "
               "cross-check per-link telemetry against the witnesses "
               "(requires --certify)");
  cli.add_option("replay-stages", "stage-sample size for --replay (0 = all "
                 "loaded stages)", "6");
  cli.add_option("vls", "propose a virtual-lane assignment of at most N "
                 "lanes whose per-lane CDGs are acyclic (0 = off)", "0");
  cli.add_flag("prove-optimal", "with --vls: prove the lane count minimal by "
               "exact branch-and-bound over the destination-conflict graph "
               "(rules vl-optimal / vl-bound-gap); a smaller feasible "
               "assignment replaces the greedy proposal");
  cli.add_option("vl-node-budget", "branch-and-bound placement budget for "
                 "--prove-optimal (exceeding it reports the proven bound "
                 "gap)", "1000000");
  cli.add_flag("adaptive", "prove Dally-Seitz deadlock freedom over the "
               "adaptive routing relation — deterministic descents, any "
               "minimal up-port ascent (rules cdg-adaptive-ok / "
               "cdg-adaptive-cycle)");
  cli.add_flag("credit-loops", "prove the packet simulator's credit "
               "flow-control graph loop-free, cross-checked against the CDG");
  cli.add_option("write-baseline", "write a suppression baseline covering "
                 "the current findings ('-' = skip)", "-");
  cli.add_flag("strict", "treat warnings as failures (exit 1)");
  cli.add_flag("profile", "time analysis phases, report at exit");
  if (!cli.parse(argc, argv)) return 0;
  apply_threads(cli);
  if (cli.flag("profile")) {
    obs::Profiler::instance().set_enabled(true);
    obs::enable_par_timing();
  }
  const topo::Fabric fabric = load_fabric(cli);

  const fault::FaultSpec fault_spec = load_fault_spec(cli);
  std::optional<fault::FaultState> faults;
  if (!fault_spec.empty()) faults.emplace(fabric, fault_spec);

  route::ForwardingTables tables(fabric);
  const std::string lft_file = cli.str("lft");
  if (!lft_file.empty()) {
    std::ifstream is(lft_file);
    if (!is) throw util::Error("cannot open LFT dump '" + lft_file + "'");
    tables = route::read_lfts(fabric, is, /*require_complete=*/false);
  } else {
    tables = load_tables(cli, fabric, faults ? &*faults : nullptr);
  }

  check::CheckOptions options;
  if (faults) options.faults = &*faults;
  std::optional<order::NodeOrdering> ordering;
  if (!cli.str("order").empty()) {
    ordering = load_ordering(cli.str("order"), fabric, cli.uinteger("seed"));
    options.ordering = &*ordering;
  }
  std::optional<cps::Sequence> sequence;
  if (!cli.str("cps").empty()) {
    sequence = load_sequence(cli.str("cps"), fabric);
    options.sequence = &*sequence;
  }
  if (!cli.str("suppress").empty()) {
    std::ifstream is(cli.str("suppress"));
    if (!is)
      throw util::Error("cannot open suppression file '" + cli.str("suppress") +
                        "'");
    options.suppressions = check::Suppressions::parse(is);
  }
  options.certify = cli.flag("certify");
  if (options.certify && (!ordering || !sequence))
    throw util::Error("--certify requires --order and --cps");
  options.symbolic = cli.flag("symbolic");
  if (options.symbolic && !options.certify)
    throw util::Error("--symbolic requires --certify");
  options.symbolic_cross_check = cli.flag("symbolic-check");
  if (options.symbolic_cross_check && !options.symbolic)
    throw util::Error("--symbolic-check requires --symbolic");
  // Provenance statement the symbolic prover's closed form hinges on: the
  // tables are exactly DModKRouter::compute on the pristine fabric.
  options.tables_canonical_dmodk =
      cli.str("router") == "dmodk" && lft_file.empty() && fault_spec.empty();
  options.replay_telemetry = cli.flag("replay");
  if (options.replay_telemetry && !options.certify)
    throw util::Error("--replay requires --certify");
  options.replay.max_stages = cli.uinteger("replay-stages");
  options.propose_vls = static_cast<std::uint32_t>(cli.uinteger("vls"));
  options.prove_vl_optimal = cli.flag("prove-optimal");
  if (options.prove_vl_optimal && options.propose_vls == 0)
    throw util::Error("--prove-optimal requires --vls N");
  if (options.prove_vl_optimal && options.propose_vls > 64)
    throw util::Error("--prove-optimal supports at most 64 lanes");
  options.vl_node_budget = cli.uinteger("vl-node-budget");
  options.adaptive_closure = cli.flag("adaptive");
  options.credit_loops = cli.flag("credit-loops");

  const check::CheckReport report = check::run_check(fabric, tables, options);

  report.diagnostics.write_text(std::cout);
  std::cout << "CDG: " << report.cdg.num_channels << " channels, "
            << report.cdg.num_dependencies << " dependencies, "
            << report.cdg.down_up_turns << " down->up turns, "
            << (report.cdg.acyclic ? "acyclic (deadlock-free)"
                                   : "CYCLIC (deadlock hazard)")
            << '\n';
  if (report.certificate) {
    const check::Certificate& cert = *report.certificate;
    std::cout << "certificate: "
              << (cert.contention_free ? "contention-free" : "VOID") << ", "
              << cert.stages.size() << " stage(s), " << cert.blames.size()
              << " violation(s)\n";
  }
  if (report.symbolic) {
    if (report.symbolic->applicable)
      std::cout << "symbolic proof: applicable, " << report.symbolic->stages.size()
                << " stage(s) proved over " << report.symbolic->levels.size()
                << " level(s)\n";
    else
      std::cout << "symbolic proof: inapplicable ("
                << report.symbolic->inapplicable_reason << ")\n";
  }
  if (report.telemetry)
    std::cout << "telemetry replay: " << report.telemetry->stages.size()
              << " stage(s) re-simulated, " << report.telemetry->mismatches
              << " mismatch(es), " << report.telemetry->inconclusive
              << " inconclusive\n";
  if (report.vl)
    std::cout << "VL: " << check::vl_assignment_to_string(report.vl->assignment)
              << (report.vl->analysis.all_acyclic() ? " [all lanes acyclic]"
                                                    : " [CYCLIC lane]")
              << '\n';
  if (report.vl && report.vl->optimality) {
    const check::VlOptimality& opt = *report.vl->optimality;
    std::cout << "VL optimality: bounds [" << opt.lower_bound << ", "
              << (opt.upper_bound == 0 ? std::string("-")
                                       : std::to_string(opt.upper_bound))
              << "], " << opt.suspects << " suspect dest(s), "
              << opt.conflict_edges << " conflict pair(s), "
              << opt.nodes_explored << " search node(s)";
    if (opt.optimal()) std::cout << " [PROVEN MINIMAL]";
    else if (opt.budget_exhausted) std::cout << " [node budget exhausted]";
    if (opt.improved) std::cout << " [greedy proposal replaced]";
    std::cout << '\n';
  }
  if (report.adaptive)
    std::cout << "adaptive CDG: " << report.adaptive->cdg.num_dependencies
              << " union dependencies over "
              << report.adaptive->cdg.num_channels << " channels, max fanout "
              << report.adaptive->max_fanout << ", "
              << (report.adaptive->cdg.acyclic
                      ? "acyclic (deadlock-free for any up-port policy)"
                      : "CYCLIC (adaptive deadlock hazard)")
              << '\n';
  if (report.credit)
    std::cout << "credit: " << report.credit->num_dependencies
              << " buffer dependencies over "
              << report.credit->num_buffered_channels
              << " finite-buffered channels, "
              << (report.credit->acyclic ? "loop-free" : "LOOPED") << '\n';
  if (report.certificate && cli.str("cert-out") != "-") {
    std::ofstream os(cli.str("cert-out"));
    if (!os)
      throw util::Error("cannot open certificate file '" +
                        cli.str("cert-out") + "'");
    // Content-only meta, like the JSON report: byte-identical per --threads.
    check::write_certificate_json(
        os, *report.certificate,
        {{"tool", "ftcf_tool check"},
         {"topology", fabric.spec().to_string()},
         {"router", lft_file.empty() ? cli.str("router") : "lft:" + lft_file},
         {"order", cli.str("order")},
         {"cps", cli.str("cps")}});
    std::cout << "wrote " << cli.str("cert-out") << '\n';
  }
  if (report.symbolic && cli.str("proof-out") != "-") {
    std::ofstream os(cli.str("proof-out"));
    if (!os)
      throw util::Error("cannot open proof file '" + cli.str("proof-out") +
                        "'");
    check::write_symbolic_proof_json(
        os, *report.symbolic,
        {{"tool", "ftcf_tool check"},
         {"topology", fabric.spec().to_string()},
         {"router", lft_file.empty() ? cli.str("router") : "lft:" + lft_file},
         {"order", cli.str("order")},
         {"cps", cli.str("cps")}});
    std::cout << "wrote " << cli.str("proof-out") << '\n';
  }
  if (cli.str("write-baseline") != "-") {
    std::ofstream os(cli.str("write-baseline"));
    if (!os)
      throw util::Error("cannot open baseline file '" +
                        cli.str("write-baseline") + "'");
    check::write_baseline(report.diagnostics, os);
    std::cout << "wrote " << cli.str("write-baseline") << '\n';
  }
  if (cli.str("json") != "-") {
    std::ofstream os(cli.str("json"));
    if (!os)
      throw util::Error("cannot open JSON report '" + cli.str("json") + "'");
    // Meta is content-only (no thread counts / timestamps): the report is
    // byte-identical for every --threads value.
    report.diagnostics.write_json(
        os, {{"tool", "ftcf_tool check"},
             {"topology", fabric.spec().to_string()},
             {"router", lft_file.empty() ? cli.str("router")
                                         : "lft:" + lft_file}});
    std::cout << "wrote " << cli.str("json") << '\n';
  }
  if (cli.flag("profile")) obs::Profiler::instance().report(std::cerr);
  return report.diagnostics.exit_code(cli.flag("strict"));
}

int cmd_report(int argc, const char* const* argv) {
  util::Cli cli("ftcf_tool report",
                "full structural/routing/congestion report for a fabric; "
                "with --run-out/--html-out, one merged run-report document "
                "(simulate + certify + heatmap + metrics in one JSON)");
  add_fabric_options(cli);
  cli.add_option("trials", "random-order baseline trials", "3");
  cli.add_flag("no-theorems", "skip the exhaustive theorem checks");
  cli.add_option("router", "dmodk|ftree|updown|random", "dmodk");
  cli.add_option("cps", "CPS for the merged run report (see hsd)", "ring");
  cli.add_option("order", "node ordering for the merged run report", "topology");
  cli.add_option("kib", "message size in KiB for the merged run report", "16");
  cli.add_option("seed", "seed for randomized choices", "1");
  cli.add_option("run-out", "merged run-report JSON file ('-' = legacy text "
                 "report)", "-");
  cli.add_option("html-out", "merged run-report HTML file ('-' = skip)", "-");
  if (!cli.parse(argc, argv)) return 0;
  apply_threads(cli);
  const topo::Fabric fabric = load_fabric(cli);

  if (cli.str("run-out") == "-" && cli.str("html-out") == "-") {
    core::ReportOptions options;
    options.check_theorems = !cli.flag("no-theorems");
    options.random_trials = cli.positive_u32("trials");
    core::write_fabric_report(fabric, std::cout, options);
    return 0;
  }

  // Merged run-report mode: certify the plan, re-simulate it synchronized
  // with full telemetry, and fold every artifact into one document.
  const auto tables = load_tables(cli, fabric, nullptr);
  const auto ordering =
      load_ordering(cli.str("order"), fabric, cli.uinteger("seed"));
  const cps::Sequence seq = load_sequence(cli.str("cps"), fabric);

  check::CheckOptions check_options;
  check_options.ordering = &ordering;
  check_options.sequence = &seq;
  check_options.certify = true;
  const check::CheckReport check_report =
      check::run_check(fabric, tables, check_options);

  const std::map<std::string, std::string> meta = {
      {"tool", "ftcf_tool report"},
      {"topology", fabric.spec().to_string()},
      {"router", cli.str("router")},
      {"cps", cli.str("cps")},
      {"order", cli.str("order")},
      {"kib", std::to_string(cli.uinteger("kib"))}};

  obs::TraceRecorder trace;
  obs::MetricsRegistry metrics;
  obs::SimObserver observer;
  observer.trace = &trace;
  observer.metrics = &metrics;
  sim::PacketSim psim(fabric, tables);
  psim.set_observer(observer);
  const auto traffic = sim::traffic_from_cps(
      seq, ordering, fabric.num_hosts(), cli.kib_bytes("kib"));
  const auto result = psim.run(traffic, sim::Progression::kSynchronized);
  for (const auto& [key, value] : meta) metrics.set_meta(key, value);

  obs::ContentionHeatmap heatmap;
  heatmap.ingest(trace);

  tools::RunReportDoc doc;
  doc.meta = meta;
  doc.summary.makespan_us = sim::to_us(result.makespan);
  doc.summary.normalized_bw = result.normalized_bw;
  doc.summary.bytes_delivered = result.bytes_delivered;
  doc.summary.events = result.events;
  doc.summary.out_of_order_packets = result.out_of_order_packets;
  doc.summary.trace_events = trace.size();
  doc.summary.trace_dropped = trace.dropped();
  {
    std::ostringstream os;
    check::write_certificate_json(os, *check_report.certificate, meta);
    doc.certificate_json = os.str();
  }
  {
    std::ostringstream os;
    check_report.diagnostics.write_json(os, meta);
    doc.diagnostics_json = os.str();
  }
  {
    std::ostringstream os;
    metrics.write_json(os);
    doc.metrics_json = os.str();
  }
  {
    std::ostringstream os;
    obs::write_heatmap_json(os, heatmap, meta);
    doc.heatmap_json = os.str();
  }

  if (cli.str("run-out") != "-") {
    std::ofstream os(cli.str("run-out"), std::ios::binary | std::ios::trunc);
    if (!os)
      throw util::Error("cannot open run report '" + cli.str("run-out") + "'");
    tools::write_run_report_json(os, doc);
    std::cout << "wrote " << cli.str("run-out") << '\n';
  }
  if (cli.str("html-out") != "-") {
    std::ofstream os(cli.str("html-out"), std::ios::binary | std::ios::trunc);
    if (!os)
      throw util::Error("cannot open run report '" + cli.str("html-out") +
                        "'");
    tools::write_run_report_html(os, doc);
    std::cout << "wrote " << cli.str("html-out") << '\n';
  }
  return 0;
}

int cmd_theorems(int argc, const char* const* argv) {
  util::Cli cli("ftcf_tool theorems",
                "check Theorems 1-3 computationally on a fabric");
  add_fabric_options(cli);
  if (!cli.parse(argc, argv)) return 0;
  apply_threads(cli);
  const topo::Fabric fabric = load_fabric(cli);

  const auto t1 = core::check_theorem1(fabric);
  const auto t2 = core::check_theorem2(fabric);
  const auto t3 = core::check_theorem3(fabric);
  const auto show = [](const char* name, const core::TheoremReport& r) {
    std::cout << name << ": " << (r.holds ? "holds" : "VIOLATED") << " ("
              << r.stages_checked << " stages";
    if (!r.holds) std::cout << "; " << r.detail;
    std::cout << ")\n";
  };
  show("Theorem 1 (shift, up-going ports)", t1);
  show("Theorem 2 (shift, down-going ports)", t2);
  show("Theorem 3 (grouped recursive doubling)", t3);
  return t1.holds && t2.holds && t3.holds ? 0 : 1;
}

int cmd_churn(int argc, const char* const* argv) {
  util::Cli cli("ftcf_tool churn",
                "replay a fault/repair timeline with incremental D-Mod-K "
                "repair, incremental re-certification and per-event "
                "invariant checks");
  add_fabric_options(cli);
  add_fault_options(cli);
  cli.add_option("cps", "CPS name (see hsd)", "shift");
  cli.add_option("order", "node ordering (see hsd)", "topology");
  cli.add_option("seed", "seed for ordering and connectivity samples", "1");
  cli.add_option("sample-srcs",
                 "BFS-oracle source hosts sampled per event (0 = skip)", "8");
  cli.add_option("report", "campaign report JSON ('-' = skip)", "-");
  cli.add_option("metrics", "metrics JSON ('-' = skip)", "-");
  cli.add_flag("full-oracle",
               "recompute tables and certificate from scratch after every "
               "event and assert byte-identity (the differential oracle)");
  cli.add_flag("no-cdg", "skip the per-event CDG deadlock-freedom proof");
  cli.add_flag("profile", "time phases, report at exit");
  if (!cli.parse(argc, argv)) return 0;
  apply_threads(cli);
  if (cli.flag("profile")) {
    obs::Profiler::instance().set_enabled(true);
    obs::enable_par_timing();
  }
  const topo::Fabric fabric = load_fabric(cli);

  const fault::FaultSpec fault_spec = load_fault_spec(cli);
  const churn::Timeline timeline = churn::resolve_timeline(fabric, fault_spec);
  const auto ordering =
      load_ordering(cli.str("order"), fabric, cli.uinteger("seed"));
  const cps::Sequence seq = load_sequence(cli.str("cps"), fabric);

  obs::MetricsRegistry metrics;
  churn::CampaignOptions options;
  options.sample_srcs = cli.uinteger("sample-srcs");
  options.seed = cli.uinteger("seed");
  options.check_cdg = !cli.flag("no-cdg");
  options.full_oracle = cli.flag("full-oracle");
  options.metrics = &metrics;

  churn::CampaignReport report;
  try {
    report = churn::run_campaign(fabric, timeline, ordering, seq, options);
  } catch (const util::InvariantError& ex) {
    std::cerr << "churn invariant VIOLATED: " << ex.what() << '\n';
    return 1;
  }

  util::Table table({"metric", "value"});
  table.add_row({"timeline events", std::to_string(report.num_events)});
  table.add_row({"applied", std::to_string(report.applied_events)});
  table.add_row({"connectivity sweeps",
                 std::to_string(report.connectivity_checks)});
  table.add_row({"CDG proofs", std::to_string(report.cdg_checks)});
  table.add_row({"full-oracle checks", std::to_string(report.oracle_checks)});
  table.add_row({"final contention-free",
                 report.final_contention_free ? "yes" : "no"});
  if (!report.events.empty()) {
    const churn::EventOutcome& last = report.events.back();
    table.add_row({"final max HSD", std::to_string(last.max_hsd)});
    table.add_row({"final unrouted entries", std::to_string(last.unrouted)});
    table.add_row({"final non-pristine dests",
                   std::to_string(last.non_pristine)});
  }
  table.print(std::cout);

  const std::map<std::string, std::string> meta = {
      {"tool", "ftcf_tool churn"},
      {"fabric", fabric.spec().to_string()},
      {"cps", cli.str("cps")},
      {"order", cli.str("order")},
      {"faults", fault_spec.to_string()},
  };
  if (cli.str("report") != "-") {
    std::ofstream os(cli.str("report"), std::ios::binary | std::ios::trunc);
    if (!os)
      throw util::Error("cannot open report '" + cli.str("report") + "'");
    churn::write_campaign_json(os, report, meta);
    std::cout << "wrote " << cli.str("report") << '\n';
  }
  if (cli.str("metrics") != "-") {
    for (const auto& [key, value] : meta) metrics.set_meta(key, value);
    std::ofstream os(cli.str("metrics"), std::ios::binary | std::ios::trunc);
    if (!os)
      throw util::Error("cannot open metrics '" + cli.str("metrics") + "'");
    metrics.write_json(os);
    std::cout << "wrote " << cli.str("metrics") << '\n';
  }
  if (cli.flag("profile")) obs::Profiler::instance().report(std::cerr);
  return 0;
}

int run_main(int argc, char** argv) {
  const std::string usage =
      "usage: ftcf_tool "
      "<topo|route|hsd|simulate|inject|check|churn|theorems|report> "
      "[options]\n"
      "       ftcf_tool <command> --help for per-command options\n";
  if (argc < 2) {
    std::cerr << usage;
    return 2;
  }
  const std::string command = argv[1];
  if (command == "topo") return cmd_topo(argc - 1, argv + 1);
  if (command == "route") return cmd_route(argc - 1, argv + 1);
  if (command == "hsd") return cmd_hsd(argc - 1, argv + 1);
  if (command == "simulate") return cmd_simulate(argc - 1, argv + 1);
  if (command == "inject") return cmd_inject(argc - 1, argv + 1);
  if (command == "check") return cmd_check(argc - 1, argv + 1);
  if (command == "churn") return cmd_churn(argc - 1, argv + 1);
  if (command == "theorems") return cmd_theorems(argc - 1, argv + 1);
  if (command == "report") return cmd_report(argc - 1, argv + 1);
  std::cerr << "unknown command '" << command << "'\n" << usage;
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Typed library errors are usage/input mistakes: exit 2; anything else
  // escaping a command is an internal failure: exit 1.
  return util::guarded_main(argc, argv, run_main);
}
