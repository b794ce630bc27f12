// Ablation B: the §VI grouped Recursive-Doubling vs the naive global-XOR
// sequence, both under D-Mod-K and topology order.
//
// On power-of-two fabrics the naive sequence happens to align with D-Mod-K's
// digit arithmetic; on the real 36-port (K = 18) topologies it congests, and
// the grouped construction is what restores HSD 1. The bench also quantifies
// the cost difference with the alpha-beta-HSD model and counts the extra
// pre/post stages the grouping pays for non-power-of-two switch arities.
#include <iostream>

#include "analysis/hsd.hpp"
#include "collectives/collectives.hpp"
#include "collectives/cost_model.hpp"
#include "core/grouped_rd.hpp"
#include "cps/generators.hpp"
#include "obs/profile.hpp"
#include "routing/dmodk.hpp"
#include "topology/presets.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"
#include "util/table.hpp"

namespace {

int run_main(int argc, char** argv) {
  using namespace ftcf;

  util::Cli cli("ablation_grouped_rd",
                "grouped vs naive recursive doubling under D-Mod-K + "
                "topology order");
  cli.add_option("kib", "allreduce payload per rank in KiB", "64");
  cli.add_flag("csv", "CSV output");
  cli.add_flag("profile", "time fabric/routing-table construction");
  cli.add_option("threads", "worker threads (0 = all cores)", "0");
  if (!cli.parse(argc, argv)) return 0;
  par::set_default_threads(static_cast<std::uint32_t>(cli.uinteger("threads")));
  if (cli.flag("profile")) {
    obs::Profiler::instance().reset();
    obs::Profiler::instance().set_enabled(true);
  }

  util::Table table({"fabric", "sequence", "stages", "worst HSD",
                     "est. allreduce time", "vs naive"});
  table.set_title("Grouped vs naive recursive doubling");

  for (const std::uint64_t nodes : {128ull, 324ull, 1944ull}) {
    const topo::Fabric fabric(topo::paper_cluster(nodes));
    const auto lfts = route::DModKRouter{}.compute(fabric);
    const analysis::HsdAnalyzer analyzer(fabric, lfts);
    const auto ordering = order::NodeOrdering::topology(fabric);
    const std::uint64_t bytes = cli.uinteger("kib") * 1024;

    struct Variant {
      const char* name;
      cps::Sequence seq;
    };
    Variant variants[] = {
        {"naive RD", cps::recursive_doubling(fabric.num_hosts())},
        {"grouped RD (§VI)", core::grouped_recursive_doubling(fabric)},
    };

    double naive_seconds = 0.0;
    for (const Variant& v : variants) {
      const auto metrics = analyzer.analyze_sequence(v.seq, ordering);
      // Alpha-beta-HSD estimate with equal payload per stage.
      coll::Trace trace;
      trace.sequence = v.seq;
      trace.bytes_per_pair.assign(v.seq.num_stages(), bytes);
      const auto est =
          coll::estimate_cost(trace, fabric, lfts, ordering);
      if (v.name[0] == 'n') naive_seconds = est.seconds;
      table.add_row(
          {fabric.spec().to_string(), v.name,
           std::to_string(v.seq.num_stages()),
           std::to_string(metrics.worst_stage_hsd),
           util::fmt_double(est.seconds * 1e3, 2) + " ms",
           naive_seconds > 0
               ? util::fmt_double(naive_seconds / est.seconds, 2) + "x"
               : "-"});
    }
  }

  if (cli.flag("csv")) table.print_csv(std::cout);
  else table.print(std::cout);
  std::cout << "\nOn K=18 fabrics the naive sequence congests (HSD > 1) and "
               "the grouped sequence\nwins despite its extra fold/unfold "
               "stages; on the power-of-two K=8 fabric both\nare clean and "
               "naive is (marginally) cheaper — grouping costs nothing it "
               "does not repay.\n";
  if (cli.flag("profile")) obs::Profiler::instance().report(std::cerr);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ftcf::util::guarded_main(argc, argv, run_main);
}
