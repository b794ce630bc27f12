// Table 3 reproduction: the paper's case matrix. For 2- and 3-level RLFTs,
// fully and partially populated, running the Shift CPS (superset of all
// unidirectional CPS) and the §VI grouped Recursive-Doubling:
//
//   * with D-Mod-K routing and the proposed MPI node order the measured
//     Hot-Spot-Degree is exactly 1 (congestion-free) in every case;
//   * the "Random Ranking Avg HSD" column shows what random order costs on
//     the same fabric — the paper reports improvement factors up to 5.2.
//
// Partial populations: the paper's sub-allocations (§V) are residue classes
// of the host index modulo N / prod(w); "Cont.-X" rows use the first X such
// classes. A final ablation section shows that *randomly excluding* nodes
// and compacting ranks — a scheme the paper leaves unspecified — is NOT
// always congestion-free, which is why structured sub-allocations matter.
#include <iostream>

#include "analysis/hsd.hpp"
#include "core/grouped_rd.hpp"
#include "core/plan.hpp"
#include "cps/generators.hpp"
#include "routing/dmodk.hpp"
#include "topology/presets.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace ftcf;

struct CaseResult {
  double ordered_hsd = 0.0;
  double random_hsd = 0.0;
};

double sequence_hsd(const analysis::HsdAnalyzer& analyzer,
                    const cps::Sequence& seq,
                    const order::NodeOrdering& ordering) {
  return analyzer.analyze_sequence(seq, ordering).avg_max_hsd;
}

/// Random-rank baseline over the same participant set. Trials run in
/// parallel; per-trial values fold in trial order, and trial t's seed comes
/// from util::derive_seed so cases with adjacent base seeds share nothing.
double random_rank_hsd(const analysis::HsdAnalyzer& analyzer,
                       const cps::Sequence& seq,
                       std::vector<std::uint64_t> hosts,
                       std::uint64_t fabric_hosts, std::uint32_t trials,
                       std::uint64_t seed) {
  const auto per_trial = par::parallel_map(
      trials,
      [&](std::size_t t) {
        const auto ordering = order::NodeOrdering::random_subset(
            hosts, fabric_hosts, util::derive_seed(seed, t));
        return analyzer.analyze_sequence(seq, ordering).avg_max_hsd;
      },
      par::ForOptions{.threads = 0, .grain = 1, .label = "table3.trial"});
  util::Accumulator acc;
  for (const double v : per_trial) acc.add(v);
  return acc.mean();
}

int run_main(int argc, char** argv) {
  util::Cli cli("table3_hsd_cases",
                "Table 3: HSD of proposed routing+ordering vs random ranking "
                "across RLFT cases");
  cli.add_option("trials", "random orders per case", "5");
  cli.add_option("seed", "base seed", "42");
  cli.add_option("threads", "worker threads (0 = all cores)", "0");
  cli.add_flag("csv", "CSV output");
  cli.add_flag("skip-large", "skip the 1728/1944-node cases");
  if (!cli.parse(argc, argv)) return 0;
  par::set_default_threads(static_cast<std::uint32_t>(cli.uinteger("threads")));

  const auto trials = static_cast<std::uint32_t>(cli.uinteger("trials"));
  const std::uint64_t seed = cli.uinteger("seed");

  struct Case {
    std::string name;
    std::uint64_t nodes;
    double populated;  ///< fraction of sub-allocation residues used
  };
  std::vector<Case> cases = {
      {"2-level K=8 full", 128, 1.0},
      {"2-level K=18 (324) full", 324, 1.0},
      {"2-level K=18 (324) Cont.-1/2", 324, 0.5},
      {"2-level K=18 (648) full", 648, 1.0},
      {"2-level K=18 (648) Cont.-1/3", 648, 1.0 / 3},
      {"3-level K=12 (1728) full", 1728, 1.0},
      {"3-level K=12 (1728) Cont.-1/2", 1728, 0.5},
      {"3-level K=18 (1944) full", 1944, 1.0},
      {"3-level K=18 (1944) Cont.-1/3", 1944, 1.0 / 3},
  };
  if (cli.flag("skip-large")) {
    std::erase_if(cases, [](const Case& c) { return c.nodes > 1000; });
  }

  util::Table table({"case", "topology", "job size", "CPS",
                     "ordered HSD", "random rank avg HSD", "improvement"});
  table.set_title("Table 3 — D-Mod-K + proposed order vs random ranking (" +
                  std::to_string(trials) + " random trials)");

  for (const Case& c : cases) {
    const topo::Fabric fabric(topo::paper_cluster(c.nodes));
    const auto lfts = route::DModKRouter{}.compute(fabric);
    const analysis::HsdAnalyzer analyzer(fabric, lfts);

    // Participant set: full fabric or the first residue classes.
    const std::uint64_t residues_total = order::num_sub_allocations(fabric);
    const auto used = static_cast<std::uint32_t>(
        std::max<double>(1.0, c.populated * static_cast<double>(residues_total)));
    std::vector<std::uint32_t> residues(used);
    for (std::uint32_t r = 0; r < used; ++r) residues[r] = r;
    const auto ordering =
        c.populated >= 1.0
            ? order::NodeOrdering::topology(fabric)
            : order::NodeOrdering::residue_allocation(fabric, residues);
    const std::uint64_t p = ordering.num_ranks();
    std::vector<std::uint64_t> hosts(ordering.hosts().begin(),
                                     ordering.hosts().end());

    // Shift (covers every unidirectional CPS).
    {
      const cps::Sequence seq = cps::shift(p);
      const double ordered = sequence_hsd(analyzer, seq, ordering);
      const double random = random_rank_hsd(analyzer, seq, hosts,
                                            fabric.num_hosts(), trials, seed);
      table.add_row({c.name, fabric.spec().to_string(), std::to_string(p),
                     "shift", util::fmt_double(ordered, 2),
                     util::fmt_double(random, 2),
                     "x" + util::fmt_double(random / ordered, 1)});
    }
    // Grouped recursive doubling (covers the bidirectional CPS).
    {
      const cps::Sequence seq =
          c.populated >= 1.0
              ? core::grouped_recursive_doubling(fabric)
              : core::grouped_recursive_doubling(fabric, hosts);
      const double ordered = sequence_hsd(analyzer, seq, ordering);
      // Baseline: naive recursive doubling over randomly ranked nodes.
      const cps::Sequence naive = cps::recursive_doubling(p);
      const double random = random_rank_hsd(analyzer, naive, hosts,
                                            fabric.num_hosts(), trials, seed);
      table.add_row({c.name, fabric.spec().to_string(), std::to_string(p),
                     "grouped-RD", util::fmt_double(ordered, 2),
                     util::fmt_double(random, 2),
                     "x" + util::fmt_double(random / ordered, 1)});
    }
    util::log_info("table3: ", c.name, " done");
  }

  if (cli.flag("csv")) table.print_csv(std::cout);
  else table.print(std::cout);

  // Ablation: random exclusion with compact ranking is not guaranteed HSD 1.
  std::cout << "\nAblation — random exclusion + compact ranks (the paper "
               "leaves partial-job ranking\nunspecified; structured "
               "sub-allocations above are provably clean, this is not):\n";
  {
    const topo::Fabric fabric(topo::paper_cluster(324));
    const auto lfts = route::DModKRouter{}.compute(fabric);
    const analysis::HsdAnalyzer analyzer(fabric, lfts);
    util::Xoshiro256 rng(seed);
    util::Accumulator acc;
    for (std::uint32_t t = 0; t < trials; ++t) {
      const auto subset = util::random_subset(324, 243, rng);
      std::vector<std::uint64_t> hosts(subset.begin(), subset.end());
      const auto ordering =
          order::NodeOrdering::compact_subset(hosts, fabric.num_hosts());
      acc.add(
          analyzer.analyze_sequence(cps::shift(hosts.size()), ordering)
              .avg_max_hsd);
    }
    std::cout << "  324-node fabric, 243 random participants, shift, compact "
                 "ranks: avg HSD "
              << util::fmt_double(acc.mean(), 2) << " (min "
              << util::fmt_double(acc.min(), 2) << ", max "
              << util::fmt_double(acc.max(), 2) << ") — > 1.\n";
  }
  std::cout << "\nPaper check: every 'ordered HSD' cell reads 1.00 "
               "(congestion-free); the paper's\nTable 3 reports random-"
               "ranking improvement factors up to 5.2.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ftcf::util::guarded_main(argc, argv, run_main);
}
