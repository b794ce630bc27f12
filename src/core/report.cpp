#include "core/report.hpp"

#include <algorithm>
#include <ostream>

#include "check/certify.hpp"
#include "core/plan.hpp"
#include "core/theorems.hpp"
#include "topology/validate.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace ftcf::core {

namespace {

/// Seed of the random-order baseline trials.
constexpr std::uint64_t kRandomOrderSeed = 1;

}  // namespace

void write_fabric_report(const topo::Fabric& fabric, std::ostream& os,
                         const ReportOptions& options) {
  const topo::PgftSpec& spec = fabric.spec();
  os << "=== fabric report: " << spec.to_string() << " ===\n";
  os << fabric.num_hosts() << " hosts, " << fabric.num_switches()
     << " switches over " << spec.height() << " levels, "
     << fabric.num_ports() << " ports";
  if (spec.is_rlft()) os << ", RLFT of arity K = " << spec.arity();
  os << "\n";

  const auto structure = topo::validate_fabric(fabric);
  const auto cbb = topo::validate_constant_cbb(fabric);
  os << "structure: " << (structure.ok ? "ok" : structure.problems.front())
     << "; constant CBB: " << (cbb.ok ? "yes" : "NO") << "\n";

  if (options.check_theorems) {
    const auto t1 = check_theorem1(fabric);
    const auto t2 = check_theorem2(fabric);
    const auto t3 = check_theorem3(fabric);
    os << "Theorem 1 (shift up-ports):    "
       << (t1.holds ? "holds" : t1.detail) << "\n"
       << "Theorem 2 (shift down-ports):  "
       << (t2.holds ? "holds" : t2.detail) << "\n"
       << "Theorem 3 (grouped doubling):  "
       << (t3.holds ? "holds" : t3.detail) << "\n";
  }

  const CollectivePlan plan(fabric);
  util::Table table({"CPS", "stages", "plan HSD", "random-order HSD (avg)"});
  for (const cps::CpsKind kind : cps::kAllCpsKinds) {
    const cps::Sequence seq = plan.sequence_for(kind);
    const auto baseline = random_order_hsd_ensemble(
        fabric, plan.tables(), cps::generate(kind, fabric.num_hosts()),
        options.random_trials, kRandomOrderSeed);
    table.add_row(
        {seq.name, std::to_string(seq.num_stages()),
         util::fmt_double(check::summarize(plan.audit(seq)).avg_max_hsd, 2),
         util::fmt_double(baseline.mean(), 2)});
  }
  table.print(os);
}

util::Accumulator random_order_hsd_ensemble(
    const topo::Fabric& fabric, const route::ForwardingTables& tables,
    const cps::Sequence& seq, std::uint32_t trials, std::uint64_t seed) {
  // Fixed-size trial blocks, independent of the thread count: block b owns
  // trials [b*kBlock, ...); each task accumulates its block in trial order
  // and the block accumulators merge in block order below, so the ensemble
  // statistics do not depend on how blocks were scheduled over threads.
  constexpr std::uint32_t kBlock = 4;
  const std::size_t num_blocks = (trials + kBlock - 1) / kBlock;
  const auto block_stats = par::parallel_map(
      num_blocks,
      [&](std::size_t block) {
        util::Accumulator acc;
        const std::uint32_t begin = static_cast<std::uint32_t>(block) * kBlock;
        const std::uint32_t end = std::min(trials, begin + kBlock);
        for (std::uint32_t t = begin; t < end; ++t) {
          const auto ordering =
              order::NodeOrdering::random(fabric, util::derive_seed(seed, t));
          acc.add(check::summarize(check::certify_contention_freedom(
                                       fabric, tables, ordering, seq))
                      .avg_max_hsd);
        }
        return acc;
      },
      par::ForOptions{.threads = 0, .grain = 1, .label = "hsd.ensemble"});

  util::Accumulator acc;
  for (const util::Accumulator& block : block_stats) acc.merge(block);
  return acc;
}

}  // namespace ftcf::core
