#include "core/report.hpp"

#include <ostream>

#include "analysis/hsd.hpp"
#include "core/plan.hpp"
#include "core/theorems.hpp"
#include "topology/validate.hpp"
#include "util/table.hpp"

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
    const auto audit = plan.audit(seq);
    const auto baseline = analysis::random_order_hsd_ensemble(
        fabric, plan.tables(), cps::generate(kind, fabric.num_hosts()),
        options.random_trials, kRandomOrderSeed);
    table.add_row({seq.name, std::to_string(seq.num_stages()),
                   util::fmt_double(audit.metrics.avg_max_hsd, 2),
                   util::fmt_double(baseline.mean(), 2)});
  }
  table.print(os);
}

}  // namespace ftcf::core
