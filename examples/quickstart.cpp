// Quickstart: build a real-life fat-tree, compute the paper's contention-free
// plan (D-Mod-K routing + topology node order + grouped bidirectional
// sequences), and verify that every MPI collective pattern crosses the
// network without a single hot spot.
//
//   $ ./quickstart [--nodes 324]
#include <iostream>

#include "core/plan.hpp"
#include "core/theorems.hpp"
#include "topology/presets.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

int run_main(int argc, char** argv) {
  using namespace ftcf;

  util::Cli cli("quickstart", "contention-free collectives in five calls");
  cli.add_option("nodes", "paper cluster size (16/128/324/648/1728/1944)",
                 "324");
  if (!cli.parse(argc, argv)) return 0;

  // 1. A topology: the paper's 324-node cluster of 36-port switches.
  const topo::Fabric fabric(topo::paper_cluster(cli.uinteger("nodes")));
  std::cout << "fabric: " << fabric.spec().to_string() << " — "
            << fabric.num_hosts() << " hosts, " << fabric.num_switches()
            << " switches, RLFT: " << std::boolalpha
            << fabric.spec().is_rlft() << "\n\n";

  // 2. The plan: routing tables + MPI node order, one constructor call.
  const core::CollectivePlan plan(fabric);

  // 3. Certify every collective permutation sequence under the plan.
  util::Table table({"CPS", "stages", "worst HSD", "congestion-free"});
  for (const cps::CpsKind kind : cps::kAllCpsKinds) {
    const cps::Sequence seq = plan.sequence_for(kind);
    const check::Certificate cert = plan.audit(seq);
    table.add_row({seq.name, std::to_string(seq.num_stages()),
                   std::to_string(check::summarize(cert).worst_stage_hsd),
                   cert.contention_free ? "yes" : "NO"});
  }
  table.print(std::cout);

  // 4. The theorems, checked computationally on this very fabric.
  const auto t1 = core::check_theorem1(fabric);
  const auto t3 = core::check_theorem3(fabric);
  std::cout << "\nTheorem 1 (shift up-ports):   "
            << (t1.holds ? "holds" : t1.detail) << " over "
            << t1.stages_checked << " stages\n"
            << "Theorem 3 (grouped doubling): "
            << (t3.holds ? "holds" : t3.detail) << " over "
            << t3.stages_checked << " stages\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ftcf::util::guarded_main(argc, argv, run_main);
}
