// Collective audit: run real collectives (with data) over their permutation
// sequences, verify the results against sequential oracles, and estimate
// what each would cost on a fat-tree under three MPI node orders using the
// alpha-beta-HSD model.
//
//   $ ./collective_audit --nodes 128 --kib 64
#include <iostream>

#include "collectives/collectives.hpp"
#include "collectives/cost_model.hpp"
#include "collectives/oracle.hpp"
#include "routing/dmodk.hpp"
#include "topology/presets.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace ftcf;

std::vector<coll::Buffer> random_inputs(std::uint64_t ranks,
                                        std::uint64_t count,
                                        std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<coll::Buffer> inputs(ranks);
  for (auto& buf : inputs) {
    buf.resize(count);
    for (auto& e : buf) e = static_cast<coll::Element>(rng.below(10000));
  }
  return inputs;
}

int run_main(int argc, char** argv) {
  util::Cli cli("collective_audit",
                "verify collective content and estimate congestion cost");
  cli.add_option("nodes", "cluster size preset", "128");
  cli.add_option("kib", "payload per rank in KiB", "64");
  cli.add_option("seed", "input/order seed", "2718");
  if (!cli.parse(argc, argv)) return 0;

  const topo::Fabric fabric(topo::paper_cluster(cli.uinteger("nodes")));
  const std::uint64_t n = fabric.num_hosts();
  const std::uint64_t count = cli.kib_bytes("kib") / sizeof(coll::Element);
  const auto tables = route::DModKRouter{}.compute(fabric);
  const auto topo_order = order::NodeOrdering::topology(fabric);
  const auto rand_order = order::NodeOrdering::random(fabric, cli.uinteger("seed"));
  const auto adv_order = order::NodeOrdering::adversarial_ring(fabric);

  const auto inputs = random_inputs(n, count, cli.uinteger("seed"));

  struct Audit {
    std::string name;
    bool correct;
    coll::Trace trace;
  };
  std::vector<Audit> audits;

  {
    auto run = coll::allgather_ring(inputs);
    audits.push_back({"allgather (ring)",
                      run.outputs[0] == coll::oracle::gather(inputs),
                      std::move(run.trace)});
  }
  {
    auto run = coll::allreduce_recursive_doubling(coll::ReduceOp::kSum, inputs);
    audits.push_back(
        {"allreduce (recursive doubling)",
         run.outputs[n / 2] == coll::oracle::reduce(coll::ReduceOp::kSum, inputs),
         std::move(run.trace)});
  }
  {
    auto run = coll::bcast_binomial(n, inputs[0]);
    audits.push_back({"bcast (binomial)", run.outputs[n - 1] == inputs[0],
                      std::move(run.trace)});
  }
  {
    const auto blocks = random_inputs(n, n * 4, cli.uinteger("seed") + 1);
    auto run = coll::alltoall_pairwise(blocks, 4);
    audits.push_back({"alltoall (pairwise/shift)",
                      run.outputs == coll::oracle::alltoall(blocks, 4),
                      std::move(run.trace)});
  }

  util::Table table({"collective", "content", "stages",
                     "topology order", "random order", "adversarial order"});
  table.set_title("Collective audit on " + fabric.spec().to_string() +
                  " (alpha-beta-HSD completion estimate)");
  for (const Audit& audit : audits) {
    const auto t = coll::estimate_cost(audit.trace, fabric, tables, topo_order);
    const auto r = coll::estimate_cost(audit.trace, fabric, tables, rand_order);
    const auto a = coll::estimate_cost(audit.trace, fabric, tables, adv_order);
    table.add_row({audit.name, audit.correct ? "verified" : "WRONG",
                   std::to_string(audit.trace.sequence.num_stages()),
                   util::fmt_double(t.seconds * 1e3, 2) + " ms",
                   util::fmt_double(r.seconds * 1e3, 2) + " ms (x" +
                       util::fmt_double(r.seconds / t.seconds, 2) + ")",
                   util::fmt_double(a.seconds * 1e3, 2) + " ms (x" +
                       util::fmt_double(a.seconds / t.seconds, 2) + ")"});
  }
  table.print(std::cout);
  std::cout << "\nThe topology-order column is the paper's configuration: "
               "every stage at HSD 1.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ftcf::util::guarded_main(argc, argv, run_main);
}
