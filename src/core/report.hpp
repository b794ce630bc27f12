// Fabric report: one human-readable summary combining the structural audit,
// the routing guarantees and the congestion profile of every CPS — the
// "show me everything about this cluster" entry point used by ftcf_tool —
// and the random-order HSD ensemble behind its baseline column and Fig. 3.
#pragma once

#include <cstdint>
#include <iosfwd>

#include "cps/stage.hpp"
#include "routing/lft.hpp"
#include "topology/fabric.hpp"
#include "util/stats.hpp"

namespace ftcf::core {

struct ReportOptions {
  bool check_theorems = true;   ///< run the (exhaustive) theorem checkers
  std::uint32_t random_trials = 3;  ///< random-order baseline trials
};

/// Render the full report for a fabric under D-Mod-K + topology ordering.
void write_fabric_report(const topo::Fabric& fabric, std::ostream& os,
                         const ReportOptions& options = {});

/// Fig. 3 ensemble: the sequence's avg-max-HSD under `trials` random
/// orderings, each certified by check::certify_contention_freedom; the
/// returned accumulator carries mean/min/max across trials. Trial t draws
/// its ordering from util::derive_seed(seed, t), so ensembles for different
/// base seeds share no trials. Trials run in parallel in fixed blocks whose
/// per-block accumulators merge in block order — the statistics are
/// byte-identical for any thread count.
[[nodiscard]] util::Accumulator random_order_hsd_ensemble(
    const topo::Fabric& fabric, const route::ForwardingTables& tables,
    const cps::Sequence& seq, std::uint32_t trials, std::uint64_t seed);

}  // namespace ftcf::core
