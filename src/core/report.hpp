// Fabric report: one human-readable summary combining the structural audit,
// the routing guarantees and the congestion profile of every CPS — the
// "show me everything about this cluster" entry point used by ftcf_tool.
#pragma once

#include <cstdint>
#include <iosfwd>

#include "routing/lft.hpp"
#include "topology/fabric.hpp"

namespace ftcf::core {

struct ReportOptions {
  bool check_theorems = true;   ///< run the (exhaustive) theorem checkers
  std::uint32_t random_trials = 3;  ///< random-order baseline trials
};

/// Render the full report for a fabric under D-Mod-K + topology ordering.
void write_fabric_report(const topo::Fabric& fabric, std::ostream& os,
                         const ReportOptions& options = {});

}  // namespace ftcf::core
