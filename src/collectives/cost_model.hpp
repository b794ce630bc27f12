// Alpha-beta-HSD cost model: collective completion time estimated as
//
//   T = sum over stages of ( alpha + bytes_stage * HSD_stage / link_bw )
//
// i.e. the classic alpha-beta model with the beta term stretched by the
// stage's hot-spot degree — the paper's observation that, with synchronized
// stage progression, "the maximal number of flows contending on all the
// links dictates the worst completion time for each stage" (§II). With
// HSD == 1 this reduces to the contention-oblivious model the literature
// uses; the ratio between the two quantifies what congestion costs.
#pragma once

#include "collectives/collectives.hpp"
#include "ordering/ordering.hpp"
#include "routing/lft.hpp"
#include "sim/ib_calibration.hpp"

namespace ftcf::coll {

struct CostEstimate {
  double seconds = 0.0;             ///< with measured per-stage HSD
  double ideal_seconds = 0.0;       ///< assuming HSD == 1 everywhere
  double congestion_factor = 1.0;   ///< seconds / ideal_seconds
  std::uint64_t stages = 0;
};

/// Estimate a traced collective's completion time on a fabric. Each stage's
/// HSD is read from the certificate of the trace's sequence under
/// `ordering` and `tables`.
[[nodiscard]] CostEstimate estimate_cost(
    const Trace& trace, const topo::Fabric& fabric,
    const route::ForwardingTables& tables, const order::NodeOrdering& ordering,
    const sim::Calibration& calib = sim::Calibration::qdr_pcie_gen2());

}  // namespace ftcf::coll
