#include "collectives/cost_model.hpp"

#include <algorithm>

#include "check/certify.hpp"
#include "util/expects.hpp"

namespace ftcf::coll {

CostEstimate estimate_cost(const Trace& trace, const topo::Fabric& fabric,
                           const route::ForwardingTables& tables,
                           const order::NodeOrdering& ordering,
                           const sim::Calibration& calib) {
  util::expects(trace.bytes_per_pair.size() == trace.sequence.stages.size(),
                "trace bytes must align with stages");
  const check::Certificate cert =
      check::certify_contention_freedom(fabric, tables, ordering,
                                        trace.sequence);
  const double alpha = static_cast<double>(calib.mpi_overhead_ns) * 1e-9;
  const double beta = 1.0 / calib.host_bw_bytes_per_sec;

  CostEstimate est;
  for (std::size_t s = 0; s < trace.sequence.stages.size(); ++s) {
    if (trace.sequence.stages[s].empty()) continue;
    ++est.stages;
    const double bytes = static_cast<double>(trace.bytes_per_pair[s]);
    const double hsd = std::max<std::uint32_t>(cert.stages[s].max_hsd, 1);
    est.seconds += alpha + bytes * beta * hsd;
    est.ideal_seconds += alpha + bytes * beta;
  }
  est.congestion_factor =
      est.ideal_seconds > 0 ? est.seconds / est.ideal_seconds : 1.0;
  return est;
}

}  // namespace ftcf::coll
