// Multi-job allocation (extension).
//
// §V ends with: "Since this paper focuses on running a single very large
// job, it is beyond the scope of this paper to describe how [multiple jobs]
// can be allocated and routed to meet congestion-free traffic."
//
// This module implements the natural completion of the paper's own
// machinery: jobs are allocated on disjoint unions of §V sub-allocations
// (residue classes of the host index modulo N / prod(w)). Each job then gets
// its own compact rank order, and — because every job's Shift stage is a
// subset of a full-fabric Shift stage family — the *combined* concurrent
// traffic is certified for cross-job interference by the same
// check::certify_contention_freedom that certifies each job alone.
#pragma once

#include <vector>

#include "ordering/ordering.hpp"
#include "routing/lft.hpp"
#include "topology/fabric.hpp"

namespace ftcf::core {

struct JobPlacement {
  std::vector<std::uint32_t> residues;   ///< sub-allocation classes used
  order::NodeOrdering ordering;          ///< compact ranks over those hosts
};

/// Allocate jobs onto disjoint residue classes. `job_sizes` are node counts;
/// each must be a positive multiple of the sub-allocation size
/// N / num_sub_allocations, and they must fit the fabric. Throws
/// util::SpecError otherwise. Residues are handed out in ascending order.
[[nodiscard]] std::vector<JobPlacement> allocate_jobs(
    const topo::Fabric& fabric, const std::vector<std::uint64_t>& job_sizes);

struct InterferenceReport {
  std::uint32_t worst_single_job_hsd = 0;  ///< each job alone
  std::uint32_t worst_combined_hsd = 0;    ///< all jobs at once
  bool isolated = false;  ///< combined == 1: no cross-job interference
};

/// Run every job's Shift CPS concurrently (stage s of each job in the same
/// network step, shorter jobs wrap around) under D-Mod-K and certify the
/// combined traffic as one host-space sequence.
[[nodiscard]] InterferenceReport analyze_job_interference(
    const topo::Fabric& fabric, const route::ForwardingTables& tables,
    const std::vector<JobPlacement>& jobs);

}  // namespace ftcf::core
