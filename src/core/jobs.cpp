#include "core/jobs.hpp"

#include <algorithm>

#include "check/certify.hpp"
#include "cps/generators.hpp"
#include "util/error.hpp"
#include "util/expects.hpp"

namespace ftcf::core {

std::vector<JobPlacement> allocate_jobs(
    const topo::Fabric& fabric, const std::vector<std::uint64_t>& job_sizes) {
  const std::uint64_t classes = order::num_sub_allocations(fabric);
  const std::uint64_t unit = fabric.num_hosts() / classes;

  std::uint64_t needed = 0;
  for (const std::uint64_t size : job_sizes) {
    if (size == 0 || size % unit != 0)
      throw util::SpecError(
          "job size " + std::to_string(size) +
          " is not a positive multiple of the sub-allocation size " +
          std::to_string(unit));
    needed += size / unit;
  }
  if (needed > classes)
    throw util::SpecError("jobs need " + std::to_string(needed) +
                          " sub-allocations; fabric has " +
                          std::to_string(classes));

  std::vector<JobPlacement> placements;
  placements.reserve(job_sizes.size());
  std::uint32_t next = 0;
  for (const std::uint64_t size : job_sizes) {
    std::vector<std::uint32_t> residues(size / unit);
    for (auto& r : residues) r = next++;
    auto ordering = order::NodeOrdering::residue_allocation(fabric, residues);
    placements.push_back(JobPlacement{std::move(residues), std::move(ordering)});
  }
  return placements;
}

InterferenceReport analyze_job_interference(
    const topo::Fabric& fabric, const route::ForwardingTables& tables,
    const std::vector<JobPlacement>& jobs) {
  util::expects(!jobs.empty(), "interference analysis needs jobs");
  InterferenceReport report;

  // Per-job shift sequences; stage counts differ, so the combined run wraps
  // shorter jobs (a job whose shift finished starts it again).
  std::vector<cps::Sequence> sequences;
  std::size_t longest = 0;
  for (const JobPlacement& job : jobs) {
    sequences.push_back(cps::shift(job.ordering.num_ranks()));
    longest = std::max(longest, sequences.back().num_stages());
    const auto solo = check::summarize(check::certify_contention_freedom(
        fabric, tables, job.ordering, sequences.back()));
    report.worst_single_job_hsd =
        std::max(report.worst_single_job_hsd, solo.worst_stage_hsd);
  }

  // Every network step's combined traffic, in host space: ranks of the
  // topology order are host indices.
  cps::Sequence combined{.name = "concurrent shifts",
                         .num_ranks = fabric.num_hosts(),
                         .stages = std::vector<cps::Stage>(longest)};
  for (std::size_t step = 0; step < longest; ++step) {
    std::vector<cps::Pair>& pairs = combined.stages[step].pairs;
    for (std::size_t k = 0; k < jobs.size(); ++k) {
      const auto flows = jobs[k].ordering.map_stage(
          sequences[k].stages[step % sequences[k].num_stages()]);
      pairs.insert(pairs.end(), flows.begin(), flows.end());
    }
  }
  report.worst_combined_hsd =
      check::summarize(check::certify_contention_freedom(
                           fabric, tables,
                           order::NodeOrdering::topology(fabric), combined))
          .worst_stage_hsd;
  report.isolated = report.worst_combined_hsd <= 1;
  return report;
}

}  // namespace ftcf::core
