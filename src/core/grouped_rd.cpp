#include "core/grouped_rd.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <numeric>
#include <vector>

#include "util/error.hpp"
#include "util/expects.hpp"

namespace ftcf::core {

using topo::Fabric;
using topo::PgftSpec;

namespace {

/// Participants of one occupied level-l subtree, grouped by occupied child:
/// groups[g][r] is the rank of the r-th member (ascending host order) of the
/// g-th occupied child.
struct SubtreeGroups {
  std::vector<std::vector<cps::Rank>> groups;
};

std::uint32_t floor_log2_u64(std::uint64_t v) {
  return 63u - static_cast<std::uint32_t>(std::countl_zero(v));
}

cps::Sequence reversed(cps::Sequence seq) {
  std::reverse(seq.stages.begin(), seq.stages.end());
  // Played backwards, fold and unfold stages swap roles and directions.
  for (cps::Stage& stage : seq.stages) {
    if (stage.role == cps::StageRole::kExchange) continue;
    stage.role = stage.role == cps::StageRole::kFold ? cps::StageRole::kUnfold
                                                     : cps::StageRole::kFold;
    for (cps::Pair& pr : stage.pairs) std::swap(pr.src, pr.dst);
  }
  seq.name = "grouped-recursive-halving";
  return seq;
}

}  // namespace

cps::Sequence grouped_recursive_doubling(
    const Fabric& fabric, std::span<const std::uint64_t> participants) {
  util::expects(!participants.empty(), "grouped RD needs participants");
  util::expects(std::is_sorted(participants.begin(), participants.end()),
                "participants must be sorted ascending by host index");
  const PgftSpec& spec = fabric.spec();

  cps::Sequence seq{.name = "grouped-recursive-doubling",
                    .num_ranks = participants.size(),
                    .stages = {}};

  for (std::uint32_t l = 1; l <= spec.height(); ++l) {
    const std::uint64_t m_below = spec.m_prefix_product(l - 1);
    const std::uint64_t m_here = spec.m_prefix_product(l);

    // Group ranks by (level-l subtree, occupied child within it).
    std::map<std::uint64_t, std::map<std::uint64_t, std::vector<cps::Rank>>>
        subtrees;
    for (cps::Rank r = 0; r < participants.size(); ++r) {
      const std::uint64_t host = participants[r];
      subtrees[host / m_here][(host / m_below) % spec.m(l)].push_back(r);
    }

    // Uniformity: every occupied subtree exposes the same number of occupied
    // children, each with the same member count.
    std::vector<SubtreeGroups> flat;
    std::size_t group_count = 0, member_count = 0;
    bool first = true;
    for (auto& [subtree_id, children] : subtrees) {
      SubtreeGroups sg;
      for (auto& [child_digit, members] : children)
        sg.groups.push_back(std::move(members));
      if (first) {
        group_count = sg.groups.size();
        member_count = sg.groups.front().size();
        first = false;
      }
      if (sg.groups.size() != group_count)
        throw util::SpecError(
            "grouped RD: uneven child occupancy at level " + std::to_string(l));
      for (const auto& g : sg.groups)
        if (g.size() != member_count)
          throw util::SpecError(
              "grouped RD: uneven member counts at level " + std::to_string(l));
      flat.push_back(std::move(sg));
    }

    if (group_count <= 1) continue;  // nothing to exchange at this level

    const std::uint32_t rounds = floor_log2_u64(group_count);
    const std::uint64_t n2 = 1ULL << rounds;
    const std::uint64_t extras = group_count - n2;

    const auto emit = [&](cps::StageRole role, auto&& pair_fn) {
      cps::Stage stage;
      stage.role = role;
      for (const SubtreeGroups& sg : flat) pair_fn(sg, stage);
      if (!stage.empty()) seq.stages.push_back(std::move(stage));
    };

    if (extras > 0) {
      // Pre: fold child positions past the last power of two onto proxies.
      emit(cps::StageRole::kFold,
           [&](const SubtreeGroups& sg, cps::Stage& stage) {
             for (std::uint64_t g = n2; g < group_count; ++g)
               for (std::size_t r = 0; r < member_count; ++r)
                 stage.pairs.push_back({sg.groups[g][r], sg.groups[g - n2][r]});
           });
    }
    for (std::uint32_t s = 0; s < rounds; ++s) {
      const std::uint64_t step = 1ULL << s;
      emit(cps::StageRole::kExchange,
           [&](const SubtreeGroups& sg, cps::Stage& stage) {
             for (std::uint64_t g = 0; g < n2; ++g)
               for (std::size_t r = 0; r < member_count; ++r)
                 stage.pairs.push_back({sg.groups[g][r], sg.groups[g ^ step][r]});
           });
    }
    if (extras > 0) {
      // Post: proxies return the result to the folded positions.
      emit(cps::StageRole::kUnfold,
           [&](const SubtreeGroups& sg, cps::Stage& stage) {
             for (std::uint64_t g = n2; g < group_count; ++g)
               for (std::size_t r = 0; r < member_count; ++r)
                 stage.pairs.push_back({sg.groups[g - n2][r], sg.groups[g][r]});
           });
    }
  }
  return seq;
}

cps::Sequence grouped_recursive_doubling(const Fabric& fabric) {
  std::vector<std::uint64_t> all(fabric.num_hosts());
  std::iota(all.begin(), all.end(), std::uint64_t{0});
  return grouped_recursive_doubling(fabric, all);
}

cps::Sequence grouped_recursive_halving(const Fabric& fabric) {
  return reversed(grouped_recursive_doubling(fabric));
}

}  // namespace ftcf::core
