#include "check/vl_optimal.hpp"

#include <algorithm>
#include <numeric>

#include "check/depgraph.hpp"
#include "obs/profile.hpp"
#include "util/expects.hpp"
#include "util/thread_pool.hpp"

namespace ftcf::check {

namespace {

constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);

std::vector<std::uint64_t> merge_edges(const std::vector<std::uint64_t>& a,
                                       const std::vector<std::uint64_t>& b) {
  std::vector<std::uint64_t> out;
  out.reserve(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// The DSATUR-ordered exact search for a feasible k-lane placement of the
/// suspects. One instance is reused across decreasing k so the node budget
/// is cumulative.
class LaneSearch {
 public:
  enum class Result : std::uint8_t { kFeasible, kInfeasible, kBudget };

  LaneSearch(std::size_t num_suspects, std::size_t num_compact,
             const std::vector<std::uint64_t>& adj, std::size_t words,
             const std::vector<std::uint32_t>& degree,
             const std::vector<std::vector<std::uint64_t>>& restricted,
             const std::vector<std::uint32_t>& clique,
             std::uint64_t node_budget)
      : s_(num_suspects),
        num_compact_(num_compact),
        adj_(adj),
        words_(words),
        degree_(degree),
        restricted_(restricted),
        clique_(clique),
        budget_(node_budget) {}

  [[nodiscard]] std::uint64_t nodes_explored() const noexcept {
    return nodes_;
  }

  /// Search for a feasible placement using at most `k` lanes. On kFeasible,
  /// `lanes_out` holds one lane per suspect and `used_out` the number of
  /// distinct lanes it occupies (== max lane + 1; may be < k).
  Result run(std::uint32_t k, std::vector<std::uint32_t>& lanes_out,
             std::uint32_t& used_out) {
    if (clique_.size() > k) return Result::kInfeasible;
    k_ = k;
    lane_of_.assign(s_, kNone);
    lanes_used_ = 0;
    lane_edges_.assign(k, {});
    cnt_.assign(s_ * k, 0);
    sat_.assign(s_, 0);
    budget_hit_ = false;

    // Symmetry breaking: any feasible assignment gives clique members
    // pairwise distinct lanes, so WLOG clique[i] sits on lane i.
    for (std::uint32_t i = 0; i < clique_.size(); ++i)
      place(clique_[i], i);

    const bool feasible = dfs();
    if (budget_hit_) return Result::kBudget;
    if (!feasible) return Result::kInfeasible;
    lanes_out = lane_of_;
    used_out = lanes_used_;
    return Result::kFeasible;
  }

 private:
  [[nodiscard]] bool adjacent(std::uint32_t u, std::uint32_t v) const {
    return (adj_[u * words_ + (v >> 6)] >> (v & 63)) & 1u;
  }

  void place(std::uint32_t v, std::uint32_t lane) {
    lane_of_[v] = lane;
    lanes_used_ = std::max(lanes_used_, lane + 1);
    lane_edges_[lane] = merge_edges(lane_edges_[lane], restricted_[v]);
    for (std::uint32_t u = 0; u < s_; ++u) {
      if (!adjacent(v, u)) continue;
      if (cnt_[u * k_ + lane]++ == 0) ++sat_[u];
    }
  }

  /// DSATUR vertex choice: max saturation, tie max conflict degree, tie
  /// lowest index — fully deterministic.
  [[nodiscard]] std::uint32_t next_vertex() const {
    std::uint32_t best = kNone;
    for (std::uint32_t v = 0; v < s_; ++v) {
      if (lane_of_[v] != kNone) continue;
      if (best == kNone || sat_[v] > sat_[best] ||
          (sat_[v] == sat_[best] && degree_[v] > degree_[best]))
        best = v;
    }
    return best;
  }

  bool dfs() {
    const std::uint32_t v = next_vertex();
    if (v == kNone) return true;  // every suspect placed
    // Try existing lanes in order plus at most one fresh lane (empty lanes
    // are interchangeable, so opening a specific one loses no solutions).
    const std::uint32_t tryable = std::min(lanes_used_ + 1, k_);
    for (std::uint32_t lane = 0; lane < tryable; ++lane) {
      if (cnt_[v * k_ + lane] != 0) continue;  // conflicting neighbor there
      if (++nodes_ > budget_) {
        budget_hit_ = true;
        return false;
      }
      std::vector<std::uint64_t> merged =
          merge_edges(lane_edges_[lane], restricted_[v]);
      if (!dependencies_acyclic(num_compact_, merged)) continue;

      std::vector<std::uint64_t> saved = std::move(lane_edges_[lane]);
      lane_edges_[lane] = std::move(merged);
      const bool opened = lane == lanes_used_;
      if (opened) ++lanes_used_;
      lane_of_[v] = lane;
      for (std::uint32_t u = 0; u < s_; ++u) {
        if (!adjacent(v, u)) continue;
        if (cnt_[u * k_ + lane]++ == 0) ++sat_[u];
      }

      if (dfs()) return true;

      for (std::uint32_t u = 0; u < s_; ++u) {
        if (!adjacent(v, u)) continue;
        if (--cnt_[u * k_ + lane] == 0) --sat_[u];
      }
      lane_of_[v] = kNone;
      if (opened) --lanes_used_;
      lane_edges_[lane] = std::move(saved);
      if (budget_hit_) return false;
    }
    return false;
  }

  std::size_t s_;
  std::size_t num_compact_;
  const std::vector<std::uint64_t>& adj_;
  std::size_t words_;
  const std::vector<std::uint32_t>& degree_;
  const std::vector<std::vector<std::uint64_t>>& restricted_;
  const std::vector<std::uint32_t>& clique_;
  std::uint64_t budget_;
  std::uint64_t nodes_ = 0;
  bool budget_hit_ = false;

  std::uint32_t k_ = 0;
  std::vector<std::uint32_t> lane_of_;
  std::uint32_t lanes_used_ = 0;
  std::vector<std::vector<std::uint64_t>> lane_edges_;
  std::vector<std::uint16_t> cnt_;
  std::vector<std::uint32_t> sat_;
};

}  // namespace

VlOptimality prove_vl_optimality(
    const topo::Fabric& fabric,
    std::span<const std::vector<std::uint64_t>> per_dest,
    std::uint32_t max_lanes, VlAssignment& assignment,
    const VlOptimalityOptions& options) {
  FTCF_PROF_SCOPE("check.vl.optimal");
  util::expects(max_lanes >= 1 && max_lanes <= 64,
                "lane-minimality proof supports 1..64 lanes");
  util::expects(assignment.lane_of_dest.size() == per_dest.size(),
                "assignment and dependency sets must cover the same hosts");
  const std::uint64_t n = per_dest.size();
  const std::size_t num_channels = switch_channels(fabric).size();

  VlOptimality out;
  out.node_budget = options.node_budget;
  if (assignment.complete())
    out.upper_bound = std::max<std::uint32_t>(assignment.num_lanes, 1);

  // Destinations the greedy search left out fall in two classes; only a
  // cyclic own-set is beyond repair (anything assigned has an acyclic set by
  // construction — it sits in a lane whose whole union is acyclic).
  for (const std::uint64_t d : assignment.unassigned)
    if (!dependencies_acyclic(num_channels, per_dest[d]))
      out.unfixable.push_back(d);
  if (!out.unfixable.empty()) return out;

  // The full union graph and its cyclic SCCs. A cycle in *any* subset union
  // is a cycle here, confined to one cyclic SCC — so only edges with both
  // endpoints inside the same cyclic SCC ("hazard edges") can ever matter.
  std::vector<std::uint64_t> all;
  {
    std::size_t total = 0;
    for (const auto& deps : per_dest) total += deps.size();
    all.reserve(total);
    for (const auto& deps : per_dest)
      all.insert(all.end(), deps.begin(), deps.end());
    std::sort(all.begin(), all.end());
    all.erase(std::unique(all.begin(), all.end()), all.end());
  }
  const ChannelGraph graph = build_graph(num_channels, all);
  const SccPartition sccs = scc_partition(graph);
  const auto hazard = [&](std::uint64_t e) {
    const auto a = static_cast<std::uint32_t>(e >> 32);
    const auto b = static_cast<std::uint32_t>(e & 0xffffffffu);
    return sccs.comp[a] == sccs.comp[b] && sccs.comp_size[sccs.comp[a]] > 1;
  };

  // Suspects: destinations contributing at least one hazard edge. Everyone
  // else can never close a cycle on any lane and rides lane 0 for free.
  std::vector<std::uint64_t> suspect_dests;
  std::vector<std::vector<std::uint64_t>> restricted;
  for (std::uint64_t d = 0; d < n; ++d) {
    std::vector<std::uint64_t> edges;
    for (const std::uint64_t e : per_dest[d])
      if (hazard(e)) edges.push_back(e);
    if (edges.empty()) continue;
    suspect_dests.push_back(d);
    restricted.push_back(std::move(edges));
  }
  out.suspects = suspect_dests.size();

  if (suspect_dests.empty()) {
    // No hazard edges means the union graph is acyclic: the greedy search
    // necessarily placed every destination on one lane, which is minimal.
    util::ensures(assignment.complete() && assignment.num_lanes <= 1,
                  "acyclic union must have yielded a 1-lane assignment");
    out.lower_bound = 1;
    return out;
  }

  // Compact renumbering of the hazard-edge endpoints keeps the per-placement
  // acyclicity checks proportional to the cyclic SCCs, not the fabric. The
  // dense->compact map is monotone, so sorted edge lists stay sorted.
  std::vector<std::uint32_t> compact(num_channels, kNone);
  std::uint32_t num_compact = 0;
  for (const auto& edges : restricted) {
    for (const std::uint64_t e : edges) {
      compact[e >> 32] = 0;
      compact[e & 0xffffffffu] = 0;
    }
  }
  for (std::uint32_t c = 0; c < num_channels; ++c)
    if (compact[c] == 0) compact[c] = num_compact++;
  for (auto& edges : restricted)
    for (std::uint64_t& e : edges)
      e = (static_cast<std::uint64_t>(compact[e >> 32]) << 32) |
          compact[e & 0xffffffffu];

  // Pairwise conflicts: two suspects whose restricted unions cycle can never
  // share a lane. Parallel over rows, merged in index order — deterministic.
  const std::size_t s = suspect_dests.size();
  const std::size_t words = (s + 63) / 64;
  std::vector<std::uint64_t> adj(s * words, 0);
  const auto rows = par::parallel_map(
      s,
      [&](std::size_t i) {
        std::vector<std::uint32_t> hits;
        for (std::size_t j = i + 1; j < s; ++j) {
          if (!dependencies_acyclic(num_compact,
                                    merge_edges(restricted[i], restricted[j])))
            hits.push_back(static_cast<std::uint32_t>(j));
        }
        return hits;
      },
      par::ForOptions{.threads = 0, .grain = 1, .label = "check.vl.conflicts"});
  std::vector<std::uint32_t> degree(s, 0);
  for (std::size_t i = 0; i < s; ++i) {
    for (const std::uint32_t j : rows[i]) {
      adj[i * words + (j >> 6)] |= 1ull << (j & 63);
      adj[j * words + (i >> 6)] |= 1ull << (i & 63);
      ++degree[i];
      ++degree[j];
      ++out.conflict_edges;
    }
  }

  // Greedy clique seed: highest-degree-first insertion. Members need
  // pairwise distinct lanes, so the size is a sound chromatic lower bound.
  std::vector<std::uint32_t> order(s);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return degree[a] != degree[b] ? degree[a] > degree[b] : a < b;
  });
  std::vector<std::uint32_t> clique;
  const auto adjacent = [&](std::uint32_t u, std::uint32_t v) {
    return ((adj[u * words + (v >> 6)] >> (v & 63)) & 1u) != 0;
  };
  for (const std::uint32_t v : order) {
    const bool extends = std::all_of(
        clique.begin(), clique.end(),
        [&](std::uint32_t m) { return adjacent(m, v); });
    if (extends) clique.push_back(v);
  }
  std::sort(clique.begin(), clique.end());
  out.lower_bound = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(clique.size()));
  for (const std::uint32_t v : clique) out.clique.push_back(suspect_dests[v]);

  // Branch and bound downward from the best known assignment.
  LaneSearch search(s, num_compact, adj, words, degree, restricted, clique,
                    options.node_budget);
  std::vector<std::uint32_t> best_lanes;
  std::uint32_t best_used = 0;
  std::uint32_t k = out.upper_bound == 0 ? max_lanes : out.upper_bound - 1;
  while (k >= out.lower_bound) {
    std::vector<std::uint32_t> lanes;
    std::uint32_t used = 0;
    const LaneSearch::Result result = search.run(k, lanes, used);
    if (result == LaneSearch::Result::kFeasible) {
      best_lanes = std::move(lanes);
      best_used = used;
      out.upper_bound = used;
      if (used <= 1) break;
      k = used - 1;
    } else if (result == LaneSearch::Result::kInfeasible) {
      out.lower_bound = k + 1;
      break;
    } else {
      out.budget_exhausted = true;
      break;
    }
  }
  out.nodes_explored = search.nodes_explored();

  if (!best_lanes.empty()) {
    // The search beat the greedy proposal (or found what greedy could not).
    VlAssignment replacement;
    replacement.num_lanes = best_used;
    replacement.lane_of_dest.assign(n, 0);
    for (std::size_t i = 0; i < s; ++i)
      replacement.lane_of_dest[suspect_dests[i]] = best_lanes[i];
    // Insurance on the SCC-restriction argument: every lane's *full*
    // (unrestricted) union must be acyclic too.
    for (std::uint32_t lane = 0; lane < best_used; ++lane) {
      std::vector<std::uint64_t> lane_union;
      for (std::uint64_t d = 0; d < n; ++d) {
        if (replacement.lane_of_dest[d] != lane) continue;
        lane_union = merge_edges(lane_union, per_dest[d]);
      }
      util::ensures(dependencies_acyclic(num_channels, lane_union),
                    "restricted-search lane must be acyclic on full edges");
    }
    assignment = std::move(replacement);
    out.improved = true;
  }
  return out;
}

}  // namespace ftcf::check
