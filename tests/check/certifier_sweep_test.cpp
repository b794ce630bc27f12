// Seeded differential sweep over the enumerative certifiers: on small random
// PGFTs (one with multi-up-port hosts, one with enough leaves for the
// sorted route index), every CPS kind, six node-order families and tables
// with up to three cleared entries, the one-shot and the incremental
// certifier emit byte-identical certificate JSON, every stage witness
// matches the tolerant HsdAnalyzer, and the one-shot JSON does not depend
// on the thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/hsd.hpp"
#include "check/certify.hpp"
#include "check/leaf_paths.hpp"
#include "check/recertify.hpp"
#include "cps/generators.hpp"
#include "routing/dmodk.hpp"
#include "topology/presets.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace ftcf::check {
namespace {

constexpr std::uint64_t kSweepSeed = 0xce27'5eedULL;
constexpr std::uint64_t kTrials = 36;

struct PoolSpec {
  topo::PgftSpec spec;
  bool adversarial_ok = false;  ///< NodeOrdering::adversarial_ring applies
};

std::vector<PoolSpec> spec_pool() {
  return {
      {topo::fig4b_pgft16(), true},            // parallel spine ports
      {topo::rlft2_full(4), true},             // 2-level RLFT, N = 32
      {topo::rlft3_top(4, 4), true},           // 3-level, N = 64
      {{{4, 4}, {1, 2}, {1, 1}}, false},       // oversubscribed spines
      {{{4, 4}, {2, 2}, {1, 1}}, false},       // hosts with two up ports
      {{{3, 4}, {1, 3}, {1, 1}}, false},       // odd arity, N = 12
      {{{2, 40}, {1, 2}, {1, 1}}, false},      // 40 leaves, N = 80
  };
}

std::string cert_json(const Certificate& certificate) {
  std::ostringstream oss;
  write_certificate_json(oss, certificate);
  return oss.str();
}

/// Restores the process-wide default thread count on scope exit.
struct DefaultThreads {
  ~DefaultThreads() { par::set_default_threads(0); }
};

/// Order family 0..5: topology, random, compact subset, random subset,
/// one residue class, adversarial ring.
order::NodeOrdering draw_ordering(const topo::Fabric& fabric,
                                  std::uint64_t family,
                                  util::Xoshiro256& rng) {
  const std::uint64_t n = fabric.num_hosts();
  std::vector<std::uint64_t> hosts(n);
  std::iota(hosts.begin(), hosts.end(), 0);
  switch (family) {
    case 0: return order::NodeOrdering::topology(fabric);
    case 1: return order::NodeOrdering::random(fabric, rng());
    case 2:
    case 3: {
      util::shuffle(hosts, rng);
      hosts.resize(2 + rng.below(n - 1));
      if (family == 2)
        return order::NodeOrdering::compact_subset(std::move(hosts), n);
      return order::NodeOrdering::random_subset(std::move(hosts), n, rng());
    }
    case 4: {
      const auto residue = static_cast<std::uint32_t>(
          rng.below(order::num_sub_allocations(fabric)));
      return order::NodeOrdering::residue_allocation(fabric, {&residue, 1});
    }
    default: return order::NodeOrdering::adversarial_ring(fabric);
  }
}

TEST(CertifierSweep, CertifiersAgreeOnRandomInputs) {
  DefaultThreads restore;
  const std::vector<PoolSpec> pool = spec_pool();
  std::uint64_t violating = 0;
  std::uint64_t stranded = 0;
  std::uint64_t multi_up_trials = 0;
  std::uint64_t adversarial_trials = 0;
  std::uint64_t dense_sequences = 0;
  std::uint64_t sorted_sequences = 0;
  for (std::uint64_t t = 0; t < kTrials; ++t) {
    util::Xoshiro256 rng(util::derive_seed(kSweepSeed, t));
    const std::uint64_t family = t % 6;
    std::vector<const PoolSpec*> candidates;
    for (const PoolSpec& entry : pool)
      if (family != 5 || entry.adversarial_ok) candidates.push_back(&entry);
    const PoolSpec& drawn = *candidates[rng.below(candidates.size())];
    const topo::Fabric fabric(drawn.spec);
    route::ForwardingTables tables = route::DModKRouter{}.compute(fabric);
    const std::uint64_t cleared = rng.below(4);
    for (std::uint64_t c = 0; c < cleared; ++c)
      tables.clear_entry(
          fabric.switch_ids()[rng.below(fabric.switch_ids().size())],
          rng.below(fabric.num_hosts()));
    const order::NodeOrdering ordering = draw_ordering(fabric, family, rng);
    if (ordering.num_ranks() < 2) continue;
    if (fabric.node(fabric.host_node(0)).num_up_ports > 1) ++multi_up_trials;
    if (family == 5) ++adversarial_trials;
    analysis::HsdAnalyzer analyzer(fabric, tables);

    for (const cps::CpsKind kind : cps::kAllCpsKinds) {
      const cps::Sequence sequence = cps::generate(kind, ordering.num_ranks());
      if (fabric.switches_at_level(1) * ordering.num_ranks() <=
          detail::LeafPaths::kDenseSlotsPerPair * sequence.total_pairs())
        ++dense_sequences;
      else
        ++sorted_sequences;
      const std::string where = "trial " + std::to_string(t) + " " +
                                drawn.spec.to_string() + " order family " +
                                std::to_string(family) + " " +
                                cps::cps_name(kind) + " cleared " +
                                std::to_string(cleared);
      par::set_default_threads(1);
      const Certificate serial =
          certify_contention_freedom(fabric, tables, ordering, sequence);
      par::set_default_threads(4);
      const Certificate parallel =
          certify_contention_freedom(fabric, tables, ordering, sequence);
      const Certificate incremental =
          IncrementalCertifier(fabric, tables, ordering, sequence)
              .certificate();
      const std::string json = cert_json(serial);
      EXPECT_EQ(json, cert_json(parallel)) << where;
      EXPECT_EQ(json, cert_json(incremental)) << where;

      ASSERT_EQ(serial.stages.size(), sequence.stages.size()) << where;
      std::size_t next_blame = 0;
      for (std::size_t s = 0; s < sequence.stages.size(); ++s) {
        const StageWitness& w = serial.stages[s];
        const analysis::StageMetrics m =
            analyzer.analyze_stage(ordering.map_stage(sequence.stages[s]));
        EXPECT_EQ(w.max_hsd, m.max_hsd) << where << " stage " << s;
        EXPECT_EQ(w.max_up_hsd, m.max_up_hsd) << where << " stage " << s;
        EXPECT_EQ(w.max_down_hsd, m.max_down_hsd) << where << " stage " << s;
        EXPECT_EQ(w.num_flows, m.num_flows) << where << " stage " << s;
        EXPECT_EQ(w.links_loaded, m.links_loaded) << where << " stage " << s;
        EXPECT_EQ(w.unroutable_flows, m.unroutable_flows)
            << where << " stage " << s;
        stranded += w.unroutable_flows;
        if (w.max_hsd <= 1) continue;
        ++violating;
        ASSERT_LT(next_blame, serial.blames.size()) << where;
        EXPECT_EQ(serial.blames[next_blame].stage, s) << where;
        EXPECT_EQ(serial.blames[next_blame].hot_link, m.hottest_port)
            << where << " stage " << s;
        ++next_blame;
      }
      EXPECT_EQ(next_blame, serial.blames.size()) << where;
    }
  }
  // The sweep must reach multi-up-port hosts, the adversarial order, both
  // route index layouts, violating stages and stranded flows.
  EXPECT_GT(multi_up_trials, 0u);
  EXPECT_GT(adversarial_trials, 0u);
  EXPECT_GT(dense_sequences, 0u);
  EXPECT_GT(sorted_sequences, 0u);
  EXPECT_GT(violating, 0u);
  EXPECT_GT(stranded, 0u);
}

}  // namespace
}  // namespace ftcf::check
