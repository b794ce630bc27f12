#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "check/cdg.hpp"
#include "check/certify.hpp"
#include "check/recertify.hpp"
#include "check/symbolic.hpp"
#include "churn/timeline.hpp"
#include "core/plan.hpp"
#include "cps/generators.hpp"
#include "fault/connectivity.hpp"
#include "fault/degraded.hpp"
#include "ordering/ordering.hpp"
#include "routing/dmodk.hpp"
#include "routing/incremental.hpp"
#include "routing/trace.hpp"
#include "sim/packet_sim.hpp"
#include "topology/presets.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace ftcf;

// --- shared helpers ----------------------------------------------------------

/// A certificate and its JSON document, as a job submitter receives them.
struct Certified {
  check::Certificate cert;
  std::string json;
  bool symbolic = false;
};

std::uint64_t routed_flows(const check::Certificate& cert) {
  std::uint64_t flows = 0;
  for (const check::StageWitness& w : cert.stages) flows += w.num_flows;
  return flows;
}

/// The symbolic-first certification path: the closed-form prover, falling
/// back to the enumerative walk when it declines, then the JSON document.
Certified certify(Tracer& t, const topo::Fabric& fabric,
                  const route::ForwardingTables& tables,
                  const order::NodeOrdering& ordering,
                  const cps::Sequence& sequence) {
  check::SymbolicProof proof = t.call("check.symbolic_certify", [&] {
    return check::symbolic_certify(fabric, ordering, sequence,
                                   /*tables_canonical_dmodk=*/true);
  });
  Certified out;
  if (proof.applicable) {
    t.count("check.symbolic_proved", 1);
    out.cert = std::move(proof.certificate);
    out.symbolic = true;
  } else {
    t.count("check.symbolic_declined", 1);
    out.cert = t.call("check.certify", [&] {
      return check::certify_contention_freedom(fabric, tables, ordering,
                                               sequence);
    });
    t.count("check.flows_walked", routed_flows(out.cert));
    t.count("check.blames", out.cert.blames.size());
  }
  out.json = t.call("check.certificate_json", [&] {
    std::ostringstream os;
    check::write_certificate_json(os, out.cert);
    return os.str();
  });
  t.count("check.certificate_bytes", out.json.size());
  return out;
}

/// Checks that hold for every certificate, whatever its verdict: one witness
/// per stage, each counting exactly the stage's src != dst pairs, and a
/// verdict that agrees with the witnesses and the blame list.
Verdict consistent(const check::Certificate& cert,
                   const cps::Sequence& sequence) {
  if (cert.stages.size() != sequence.stages.size())
    return {false, "certificate stage count differs from the sequence"};
  bool all_ok = true;
  for (std::size_t s = 0; s < cert.stages.size(); ++s) {
    const check::StageWitness& w = cert.stages[s];
    std::uint64_t flows = 0;
    for (const cps::Pair& p : sequence.stages[s].pairs)
      flows += p.src != p.dst ? 1 : 0;
    if (w.num_flows != flows)
      return {false, "stage " + std::to_string(s) + " witnesses " +
                         std::to_string(w.num_flows) + " flows, expected " +
                         std::to_string(flows)};
    if (w.max_hsd > 1 || w.unroutable_flows > 0) all_ok = false;
  }
  if (cert.contention_free != all_ok)
    return {false, "verdict disagrees with the stage witnesses"};
  if (cert.contention_free != cert.blames.empty())
    return {false, "blame list disagrees with the verdict"};
  return {};
}

std::uint64_t between(util::Xoshiro256& rng, std::uint64_t lo,
                      std::uint64_t hi) {
  return lo + rng.below(hi - lo + 1);
}

// --- design_sweep -------------------------------------------------------------

constexpr std::uint64_t kPaperPresets[] = {324, 648, 1728, 1944};

/// Every fully populated 2- and 3-level RLFT with hosts in [min, max]:
/// PGFT(2; K,m2; 1,K/p2; 1,p2) and PGFT(3; K,K/p2,m3; 1,K/p2,K/p3; 1,p2,p3).
std::vector<topo::PgftSpec> rlft_universe(std::uint64_t min_hosts,
                                          std::uint64_t max_hosts) {
  std::vector<topo::PgftSpec> out;
  const auto keep = [&](topo::PgftSpec spec) {
    if (spec.is_rlft() && spec.num_hosts() >= min_hosts &&
        spec.num_hosts() <= max_hosts)
      out.push_back(std::move(spec));
  };
  for (std::uint32_t k = 2; k <= 64; ++k) {
    for (std::uint32_t p2 = 1; p2 <= k; ++p2) {
      if (k % p2 != 0) continue;
      for (std::uint32_t m2 = 2; m2 <= 2 * k / p2; ++m2)
        keep(topo::PgftSpec({k, m2}, {1, k / p2}, {1, p2}));
      const std::uint32_t m2 = k / p2;
      if (m2 < 2) continue;
      for (std::uint32_t p3 = 1; p3 <= k; ++p3) {
        if (k % p3 != 0) continue;
        for (std::uint32_t m3 = 2; m3 <= 2 * k / p3; ++m3) {
          if (std::uint64_t{k} * m2 * m3 > max_hosts) break;
          keep(topo::PgftSpec({k, m2, m3}, {1, k / p2, k / p3}, {1, p2, p3}));
        }
      }
    }
  }
  return out;
}

/// Capacity planning: each request is a candidate fabric run through the
/// paper's whole recipe for all eight CPS kinds, ending in certificates.
class DesignSweep final : public Workload {
 public:
  explicit DesignSweep(const WorkloadOptions& options)
      : seed_(options.seed), smoke_(options.smoke) {}

  void setup(Tracer& t) override {
    // Host-count strata [2^(k/2), 2^((k+1)/2)) from 11 hosts up: one request
    // per stratum per round. Their number is odd, so the median request is
    // the middle stratum's median rather than a gap between two strata.
    const std::uint64_t top = smoke_ ? 128 : 1944;
    const std::vector<topo::PgftSpec> universe = rlft_universe(11, top);
    for (double lo = std::pow(2.0, 3.5); lo < static_cast<double>(top);
         lo *= std::sqrt(2.0)) {
      const double hi = lo * std::sqrt(2.0);
      std::vector<topo::PgftSpec> stratum;
      for (const topo::PgftSpec& spec : universe) {
        const auto n = static_cast<double>(spec.num_hosts());
        if (n >= std::round(lo) &&
            (n < std::round(hi) || hi >= static_cast<double>(top)))
          stratum.push_back(spec);
      }
      if (stratum.empty()) continue;
      util::Xoshiro256 rng(util::derive_seed(seed_, strata_.size()));
      util::shuffle(stratum, rng);
      // The paper presets lead their strata, so every run certifies them.
      auto front = stratum.begin();
      for (const std::uint64_t n : kPaperPresets) {
        const auto it = std::find(front, stratum.end(), topo::paper_cluster(n));
        if (it != stratum.end()) std::iter_swap(front++, it);
      }
      strata_.push_back(std::move(stratum));
    }
    // Warm-up: one full request, so lazy set-up (thread pool, allocator
    // arenas) is paid here rather than by the first timed request.
    serve_spec(smoke_ ? topo::rlft2_full(4) : topo::paper_cluster(324), t);
    const Verdict warm = verify_current(nullptr);
    if (!warm.ok) throw std::runtime_error("warm-up request: " + warm.why);
  }

  std::size_t round_size() const override { return strata_.size(); }

  void serve(std::uint64_t index, Tracer& t) override {
    serve_spec(next_spec(index), t);
  }

  Verdict verify(std::uint64_t, Digest* digest) override {
    return verify_current(digest);
  }

  std::uint64_t work() const override { return work_; }
  const char* work_unit() const override { return "routed flows certified"; }
  double tail_percentile() const override { return 95.0; }

 private:
  /// One tuple per stratum per round, each stratum walked in its order.
  const topo::PgftSpec& next_spec(std::uint64_t index) const {
    const std::vector<topo::PgftSpec>& stratum =
        strata_[index % strata_.size()];
    return stratum[(index / strata_.size()) % stratum.size()];
  }

  void serve_spec(const topo::PgftSpec& spec, Tracer& t) {
    spec_text_ = spec.to_string();
    t.call("topology.fabric_build", [&] { fabric_.emplace(spec); });
    // CollectivePlan = D-Mod-K tables + the topology order (an O(N) fill).
    t.call("routing.dmodk_compute", [&] { plan_.emplace(*fabric_); });
    work_ = 0;
    for (std::size_t k = 0; k < std::size(cps::kAllCpsKinds); ++k) {
      const cps::CpsKind kind = cps::kAllCpsKinds[k];
      const bool grouped = kind == cps::CpsKind::kRecursiveDoubling ||
                           kind == cps::CpsKind::kRecursiveHalving;
      sequences_[k] = t.call(grouped ? "core.grouped_rd" : "cps.generate",
                             [&] { return plan_->sequence_for(kind); });
      t.count("cps.pairs", sequences_[k].total_pairs());
      results_[k] = certify(t, *fabric_, plan_->tables(), plan_->ordering(),
                            sequences_[k]);
      work_ += routed_flows(results_[k].cert);
    }
  }

  Verdict verify_current(Digest* digest) {
    if (digest != nullptr) digest->add(spec_text_);
    Verdict verdict;
    for (std::size_t k = 0; k < results_.size() && verdict.ok; ++k) {
      const Certified& r = results_[k];
      verdict = consistent(r.cert, sequences_[k]);
      // Theorems 1-3: D-Mod-K + topology order (+ grouped RD) is HSD = 1.
      if (verdict.ok && !r.cert.contention_free)
        verdict = {false, "not contention-free"};
      if (!verdict.ok)
        verdict.why = spec_text_ + " " + cps::cps_name(cps::kAllCpsKinds[k]) +
                      ": " + verdict.why;
      if (digest != nullptr) digest->add(r.json);
    }
    for (auto& seq : sequences_) seq = {};
    for (auto& r : results_) r = {};
    plan_.reset();
    fabric_.reset();
    return verdict;
  }

  std::uint64_t seed_;
  bool smoke_;
  std::vector<std::vector<topo::PgftSpec>> strata_;
  std::string spec_text_;
  std::optional<topo::Fabric> fabric_;
  std::optional<core::CollectivePlan> plan_;
  std::array<cps::Sequence, std::size(cps::kAllCpsKinds)> sequences_;
  std::array<Certified, std::size(cps::kAllCpsKinds)> results_;
  std::uint64_t work_ = 0;
};

// --- certify_jobs_1944 ------------------------------------------------------

enum class Placement {
  kCompact,      ///< a leaf-aligned contiguous host block, ascending ranks
  kRandom,       ///< random hosts in random rank order
  kLeafRandom,   ///< whole leaves in random order, hosts in order
  kInterleaved,  ///< rank r on leaf r mod L, slot r / L
  kResidue,      ///< one §V residue class
  kAdversarial,  ///< whole fabric, §II adversarial ring order
  kWholeRandom,  ///< whole fabric, random order
  kWholeTopology ///< whole fabric, topology order
};

struct JobClass {
  Placement placement;
  cps::CpsKind kind;
  bool small;  ///< one to six leaves; otherwise up to a third of the fabric
};

/// One round of scheduler jobs; the seed picks sizes and hosts.
constexpr JobClass kJobMenu[] = {
    {Placement::kCompact, cps::CpsKind::kShift, true},
    {Placement::kCompact, cps::CpsKind::kDissemination, false},
    {Placement::kRandom, cps::CpsKind::kShift, true},
    {Placement::kRandom, cps::CpsKind::kShift, false},
    {Placement::kLeafRandom, cps::CpsKind::kRecursiveDoubling, false},
    {Placement::kInterleaved, cps::CpsKind::kRing, false},
    {Placement::kResidue, cps::CpsKind::kShift, false},
    {Placement::kResidue, cps::CpsKind::kBinomial, false},
    {Placement::kAdversarial, cps::CpsKind::kRing, false},
    {Placement::kWholeRandom, cps::CpsKind::kDissemination, false},
    {Placement::kWholeTopology, cps::CpsKind::kShift, false},
    {Placement::kCompact, cps::CpsKind::kTournament, true},
    {Placement::kLeafRandom, cps::CpsKind::kShift, true},
};

/// Job launch: a pristine fabric answers certificate requests for jobs the
/// scheduler placed, most of them on non-topology orders.
class CertifyJobs final : public Workload {
 public:
  explicit CertifyJobs(const WorkloadOptions& options)
      : seed_(options.seed),
        spec_(options.smoke ? topo::rlft3_top(4, 4) : topo::paper_cluster(1944)) {}

  void setup(Tracer& t) override {
    t.call("topology.fabric_build", [&] { fabric_.emplace(spec_); });
    t.call("routing.dmodk_compute",
           [&] { tables_.emplace(route::DModKRouter{}.compute(*fabric_)); });
  }

  std::size_t round_size() const override { return std::size(kJobMenu); }

  void serve(std::uint64_t index, Tracer& t) override {
    job_ = kJobMenu[index % std::size(kJobMenu)];
    util::Xoshiro256 rng(util::derive_seed(seed_, index));
    ordering_.emplace(
        t.call("ordering.build", [&] { return place(job_, rng); }));
    sequence_ = t.call("cps.generate", [&] {
      return cps::generate(job_.kind, ordering_->num_ranks());
    });
    t.count("cps.pairs", sequence_.total_pairs());
    result_ = certify(t, *fabric_, *tables_, *ordering_, sequence_);
  }

  Verdict verify(std::uint64_t, Digest* digest) override {
    Verdict verdict = consistent(result_.cert, sequence_);
    const check::Certificate& cert = result_.cert;
    if (verdict.ok) {
      switch (job_.placement) {
        case Placement::kResidue:  // §V: one residue class shifts HSD = 1
          if (!cert.contention_free)
            verdict = {false, "residue-class job is not contention-free"};
          break;
        case Placement::kAdversarial:
          if (cert.contention_free)
            verdict = {false, "adversarial ring certified contention-free"};
          for (const check::StageBlame& b : cert.blames)
            if (b.blamed_rule != "order-mismatch")
              verdict = {false, "adversarial ring blamed '" + b.blamed_rule +
                                    "', expected order-mismatch"};
          break;
        case Placement::kWholeTopology:
          if (!cert.contention_free || !result_.symbolic)
            verdict = {false, "whole-fabric topology Shift not proved "
                              "symbolically contention-free"};
          break;
        default:
          break;
      }
    }
    if (digest != nullptr) digest->add(result_.json);
    work_ = routed_flows(cert);
    result_ = {};
    sequence_ = {};
    ordering_.reset();
    return verdict;
  }

  std::uint64_t work() const override { return work_; }
  const char* work_unit() const override { return "routed flows certified"; }
  double tail_percentile() const override { return 95.0; }

 private:
  order::NodeOrdering place(const JobClass& job, util::Xoshiro256& rng) const {
    const topo::Fabric& f = *fabric_;
    const std::uint64_t n = f.num_hosts();
    const std::uint64_t per_leaf = f.spec().m(1);
    const std::uint64_t leaves = n / per_leaf;
    const std::uint64_t size =
        job.small ? between(rng, per_leaf, 6 * per_leaf)
                  : between(rng, 6 * per_leaf, std::max(6 * per_leaf, n / 3));
    switch (job.placement) {
      case Placement::kCompact: {
        const std::uint64_t start =
            per_leaf * rng.below((n - size) / per_leaf + 1);
        std::vector<std::uint64_t> hosts(size);
        std::iota(hosts.begin(), hosts.end(), start);
        return order::NodeOrdering::compact_subset(std::move(hosts), n);
      }
      case Placement::kRandom: {
        std::vector<std::uint64_t> hosts;
        for (const std::size_t h : util::random_subset(n, size, rng))
          hosts.push_back(h);
        return order::NodeOrdering::random_subset(std::move(hosts), n, rng());
      }
      case Placement::kLeafRandom: {
        std::vector<std::uint64_t> hosts;
        for (const std::size_t leaf :
             util::random_permutation(leaves, rng)) {
          if (hosts.size() + per_leaf > size) break;
          for (std::uint64_t s = 0; s < per_leaf; ++s)
            hosts.push_back(leaf * per_leaf + s);
        }
        return order::NodeOrdering(std::move(hosts), n);
      }
      case Placement::kInterleaved: {
        std::vector<std::uint64_t> hosts(size);
        for (std::uint64_t r = 0; r < size; ++r)
          hosts[r] = (r % leaves) * per_leaf + r / leaves;
        return order::NodeOrdering(std::move(hosts), n);
      }
      case Placement::kResidue: {
        const std::uint32_t residue = static_cast<std::uint32_t>(
            rng.below(order::num_sub_allocations(f)));
        return order::NodeOrdering::residue_allocation(f, {&residue, 1});
      }
      case Placement::kAdversarial:
        return order::NodeOrdering::adversarial_ring(f);
      case Placement::kWholeRandom:
        return order::NodeOrdering::random(f, rng());
      case Placement::kWholeTopology:
        return order::NodeOrdering::topology(f);
    }
    throw std::logic_error("unknown placement");
  }

  std::uint64_t seed_;
  topo::PgftSpec spec_;
  std::optional<topo::Fabric> fabric_;
  std::optional<route::ForwardingTables> tables_;
  JobClass job_{};
  std::optional<order::NodeOrdering> ordering_;
  cps::Sequence sequence_;
  Certified result_;
  std::uint64_t work_ = 0;
};

// --- churn_648 ---------------------------------------------------------------

/// Forwarding-table walk: does src reach dst over the live tables? The
/// chooser never programs an entry over a dead cable, so only the injection
/// cable's health needs checking.
bool tables_route(const topo::Fabric& fabric,
                  const route::ForwardingTables& tables,
                  const fault::LinkHealth& health, std::uint64_t src,
                  std::uint64_t dst) {
  const topo::NodeId host = fabric.host_node(src);
  const topo::PortId inject = fabric.port_id(
      host, fabric.node(host).num_down_ports +
                route::host_up_port(fabric, src, dst));
  if (!health.node_up(host) || !health.link_up(inject)) return false;
  topo::NodeId at = fabric.port(fabric.port(inject).peer).node;
  const topo::NodeId dst_node = fabric.host_node(dst);
  for (std::size_t hop = 0; hop <= 2ull * fabric.height() + 2; ++hop) {
    if (!tables.has_entry(at, dst)) return false;
    const topo::PortId out = fabric.port_id(at, tables.out_port(at, dst));
    at = fabric.port(fabric.port(out).peer).node;
    if (at == dst_node) return true;
  }
  return false;
}

/// Fabric manager under churn: each request is a sweep over the next few
/// fault or repair events, each handled by incremental repair,
/// re-certification, a deadlock re-proof and a connectivity sample.
class Churn final : public Workload {
 public:
  explicit Churn(const WorkloadOptions& options)
      : seed_(options.seed),
        spec_(options.smoke ? topo::rlft3_top(4, 4)
                            : topo::parse_pgft("PGFT(3; 6,6,18; 1,6,6; 1,1,1)")),
        cables_(options.smoke ? 8 : 48) {}

  void setup(Tracer& t) override {
    t.call("topology.fabric_build", [&] { fabric_.emplace(spec_); });
    t.call("routing.dmodk_compute",
           [&] { tables_.emplace(route::DModKRouter{}.compute(*fabric_)); });
    ordering_.emplace(order::NodeOrdering::topology(*fabric_));
    sequence_ = t.call("cps.generate",
                       [&] { return cps::shift(fabric_->num_hosts()); });
    start_episode(t);
    t.call("routing.incremental_build", [&] { repair_.emplace(*state_); });
    t.call("check.recertify_build", [&] {
      certifier_.emplace(*fabric_, repair_->tables(), *ordering_, sequence_);
    });
    tracer_ = &t;
  }

  std::size_t round_size() const override { return 6; }

  /// Up to kEventsPerRequest events; a sweep never crosses an episode end.
  void serve(std::uint64_t index, Tracer& t) override {
    outcomes_.clear();
    util::Xoshiro256 rng(util::derive_seed(seed_, index));
    while (outcomes_.size() < kEventsPerRequest && cursor_ < events_.size())
      outcomes_.push_back(handle(events_[cursor_++], rng, t));
  }

  Verdict verify(std::uint64_t index, Digest* digest) override {
    Verdict verdict;
    for (const Outcome& o : outcomes_) {
      if (!o.cdg_acyclic) verdict = {false, "cyclic channel dependency graph"};
      if (o.oracle_mismatches != 0)
        verdict = {false, "tables disagree with the up*/down* BFS oracle"};
      if (digest != nullptr) {
        digest->add(o.entries_changed);
        digest->add(o.flows_rewalked);
        digest->add(o.stages_changed);
        digest->add(o.contention_free ? 1 : 0);
        digest->add(o.cdg_dependencies);
      }
    }
    // At the end of each round the maintained certificate must equal a
    // from-scratch certify over the live tables, byte for byte.
    if (verdict.ok && (index + 1) % round_size() == 0)
      verdict = check_full_certificate(digest);
    if (verdict.ok && cursor_ == events_.size()) {
      // The episode ends with every cable repaired: pristine tables again.
      if (!(repair_->tables() == *tables_))
        verdict = {false, "tables after the episode are not pristine D-Mod-K"};
      ++episode_;
      start_episode(*tracer_);
    }
    return verdict;
  }

  std::uint64_t work() const override { return outcomes_.size(); }
  const char* work_unit() const override { return "churn events handled"; }
  double tail_percentile() const override { return 95.0; }

 private:
  static constexpr std::size_t kEventsPerRequest = 4;

  struct Outcome {
    std::uint64_t entries_changed = 0;
    std::uint64_t flows_rewalked = 0;
    std::uint64_t stages_changed = 0;
    bool contention_free = false;
    bool cdg_acyclic = false;
    std::uint64_t cdg_dependencies = 0;
    std::uint64_t oracle_mismatches = 0;
  };

  Outcome handle(const churn::ChurnEvent& event, util::Xoshiro256& rng,
                 Tracer& t) {
    const route::RepairDelta delta =
        t.call("routing.incremental_repair", [&] {
          switch (event.kind) {
            case churn::EventKind::kFailCable:
              return repair_->fail_cable(event.cable);
            case churn::EventKind::kRepairCable:
              return repair_->repair_cable(event.cable);
            case churn::EventKind::kFailSwitch:
              return repair_->fail_switch(event.node);
            case churn::EventKind::kRepairSwitch:
              return repair_->repair_switch(event.node);
          }
          throw std::logic_error("unknown churn event");
        });
    t.count("churn.events", 1);
    t.count("churn.events_applied", delta.applied ? 1 : 0);
    t.count("routing.entries_changed", delta.entries_changed);
    t.count("routing.changed_dests", delta.changed_dests.size());
    const check::CertificateDelta cert_delta = t.call(
        "check.recertify_update", [&] { return certifier_->update(delta); });
    t.count("check.flows_rewalked", cert_delta.flows_rewalked);
    t.count("check.stages_changed", cert_delta.stages_changed);
    const check::CdgAnalysis cdg = t.call("check.cdg", [&] {
      return check::analyze_cdg(*fabric_, repair_->tables());
    });
    // Connectivity sample: the BFS oracle from one source must agree with a
    // walk of the live tables to every destination.
    const std::uint64_t src = rng.below(fabric_->num_hosts());
    const fault::LinkHealth health = repair_->health();
    const std::vector<std::uint8_t> reachable = t.call(
        "fault.updown_bfs",
        [&] { return fault::updown_reachable_hosts(*fabric_, health, src); });
    Outcome o;
    for (std::uint64_t dst = 0; dst < fabric_->num_hosts(); ++dst)
      if (dst != src && tables_route(*fabric_, repair_->tables(), health, src,
                                     dst) != static_cast<bool>(reachable[dst]))
        ++o.oracle_mismatches;
    o.entries_changed = delta.entries_changed;
    o.flows_rewalked = cert_delta.flows_rewalked;
    o.stages_changed = cert_delta.stages_changed;
    o.contention_free = cert_delta.contention_free;
    o.cdg_acyclic = cdg.acyclic;
    o.cdg_dependencies = cdg.num_dependencies;
    return o;
  }

  /// Resolve the next MTBF stream and close it with repairs of every cable it
  /// leaves failed, so each episode starts and ends on the pristine fabric.
  void start_episode(Tracer& t) {
    churn::Timeline timeline;
    while (timeline.events.empty()) {
      const std::string spec = "mtbf:" + std::to_string(cables_) +
                               ":2000:500:8000:" +
                               std::to_string(util::derive_seed(seed_, episode_));
      timeline = t.call("churn.timeline_resolve", [&] {
        return churn::resolve_timeline(*fabric_, fault::parse_faults(spec));
      });
      if (timeline.events.empty()) ++episode_;
    }
    if (!state_) state_.emplace(*fabric_, timeline.static_spec);
    events_ = timeline.events;
    std::vector<topo::PortId> down;
    for (const churn::ChurnEvent& e : events_) {
      const topo::PortId cable =
          std::min(e.cable, fabric_->port(e.cable).peer);
      const auto it = std::lower_bound(down.begin(), down.end(), cable);
      const bool is_down = it != down.end() && *it == cable;
      if (e.kind == churn::EventKind::kFailCable && !is_down)
        down.insert(it, cable);
      if (e.kind == churn::EventKind::kRepairCable && is_down) down.erase(it);
    }
    const sim::SimTime end = events_.empty() ? 0 : events_.back().at;
    for (const topo::PortId cable : down)
      events_.push_back({end, churn::EventKind::kRepairCable, cable,
                         topo::kInvalidNode});
    cursor_ = 0;
  }

  Verdict check_full_certificate(Digest* digest) const {
    std::ostringstream incremental;
    std::ostringstream full;
    check::write_certificate_json(incremental, certifier_->certificate());
    check::write_certificate_json(
        full, check::certify_contention_freedom(*fabric_, repair_->tables(),
                                                *ordering_, sequence_));
    if (digest != nullptr) digest->add(incremental.str());
    if (incremental.str() != full.str())
      return {false, "incremental certificate differs from a full certify"};
    return {};
  }

  std::uint64_t seed_;
  topo::PgftSpec spec_;
  std::uint64_t cables_;
  Tracer* tracer_ = nullptr;
  std::optional<topo::Fabric> fabric_;
  std::optional<route::ForwardingTables> tables_;  ///< pristine reference
  std::optional<order::NodeOrdering> ordering_;
  cps::Sequence sequence_;
  std::optional<fault::FaultState> state_;
  std::optional<route::IncrementalRepair> repair_;
  std::optional<check::IncrementalCertifier> certifier_;
  std::vector<churn::ChurnEvent> events_;
  std::size_t cursor_ = 0;
  std::uint64_t episode_ = 0;
  std::vector<Outcome> outcomes_;
};

// --- sim_fig2_1944 -------------------------------------------------------------

/// The paper's Fig. 2 grid: each request is one (CPS, message size) cell,
/// played under the topology order and under a seeded random order,
/// synchronized.
class SimFig2 final : public Workload {
 public:
  explicit SimFig2(const WorkloadOptions& options)
      : seed_(options.seed),
        spec_(options.smoke ? topo::rlft3_top(4, 4) : topo::paper_cluster(1944)) {}

  void setup(Tracer& t) override {
    t.call("topology.fabric_build", [&] { fabric_.emplace(spec_); });
    t.call("routing.dmodk_compute",
           [&] { tables_.emplace(route::DModKRouter{}.compute(*fabric_)); });
    sim_.emplace(*fabric_, *tables_);
  }

  std::size_t round_size() const override {
    return kCps.size() * kMessageBytes.size();
  }

  void serve(std::uint64_t index, Tracer& t) override {
    const std::size_t slot = index % round_size();
    const cps::CpsKind kind = kCps[slot / kMessageBytes.size()];
    const std::uint64_t bytes = kMessageBytes[slot % kMessageBytes.size()];
    const cps::Sequence sequence =
        t.call("cps.generate", [&] { return make_sequence(kind); });
    t.count("cps.pairs", sequence.total_pairs());
    for (const bool random : {false, true}) {
      const order::NodeOrdering ordering = t.call("ordering.build", [&] {
        return random ? order::NodeOrdering::random(
                            *fabric_, util::derive_seed(seed_, index))
                      : order::NodeOrdering::topology(*fabric_);
      });
      const std::vector<sim::StageTraffic> traffic =
          t.call("sim.traffic_build", [&] {
            return sim::traffic_from_cps(sequence, ordering,
                                         fabric_->num_hosts(), bytes);
          });
      Run& run = runs_[random ? 1 : 0];
      run.expected_bytes = 0;
      for (const sim::StageTraffic& stage : traffic)
        run.expected_bytes += stage.total_bytes();
      run.result = t.call("sim.packet_run", [&] {
        return sim_->run(traffic, sim::Progression::kSynchronized);
      });
      t.count("sim.events", run.result.events);
      t.count("sim.packets_delivered", run.result.packets_delivered);
      t.count("sim.bytes_delivered", run.result.bytes_delivered);
    }
  }

  Verdict verify(std::uint64_t, Digest* digest) override {
    Verdict verdict;
    for (const Run& run : runs_) {
      if (run.result.bytes_delivered != run.expected_bytes ||
          run.result.messages_failed != 0)
        verdict = {false, "simulation did not deliver every byte"};
      if (digest != nullptr) {
        digest->add(static_cast<std::uint64_t>(run.result.makespan));
        digest->add(run.result.events);
        digest->add(run.result.packets_delivered);
        digest->add(run.result.bytes_delivered);
        digest->add(run.result.messages_delivered);
      }
    }
    const double topology_bw = runs_[0].result.normalized_bw;
    const double random_bw = runs_[1].result.normalized_bw;
    if (verdict.ok && random_bw > topology_bw)
      verdict = {false, "random order beat topology order: " +
                            std::to_string(random_bw) + " > " +
                            std::to_string(topology_bw)};
    return verdict;
  }

  std::uint64_t work() const override {
    return runs_[0].result.events + runs_[1].result.events;
  }
  const char* work_unit() const override { return "simulation events"; }
  double tail_percentile() const override { return 90.0; }

 private:
  static constexpr std::array<cps::CpsKind, 3> kCps = {
      cps::CpsKind::kRecursiveDoubling, cps::CpsKind::kDissemination,
      cps::CpsKind::kShift};
  static constexpr std::array<std::uint64_t, 3> kMessageBytes = {1024, 2048,
                                                                 4096};

  struct Run {
    sim::RunResult result;
    std::uint64_t expected_bytes = 0;
  };

  /// Shift is played over a fixed sample of displacements (the full set is
  /// N - 1 stages); the other kinds are played whole.
  cps::Sequence make_sequence(cps::CpsKind kind) const {
    const std::uint64_t n = fabric_->num_hosts();
    if (kind != cps::CpsKind::kShift) return cps::generate(kind, n);
    cps::Sequence seq;
    seq.name = "shift-sample";
    seq.num_ranks = n;
    for (const std::uint64_t s : {std::uint64_t{1}, n / 7, n / 3, n / 2})
      seq.stages.push_back(cps::shift_stage(n, s));
    return seq;
  }

  std::uint64_t seed_;
  topo::PgftSpec spec_;
  std::optional<topo::Fabric> fabric_;
  std::optional<route::ForwardingTables> tables_;
  std::optional<sim::PacketSim> sim_;
  std::array<Run, 2> runs_;  ///< topology order, random order
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "design_sweep", "certify_jobs_1944", "churn_648", "sim_fig2_1944"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadOptions& options) {
  if (name == "design_sweep") return std::make_unique<DesignSweep>(options);
  if (name == "certify_jobs_1944") return std::make_unique<CertifyJobs>(options);
  if (name == "churn_648") return std::make_unique<Churn>(options);
  if (name == "sim_fig2_1944") return std::make_unique<SimFig2>(options);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
