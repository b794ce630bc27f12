#include "churn/campaign.hpp"

#include <sstream>

#include "check/certify.hpp"
#include "check/depgraph.hpp"
#include "check/diagnostics.hpp"
#include "fault/connectivity.hpp"
#include "obs/profile.hpp"
#include "routing/incremental.hpp"
#include "routing/trace.hpp"
#include "util/expects.hpp"
#include "util/rng.hpp"

namespace ftcf::churn {

using topo::Fabric;
using topo::NodeId;
using topo::PortId;
using util::ensures;

namespace {

/// Forwarding-table walk: can src actually deliver to dst right now? The
/// chooser never programs an entry over a dead cable and clears the rows of
/// dead switches, so the walk only needs the injection cable's health plus
/// the entry chain.
bool tables_route(const Fabric& fabric, const route::ForwardingTables& tables,
                  const fault::LinkHealth& health, std::uint64_t src,
                  std::uint64_t dst) {
  const NodeId host = fabric.host_node(src);
  const route::RouteStatus status = route::walk_lft(
      fabric, tables, host, dst,
      [&](const route::RouteHop& hop) -> std::optional<route::RouteStatus> {
        if (hop.from == host &&
            (!health.node_up(host) || !health.link_up(hop.out)))
          return route::RouteStatus::kDeadLink;
        return route::kKeepWalking;
      });
  return status == route::RouteStatus::kOk;
}

/// BFS-oracle agreement for a deterministic sample of sources. Counts
/// reachable/unreachable pairs into `outcome`; throws on any disagreement.
void check_connectivity(const Fabric& fabric, const route::IncrementalRepair& repair,
                        std::uint64_t sample_srcs, std::uint64_t sample_seed,
                        EventOutcome& outcome) {
  const fault::LinkHealth health = repair.health();
  const std::uint64_t num_hosts = fabric.num_hosts();
  std::vector<std::size_t> srcs;
  if (sample_srcs >= num_hosts) {
    srcs.resize(num_hosts);
    for (std::size_t j = 0; j < num_hosts; ++j) srcs[j] = j;
  } else {
    util::Xoshiro256 rng(sample_seed);
    srcs = util::random_subset(num_hosts, sample_srcs, rng);
  }
  for (const std::size_t src : srcs) {
    const std::vector<std::uint8_t> oracle =
        fault::updown_reachable_hosts(fabric, health, src);
    ensures(static_cast<bool>(oracle[src]) == health.host_up(src),
            "connectivity oracle disagrees with host_up at the source");
    for (std::uint64_t dst = 0; dst < num_hosts; ++dst) {
      if (dst == src) continue;
      const bool routed =
          tables_route(fabric, repair.tables(), health, src, dst);
      ensures(routed == static_cast<bool>(oracle[dst]),
              routed ? "tables route a pair the BFS oracle proves disconnected"
                     : "tables miss a pair the BFS oracle proves connected");
      if (routed)
        ++outcome.reachable_pairs;
      else
        ++outcome.unreachable_pairs;
    }
  }
}

bool cdg_acyclic(const Fabric& fabric, const route::ForwardingTables& tables) {
  const check::ChannelIndex ci = check::switch_channels(fabric);
  const std::vector<std::uint64_t> deps =
      check::build_dependencies(fabric, tables, ci,
                                {.label = "churn.cdg"});
  return check::find_cyclic_sccs(check::build_graph(ci.size(), deps))
             .cyclic_sccs == 0;
}

/// The differential oracle: incremental state must be *identical* to a
/// from-scratch recompute over the same health view.
void check_full_oracle(const Fabric& fabric,
                       const route::IncrementalRepair& repair,
                       const check::IncrementalCertifier& recert,
                       const order::NodeOrdering& ordering,
                       const cps::Sequence& sequence) {
  FTCF_PROF_SCOPE("churn.full_oracle");
  const route::ForwardingTables full =
      route::compute_degraded_dmodk(fabric, repair.health());
  ensures(full == repair.tables(),
          "incremental LFT repair diverged from the full recompute");
  const check::Certificate full_cert =
      check::certify_contention_freedom(fabric, full, ordering, sequence);
  std::ostringstream incremental_json;
  std::ostringstream full_json;
  check::write_certificate_json(incremental_json, recert.certificate());
  check::write_certificate_json(full_json, full_cert);
  ensures(incremental_json.str() == full_json.str(),
          "incremental re-certification diverged from the full certify");
}

}  // namespace

CampaignReport run_campaign(const Fabric& fabric, const Timeline& timeline,
                            const order::NodeOrdering& ordering,
                            const cps::Sequence& sequence,
                            const CampaignOptions& options) {
  FTCF_PROF_SCOPE("churn.campaign");
  const fault::FaultState base(fabric, timeline.static_spec);
  route::IncrementalRepair repair(base);
  check::IncrementalCertifier recert(fabric, repair.tables(), ordering,
                                     sequence);

  CampaignReport report;
  report.num_events = timeline.events.size();
  report.events.reserve(timeline.events.size());

  // Baseline invariants before the first event (sample stream index 0; the
  // i-th event uses index 1 + i).
  {
    EventOutcome baseline;  // scratch: counts are rolled into the report only
    if (options.sample_srcs > 0) {
      check_connectivity(fabric, repair, options.sample_srcs,
                         util::derive_seed(options.seed, 0), baseline);
      ++report.connectivity_checks;
    }
    if (options.check_cdg) {
      ensures(cdg_acyclic(fabric, repair.tables()),
              "baseline tables have a cyclic channel dependency graph");
      ++report.cdg_checks;
    }
  }

  for (std::size_t i = 0; i < timeline.events.size(); ++i) {
    const ChurnEvent& event = timeline.events[i];
    EventOutcome outcome;
    outcome.event = event;
    outcome.label = event_to_string(fabric, event);

    route::RepairDelta delta;
    {
      FTCF_PROF_SCOPE("churn.apply_event");
      switch (event.kind) {
        case EventKind::kFailCable:
          delta = repair.fail_cable(event.cable);
          break;
        case EventKind::kRepairCable:
          delta = repair.repair_cable(event.cable);
          break;
        case EventKind::kFailSwitch:
          delta = repair.fail_switch(event.node);
          break;
        case EventKind::kRepairSwitch:
          delta = repair.repair_switch(event.node);
          break;
      }
    }
    check::CertificateDelta cert_delta;
    {
      FTCF_PROF_SCOPE("churn.recertify_event");
      cert_delta = recert.update(delta);
    }

    outcome.applied = delta.applied;
    outcome.entries_changed = delta.entries_changed;
    outcome.changed_dests = delta.changed_dests.size();
    outcome.rows_filled = delta.row_filled_dests.size();
    outcome.flows_rewalked = cert_delta.flows_rewalked;
    outcome.stages_touched = cert_delta.stages_touched;
    outcome.stages_changed = cert_delta.stages_changed;
    outcome.contention_free = cert_delta.contention_free;
    outcome.unrouted = delta.stats.entries_unrouted;
    outcome.rerouted = delta.stats.entries_rerouted;
    outcome.non_pristine = repair.non_pristine_dests();

    // HSD trajectory from the maintained certificate state (cheap: no
    // blames to build while the fabric stays contention-free).
    const check::SequenceMetrics hsd = check::summarize(recert.certificate());
    outcome.max_hsd = hsd.worst_stage_hsd;
    outcome.unroutable_flows = hsd.unroutable_flows;

    {
      FTCF_PROF_SCOPE("churn.invariants");
      if (options.sample_srcs > 0) {
        check_connectivity(fabric, repair, options.sample_srcs,
                           util::derive_seed(options.seed, 1 + i), outcome);
        ++report.connectivity_checks;
      }
      if (options.check_cdg) {
        outcome.cdg_acyclic = cdg_acyclic(fabric, repair.tables());
        ensures(outcome.cdg_acyclic,
                "churn event produced a cyclic channel dependency graph: " +
                    outcome.label);
        ++report.cdg_checks;
      }
      if (options.full_oracle) {
        check_full_oracle(fabric, repair, recert, ordering, sequence);
        ++report.oracle_checks;
      }
    }

    if (delta.applied) ++report.applied_events;
    if (options.metrics != nullptr) {
      obs::MetricsRegistry& m = *options.metrics;
      m.counter("churn.events").inc();
      if (delta.applied) m.counter("churn.events_applied").inc();
      m.counter("churn.entries_changed").inc(delta.entries_changed);
      m.counter("churn.flows_rewalked").inc(cert_delta.flows_rewalked);
      m.series("churn.max_hsd")
          .sample(event.at, static_cast<double>(outcome.max_hsd));
      m.series("churn.unrouted")
          .sample(event.at, static_cast<double>(outcome.unrouted));
      m.series("churn.non_pristine")
          .sample(event.at, static_cast<double>(outcome.non_pristine));
    }
    report.events.push_back(std::move(outcome));
  }

  report.final_contention_free =
      report.events.empty()
          ? recert.certificate().contention_free
          : report.events.back().contention_free;
  return report;
}

void write_campaign_json(std::ostream& os, const CampaignReport& report,
                         const std::map<std::string, std::string>& meta) {
  os << "{\n \"meta\":{";
  bool first = true;
  for (const auto& [key, value] : meta) {
    if (!first) os << ',';
    first = false;
    check::write_json_string(os, key);
    os << ':';
    check::write_json_string(os, value);
  }
  os << "},\n \"campaign\":{\"applied_events\":" << report.applied_events
     << ",\"cdg_checks\":" << report.cdg_checks
     << ",\"connectivity_checks\":" << report.connectivity_checks
     << ",\"contention_free\":"
     << (report.final_contention_free ? "true" : "false")
     << ",\"num_events\":" << report.num_events
     << ",\"oracle_checks\":" << report.oracle_checks << "},\n \"events\":[";
  first = true;
  for (const EventOutcome& e : report.events) {
    os << (first ? "\n  " : ",\n  ");
    first = false;
    os << "{\"applied\":" << (e.applied ? "true" : "false")
       << ",\"at\":" << e.event.at << ",\"cdg_acyclic\":"
       << (e.cdg_acyclic ? "true" : "false")
       << ",\"changed_dests\":" << e.changed_dests << ",\"contention_free\":"
       << (e.contention_free ? "true" : "false")
       << ",\"entries_changed\":" << e.entries_changed
       << ",\"flows_rewalked\":" << e.flows_rewalked << ",\"kind\":\""
       << event_kind_name(e.event.kind) << "\",\"label\":";
    check::write_json_string(os, e.label);
    os << ",\"max_hsd\":" << e.max_hsd << ",\"non_pristine\":" << e.non_pristine
       << ",\"reachable_pairs\":" << e.reachable_pairs
       << ",\"rerouted\":" << e.rerouted << ",\"rows_filled\":" << e.rows_filled
       << ",\"stages_changed\":" << e.stages_changed
       << ",\"stages_touched\":" << e.stages_touched
       << ",\"unreachable_pairs\":" << e.unreachable_pairs
       << ",\"unrouted\":" << e.unrouted
       << ",\"unroutable_flows\":" << e.unroutable_flows << '}';
  }
  os << (report.events.empty() ? "]\n}\n" : "\n ]\n}\n");
}

}  // namespace ftcf::churn
