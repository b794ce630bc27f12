#include "check/check.hpp"

#include <algorithm>
#include <sstream>

#include "obs/profile.hpp"
#include "util/expects.hpp"

namespace ftcf::check {

namespace {

constexpr std::size_t kMaxWalkProblems = 8;

void report_cdg(const topo::Fabric& fabric, const CdgAnalysis& cdg,
                Diagnostics& diagnostics) {
  if (!cdg.acyclic) {
    std::ostringstream oss;
    oss << "channel dependency graph has " << cdg.cyclic_scc_count
        << " cyclic SCC(s) over " << cdg.num_channels << " channels / "
        << cdg.num_dependencies
        << " dependencies; deterministic routing over these tables can "
           "deadlock. Cycle: "
        << cycle_to_string(fabric, cdg.cycle);
    diagnostics.error("cdg-cycle", "", oss.str());
  } else if (cdg.down_up_turns > 0) {
    std::ostringstream oss;
    oss << cdg.down_up_turns
        << " down->up channel dependenc"
        << (cdg.down_up_turns == 1 ? "y" : "ies")
        << " (up*/down* discipline broken) although no cycle closes; the "
           "tables are deadlock-free by graph analysis but no longer by "
           "construction";
    diagnostics.warning("updown-turn", "", oss.str());
  }
}

void report_walk(const route::LftAudit& walk, bool degraded_expected,
                 Diagnostics& diagnostics) {
  std::size_t shown = 0;
  for (const std::string& problem : walk.problems) {
    if (walk.cdg_mismatch && problem.rfind("walk/CDG", 0) == 0) {
      diagnostics.error("cdg-walk-mismatch", "", problem);
      continue;
    }
    if (shown == kMaxWalkProblems) {
      diagnostics.note("route-problem", "",
                       std::to_string(walk.problems.size() - shown) +
                           " further route problem(s) not shown");
      break;
    }
    diagnostics.error("route-problem", "", problem);
    ++shown;
  }
  if (!walk.unreachable.empty()) {
    const auto& [s, d] = walk.unreachable.front();
    std::ostringstream oss;
    oss << walk.unreachable.size() << " of " << walk.pairs_checked
        << " checked pair(s) unreachable (first: " << s << " -> " << d
        << ")";
    if (degraded_expected) {
      oss << "; expected where faults strand hosts";
      diagnostics.note("route-unreachable", "", oss.str());
    } else {
      oss << " on a pristine fabric";
      diagnostics.warning("route-unreachable", "", oss.str());
    }
  }
}

/// Suppression entries naming rules outside the catalog would otherwise be
/// dead weight a typo could hide behind; surface each one once.
void report_unknown_suppressions(const Suppressions& suppressions,
                                 Diagnostics& diagnostics) {
  std::vector<std::string> reported;
  for (const std::string& rule : suppressions.rules()) {
    if (is_known_rule(rule)) continue;
    if (std::find(reported.begin(), reported.end(), rule) != reported.end())
      continue;
    reported.push_back(rule);
    diagnostics.warning("suppress-unknown-rule", "",
                        "suppression entry names unknown rule '" + rule +
                            "' (not in the stable rule catalog); the entry "
                            "can never match a finding");
  }
}

/// Render a small destination list, e.g. "{3, 17, 41}".
std::string dest_set_to_string(const std::vector<std::uint64_t>& dests) {
  std::ostringstream oss;
  oss << '{';
  for (std::size_t i = 0; i < dests.size(); ++i)
    oss << (i == 0 ? "" : ", ") << dests[i];
  oss << '}';
  return oss.str();
}

void report_vl(const topo::Fabric& fabric, const VlProposal& vl,
               bool cdg_acyclic, Diagnostics& diagnostics) {
  const bool solved = vl.assignment.complete() && vl.analysis.all_acyclic();
  const VlOptimality* opt =
      vl.optimality.has_value() ? &*vl.optimality : nullptr;
  if (solved && opt != nullptr && opt->optimal()) {
    // The minimality proof upgrades the vl-assignment certificate.
    std::ostringstream oss;
    oss << opt->upper_bound
        << " lane(s) proven minimal: branch-and-bound lower bound "
        << opt->lower_bound << " equals the assigned lane count";
    if (opt->clique.size() >= 2)
      oss << "; clique witness " << dest_set_to_string(opt->clique)
          << " — these destinations pairwise conflict, no two can share a "
             "lane";
    else
      oss << "; the union dependency graph over every destination is "
             "acyclic, so one lane suffices";
    if (opt->improved)
      oss << "; the greedy first-fit proposal was suboptimal and has been "
             "replaced";
    oss << " (" << opt->nodes_explored << " search node(s) explored): "
        << vl_assignment_to_string(vl.assignment);
    diagnostics.note("vl-optimal", "", oss.str());
    return;
  }
  if (solved) {
    std::ostringstream oss;
    oss << "virtual-lane assignment with " << vl.assignment.num_lanes
        << " lane(s) renders every per-lane dependency graph acyclic";
    if (cdg_acyclic)
      oss << " (the single-lane CDG is already acyclic, so one lane "
             "suffices)";
    else
      oss << ", breaking the single-lane dependency cycle: "
          << vl_assignment_to_string(vl.assignment);
    diagnostics.note("vl-assignment", "", oss.str());
  } else {
    std::ostringstream oss;
    oss << "no destination->VL assignment within " << vl.assignment.num_lanes
        << " lane(s) breaks every dependency cycle";
    if (!vl.assignment.unassigned.empty())
      oss << " (" << vl.assignment.unassigned.size()
          << " destination(s) unplaceable — a per-destination routing loop "
             "cannot be fixed by lane separation)";
    for (const CdgAnalysis& lane : vl.analysis.lanes) {
      if (lane.acyclic) continue;
      oss << "; first cyclic lane: " << cycle_to_string(fabric, lane.cycle);
      break;
    }
    diagnostics.error("vl-cycle", "", oss.str());
  }

  // Honest bound reporting when the proof did not certify minimality.
  if (opt == nullptr || !opt->provable() || opt->optimal()) return;
  std::ostringstream oss;
  if (opt->budget_exhausted) {
    oss << "lane minimality unresolved: node budget " << opt->node_budget
        << " exhausted after " << opt->nodes_explored
        << " placement(s); proven lower bound " << opt->lower_bound;
    if (opt->clique.size() >= 2)
      oss << " (clique witness " << dest_set_to_string(opt->clique) << ')';
    if (opt->upper_bound != 0)
      oss << ", best known assignment " << opt->upper_bound << " lane(s)"
          << (opt->improved ? " (replacing the greedy proposal)" : "");
    else
      oss << ", no feasible assignment known yet";
  } else {
    // The search ran to exhaustion without finding any assignment the lane
    // budget admits: infeasibility is proven, not just unobserved.
    oss << "proven: no destination->VL assignment exists within the lane "
           "budget — at least "
        << opt->lower_bound << " lane(s) are required ("
        << opt->nodes_explored << " search node(s) explored)";
  }
  diagnostics.warning("vl-bound-gap", "", oss.str());
}

void report_adaptive(const topo::Fabric& fabric,
                     const AdaptiveCdgAnalysis& adaptive,
                     Diagnostics& diagnostics) {
  const CdgAnalysis& cdg = adaptive.cdg;
  if (cdg.acyclic) {
    std::ostringstream oss;
    oss << "adaptive-closure CDG acyclic: " << cdg.num_dependencies
        << " union dependencies over " << cdg.num_channels << " channels ("
        << adaptive.relation_pairs << " (switch, dest) pairs, "
        << adaptive.relation_choices << " candidate out-ports, max fanout "
        << adaptive.max_fanout
        << "); every per-packet minimal up-port policy is deadlock-free";
    diagnostics.note("cdg-adaptive-ok", "", oss.str());
  } else {
    std::ostringstream oss;
    oss << "adaptive routing relation closes a dependency cycle ("
        << cdg.cyclic_scc_count << " cyclic SCC(s) over " << cdg.num_channels
        << " channels / " << cdg.num_dependencies
        << " union dependencies); some legal sequence of up-port choices can "
           "deadlock even if the deterministic tables cannot. Cycle: "
        << cycle_to_string(fabric, cdg.cycle);
    diagnostics.error("cdg-adaptive-cycle", "", oss.str());
  }
}

void record_metrics(obs::MetricsRegistry& metrics, const CheckReport& report) {
  const Diagnostics& d = report.diagnostics;
  metrics.counter("check.findings.errors").inc(d.errors());
  metrics.counter("check.findings.warnings").inc(d.warnings());
  metrics.counter("check.findings.notes").inc(d.notes());
  metrics.counter("check.findings.suppressed").inc(d.suppressed());
  metrics.counter("check.cdg.channels").inc(report.cdg.num_channels);
  metrics.counter("check.cdg.dependencies").inc(report.cdg.num_dependencies);
  metrics.counter("check.cdg.down_up_turns").inc(report.cdg.down_up_turns);
  metrics.gauge("check.cdg.acyclic").set(report.cdg.acyclic ? 1.0 : 0.0);
  metrics.counter("check.walk.pairs_checked").inc(report.walk.pairs_checked);
  metrics.counter("check.walk.pairs_reachable")
      .inc(report.walk.pairs_reachable);
  metrics.counter("check.walk.unreachable").inc(report.walk.unreachable.size());
  if (report.certificate) {
    metrics.gauge("check.cert.contention_free")
        .set(report.certificate->contention_free ? 1.0 : 0.0);
    metrics.counter("check.cert.stages").inc(report.certificate->stages.size());
    metrics.counter("check.cert.violations")
        .inc(report.certificate->blames.size());
  }
  if (report.telemetry) {
    metrics.counter("check.telemetry.stages")
        .inc(report.telemetry->stages.size());
    metrics.counter("check.telemetry.mismatches")
        .inc(report.telemetry->mismatches);
    metrics.counter("check.telemetry.inconclusive")
        .inc(report.telemetry->inconclusive);
    metrics.gauge("check.telemetry.consistent")
        .set(report.telemetry->consistent() ? 1.0 : 0.0);
  }
  if (report.vl) {
    metrics.gauge("check.vl.lanes").set(report.vl->assignment.num_lanes);
    metrics.gauge("check.vl.acyclic")
        .set(report.vl->analysis.all_acyclic() ? 1.0 : 0.0);
    if (report.vl->optimality) {
      const VlOptimality& opt = *report.vl->optimality;
      metrics.gauge("check.vl.lower_bound").set(opt.lower_bound);
      metrics.gauge("check.vl.optimal").set(opt.optimal() ? 1.0 : 0.0);
      metrics.counter("check.vl.suspects").inc(opt.suspects);
      metrics.counter("check.vl.conflict_edges").inc(opt.conflict_edges);
      metrics.counter("check.vl.bb_nodes").inc(opt.nodes_explored);
    }
  }
  if (report.adaptive) {
    metrics.counter("check.adaptive.dependencies")
        .inc(report.adaptive->cdg.num_dependencies);
    metrics.counter("check.adaptive.choices")
        .inc(report.adaptive->relation_choices);
    metrics.gauge("check.adaptive.acyclic")
        .set(report.adaptive->cdg.acyclic ? 1.0 : 0.0);
  }
}

}  // namespace

CheckReport run_check(const topo::Fabric& fabric,
                      const route::ForwardingTables& tables,
                      const CheckOptions& options) {
  FTCF_PROF_SCOPE("check.run");
  CheckReport report;
  report.diagnostics.set_suppressions(options.suppressions);
  report_unknown_suppressions(options.suppressions, report.diagnostics);

  lint_fabric(fabric, report.diagnostics, options.faults);

  report.cdg = analyze_cdg(fabric, tables);
  report_cdg(fabric, report.cdg, report.diagnostics);

  const route::CdgVerdict verdict{report.cdg.acyclic,
                                  report.cdg.down_up_turns};
  report.walk = route::validate_lft(fabric, tables, options.faults,
                                    options.exhaustive_limit, &verdict);
  report_walk(report.walk, options.faults != nullptr, report.diagnostics);

  lint_tables(fabric, tables, options.faults != nullptr, report.diagnostics);
  if (options.ordering != nullptr)
    lint_ordering(fabric, *options.ordering, report.diagnostics);
  if (options.sequence != nullptr)
    lint_sequence(*options.sequence, report.diagnostics);

  if (options.certify) {
    util::expects(options.ordering != nullptr && options.sequence != nullptr,
                  "certification needs a node ordering and a CPS");
    bool need_enumerative = true;
    if (options.symbolic) {
      report.symbolic =
          symbolic_certify(fabric, *options.ordering, *options.sequence,
                           options.tables_canonical_dmodk);
      if (report.symbolic->applicable) {
        if (options.symbolic_cross_check) {
          // Differential mode: run the enumerative walk anyway and demand
          // byte-identical certificates through the shared JSON writer.
          const Certificate enumerative = certify_contention_freedom(
              fabric, tables, *options.ordering, *options.sequence);
          std::ostringstream sym_doc;
          std::ostringstream enum_doc;
          write_certificate_json(sym_doc, report.symbolic->certificate);
          write_certificate_json(enum_doc, enumerative);
          if (sym_doc.str() != enum_doc.str()) {
            report.diagnostics.error(
                "cert-symbolic-mismatch", "",
                "symbolic and enumerative certificates diverge for '" +
                    report.symbolic->certificate.sequence_name +
                    "' — the algebraic proof is unsound for this input; "
                    "the enumerative certificate wins");
            report.certificate = enumerative;
            report_certificate(*report.certificate, report.diagnostics);
            need_enumerative = false;
          }
        }
        if (need_enumerative) {  // no cross-check, or cross-check agreed
          report.certificate = report.symbolic->certificate;
          report_certificate(*report.certificate, report.diagnostics);
          report_symbolic_proof(*report.symbolic, report.diagnostics);
          need_enumerative = false;
        }
      } else {
        report.diagnostics.note(
            "symbolic-inapplicable",
            report.symbolic->inapplicable_stage
                ? "stage " + std::to_string(*report.symbolic->inapplicable_stage)
                : "",
            "symbolic prover declined (" +
                report.symbolic->inapplicable_reason +
                "); falling back to the enumerative certifier");
      }
    }
    if (need_enumerative) {
      report.certificate = certify_contention_freedom(
          fabric, tables, *options.ordering, *options.sequence);
      report_certificate(*report.certificate, report.diagnostics);
    }
  }

  if (options.replay_telemetry) {
    util::expects(report.certificate.has_value(),
                  "telemetry replay needs a certificate (--certify)");
    report.telemetry = replay_certificate_telemetry(
        fabric, tables, *options.ordering, *options.sequence,
        *report.certificate, options.replay);
    report_telemetry_replay(*report.telemetry, report.diagnostics);
  }

  if (options.propose_vls > 0) {
    VlProposal vl;
    std::vector<std::vector<std::uint64_t>> per_dest;
    vl.assignment =
        propose_vl_assignment(fabric, tables, options.propose_vls,
                              options.prove_vl_optimal ? &per_dest : nullptr);
    if (options.prove_vl_optimal)
      vl.optimality = prove_vl_optimality(
          fabric, per_dest, options.propose_vls, vl.assignment,
          VlOptimalityOptions{.node_budget = options.vl_node_budget});
    // Validated after the prover so a replaced assignment is what gets the
    // per-lane verdicts.
    vl.analysis = analyze_cdg_per_vl(fabric, tables, vl.assignment);
    report.vl = std::move(vl);
    report_vl(fabric, *report.vl, report.cdg.acyclic, report.diagnostics);
  }

  if (options.adaptive_closure) {
    report.adaptive = analyze_adaptive_cdg(fabric, tables);
    report_adaptive(fabric, *report.adaptive, report.diagnostics);
  }

  if (options.metrics != nullptr) record_metrics(*options.metrics, report);
  return report;
}

}  // namespace ftcf::check
