#include "check/certify.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "check/depgraph.hpp"
#include "check/leaf_paths.hpp"
#include "obs/profile.hpp"
#include "util/thread_pool.hpp"

namespace ftcf::check {

using topo::Fabric;
using topo::PortId;

std::string detail::blame_rule(const Diagnostics& lints, std::size_t stage) {
  const std::string stage_loc = "stage " + std::to_string(stage);
  const auto has = [&](std::string_view rule,
                       std::string_view location) -> bool {
    for (const Finding& f : lints.findings())
      if (f.rule == rule && (location.empty() || f.location == location))
        return true;
    return false;
  };
  // An ordering that breaks the D-Mod-K arithmetic explains any collision;
  // after that, stage-local CPS shape problems, then fabric premises in
  // decreasing specificity, then incomplete tables.
  if (has("order-mismatch", "")) return "order-mismatch";
  if (has("cps-displacement", stage_loc)) return "cps-displacement";
  if (has("cps-displacement", "")) return "cps-displacement";
  for (const char* rule : {"rlft-cbb", "rlft-radix", "rlft-single-cable",
                           "rlft-parallel-ports", "pgft-structure",
                           "lft-incomplete"})
    if (has(rule, "")) return rule;
  return "";
}

namespace {

std::string flows_to_string(const std::vector<CollidingFlow>& flows) {
  std::ostringstream oss;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (i != 0) oss << ", ";
    oss << flows[i].src << "->" << flows[i].dst;
  }
  return oss.str();
}

}  // namespace

Certificate certify_contention_freedom(const Fabric& fabric,
                                       const route::ForwardingTables& tables,
                                       const order::NodeOrdering& ordering,
                                       const cps::Sequence& sequence) {
  FTCF_PROF_SCOPE("check.certify");
  // Incomplete tables are tolerated: stranded flows are counted per stage
  // and void the certificate instead of aborting the analysis.
  const detail::LeafPaths paths = [&] {
    FTCF_PROF_SCOPE("check.certify.paths");
    return detail::LeafPaths(fabric, tables, ordering, sequence);
  }();

  struct StageResult {
    StageWitness witness;
    PortId hot = topo::kInvalidPort;  ///< set when max_hsd > 1
  };
  const std::size_t num_stages = sequence.stages.size();
  std::vector<StageResult> per_stage(num_stages);
  {
    FTCF_PROF_SCOPE("check.certify.stages");
    const par::ForOptions options{.threads = 0, .grain = 1,
                                  .label = "check.certify"};
    std::vector<analysis::StageLoads> loads(
        par::region_width(num_stages, options));
    par::parallel_for(
        num_stages,
        [&](std::size_t s, std::uint32_t worker) {
          const cps::Stage& stage = sequence.stages[s];
          StageResult& result = per_stage[s];
          if (!stage.empty())
            result.witness =
                paths.fold_stage(stage.pairs, loads[worker], result.hot);
          if (result.witness.max_hsd <= 1) result.hot = topo::kInvalidPort;
          result.witness.shape =
              classify_stage_shape(stage, sequence.num_ranks);
        },
        options);
  }

  // Serial stage-order fold: certificates are byte-identical at any thread
  // count.
  Certificate cert;
  cert.num_ranks = sequence.num_ranks;
  cert.sequence_name = sequence.name;
  cert.contention_free = true;
  cert.stages.reserve(num_stages);
  for (std::size_t s = 0; s < num_stages; ++s) {
    const StageResult& result = per_stage[s];
    cert.stages.push_back(result.witness);
    if (result.witness.unroutable_flows > 0) cert.contention_free = false;
    if (result.hot == topo::kInvalidPort) continue;
    cert.contention_free = false;
    StageBlame blame;
    blame.stage = s;
    blame.max_hsd = result.witness.max_hsd;
    blame.hot_link = result.hot;
    cert.blames.push_back(std::move(blame));
  }
  if (cert.blames.empty()) return cert;

  FTCF_PROF_SCOPE("check.certify.blame");
  // Root-cause evidence: the flows actually crossing each hot link, in
  // stage-pair order, read from the cached paths.
  par::parallel_for(
      cert.blames.size(),
      [&](std::size_t b, std::uint32_t) {
        StageBlame& blame = cert.blames[b];
        blame.hot_link_name = channel_to_string(fabric, blame.hot_link);
        blame.colliding =
            paths.colliding(sequence.stages[blame.stage].pairs,
                            cert.stages[blame.stage], blame.hot_link);
      },
      par::ForOptions{.threads = 0, .grain = 1, .label = "check.certify"});
  // One scratch lint pass explains every violating stage. An order mismatch
  // outranks every other rule in blame_rule, so the fabric, sequence and
  // table lints run only when the ordering lint finds none.
  Diagnostics lints;
  lint_ordering(fabric, ordering, lints);
  if (detail::blame_rule(lints, 0) != "order-mismatch") {
    lint_fabric(fabric, lints);
    lint_sequence(sequence, lints);
    lint_tables(fabric, tables, /*degraded_expected=*/false, lints);
  }
  for (StageBlame& blame : cert.blames)
    blame.blamed_rule = detail::blame_rule(lints, blame.stage);
  return cert;
}

SequenceMetrics summarize(const Certificate& certificate) {
  SequenceMetrics out;
  double sum = 0.0;
  std::size_t loaded = 0;
  for (const StageWitness& witness : certificate.stages) {
    out.worst_stage_hsd = std::max(out.worst_stage_hsd, witness.max_hsd);
    out.worst_up_hsd = std::max(out.worst_up_hsd, witness.max_up_hsd);
    out.worst_down_hsd = std::max(out.worst_down_hsd, witness.max_down_hsd);
    out.unroutable_flows += witness.unroutable_flows;
    if (witness.max_hsd == 0) continue;
    sum += witness.max_hsd;
    ++loaded;
  }
  out.avg_max_hsd = loaded ? sum / static_cast<double>(loaded) : 0.0;
  return out;
}

namespace {

constexpr std::size_t kMaxViolationsShown = 4;

}  // namespace

void report_certificate(const Certificate& certificate,
                        Diagnostics& diagnostics) {
  if (certificate.contention_free) {
    std::uint64_t loaded_stages = 0;
    bool any_exchange = false;
    for (const StageWitness& witness : certificate.stages) {
      if (witness.num_flows > 0) ++loaded_stages;
      if (witness.shape == StageShape::kSymmetricExchange) any_exchange = true;
    }
    std::ostringstream oss;
    oss << "contention-freedom certified: " << loaded_stages
        << " loaded stage(s) of '" << certificate.sequence_name << "' over "
        << certificate.num_ranks
        << " rank(s) with HSD = 1 on every loaded link (Theorems 1-2"
        << (any_exchange ? " and Theorem 3" : "") << ')';
    diagnostics.note("cert-ok", "", oss.str());
    return;
  }
  std::size_t shown = 0;
  for (const StageBlame& blame : certificate.blames) {
    if (shown == kMaxViolationsShown) {
      diagnostics.note("hsd-violation", "",
                       std::to_string(certificate.blames.size() - shown) +
                           " further stage(s) with HSD > 1 not shown");
      break;
    }
    ++shown;
    const std::string location = "stage " + std::to_string(blame.stage);
    std::ostringstream oss;
    oss << "HSD = " << blame.max_hsd << " > 1 on link " << blame.hot_link_name
        << "; " << blame.max_hsd << " flow(s) collide there (first "
        << blame.colliding.size() << ": " << flows_to_string(blame.colliding)
        << "); the HSD = 1 witness of Theorems 1-3 fails at this stage";
    if (blame.blamed_rule.empty())
      oss << "; no lint rule explains the collision";
    diagnostics.error("hsd-violation", location, oss.str());
    if (!blame.blamed_rule.empty())
      diagnostics.note(
          "blame-" + blame.blamed_rule, location,
          "the hsd-violation at this stage is explained by lint rule '" +
              blame.blamed_rule + "' — see that finding for the root cause");
  }
  // Stranded flows with no hot link still void the certificate.
  if (certificate.blames.empty()) {
    const std::uint64_t stranded = summarize(certificate).unroutable_flows;
    diagnostics.error("hsd-violation", "",
                      "certificate void: " + std::to_string(stranded) +
                          " flow(s) unroutable through the supplied tables, "
                          "so per-link flow counts are not witnesses");
  }
}

void detail::write_stage_row(std::ostream& os, const StageWitness& w,
                             std::size_t stage) {
  os << "{\"flows\":" << w.num_flows << ",\"links_loaded\":" << w.links_loaded
     << ",\"max_down_hsd\":" << w.max_down_hsd << ",\"max_hsd\":" << w.max_hsd
     << ",\"max_up_hsd\":" << w.max_up_hsd << ",\"shape\":\""
     << stage_shape_name(w.shape) << "\",\"stage\":" << stage
     << ",\"unroutable\":" << w.unroutable_flows << '}';
}

void write_certificate_json(std::ostream& os, const Certificate& certificate,
                            const std::map<std::string, std::string>& meta) {
  os << "{\n \"meta\":{";
  bool first = true;
  for (const auto& [key, value] : meta) {
    if (!first) os << ',';
    first = false;
    write_json_string(os, key);
    os << ':';
    write_json_string(os, value);
  }
  os << "},\n \"certificate\":{\"contention_free\":"
     << (certificate.contention_free ? "true" : "false")
     << ",\"num_ranks\":" << certificate.num_ranks
     << ",\"num_stages\":" << certificate.stages.size() << ",\"sequence\":";
  write_json_string(os, certificate.sequence_name);
  os << ",\"violations\":" << certificate.blames.size() << "},\n \"stages\":[";
  first = true;
  for (std::size_t s = 0; s < certificate.stages.size(); ++s) {
    os << (first ? "\n  " : ",\n  ");
    first = false;
    detail::write_stage_row(os, certificate.stages[s], s);
  }
  os << (certificate.stages.empty() ? "]" : "\n ]") << ",\n \"violations\":[";
  first = true;
  for (const StageBlame& blame : certificate.blames) {
    os << (first ? "\n  " : ",\n  ");
    first = false;
    os << "{\"blame\":";
    write_json_string(
        os, blame.blamed_rule.empty() ? "unexplained" : blame.blamed_rule);
    os << ",\"colliding\":[";
    for (std::size_t i = 0; i < blame.colliding.size(); ++i) {
      if (i != 0) os << ',';
      os << "{\"dst\":" << blame.colliding[i].dst
         << ",\"src\":" << blame.colliding[i].src << '}';
    }
    os << "],\"hot_link\":";
    write_json_string(os, blame.hot_link_name);
    os << ",\"max_hsd\":" << blame.max_hsd << ",\"stage\":" << blame.stage
       << '}';
  }
  os << (certificate.blames.empty() ? "]\n}\n" : "\n ]\n}\n");
}

}  // namespace ftcf::check
