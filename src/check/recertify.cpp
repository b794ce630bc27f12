#include "check/recertify.hpp"

#include <algorithm>

#include "check/depgraph.hpp"
#include "obs/profile.hpp"
#include "util/expects.hpp"
#include "util/thread_pool.hpp"

namespace ftcf::check {

using topo::Fabric;
using topo::PortId;
using util::expects;

namespace {

/// Bucket shift for one load transition `before -> after` on one class
/// histogram; keeps the class maximum current.
void hist_shift(std::vector<std::uint32_t>& hist, std::uint32_t& max_load,
                std::uint32_t before, std::uint32_t after) {
  if (before > 0) --hist[before];
  if (after > 0) {
    if (after >= hist.size()) hist.resize(after + 1, 0);
    ++hist[after];
  }
  if (after > max_load) max_load = after;
  while (max_load > 0 && hist[max_load] == 0) --max_load;
}

/// Histogram class of a link: 0 injection (counted only among all links),
/// 1 up, 2 down (delivery links included).
std::uint8_t hist_class(analysis::LinkClass cls) {
  switch (cls) {
    case analysis::LinkClass::kInjection: return 0;
    case analysis::LinkClass::kUp: return 1;
    case analysis::LinkClass::kDown:
    case analysis::LinkClass::kDelivery: return 2;
  }
  return 0;
}

}  // namespace

IncrementalCertifier::IncrementalCertifier(const Fabric& fabric,
                                           const route::ForwardingTables& tables,
                                           const order::NodeOrdering& ordering,
                                           const cps::Sequence& sequence)
    : fabric_(&fabric),
      tables_(&tables),
      num_ranks_(sequence.num_ranks),
      sequence_name_(sequence.name),
      paths_(fabric, tables, ordering, sequence) {
  FTCF_PROF_SCOPE("check.recertify_build");

  const std::size_t num_stages = sequence.stages.size();

  stages_.resize(num_stages);
  flows_by_dest_.resize(fabric.num_hosts());
  for (std::size_t s = 0; s < num_stages; ++s) {
    StageState& st = stages_[s];
    st.shape = classify_stage_shape(sequence.stages[s], sequence.num_ranks);
    st.pairs = sequence.stages[s].pairs;
    for (std::size_t p = 0; p < st.pairs.size(); ++p) {
      const cps::Pair& pr = st.pairs[p];
      if (pr.src == pr.dst) continue;
      ++st.num_flows;
      const std::uint64_t dst = paths_.host(pr.dst);
      flows_by_dest_[dst].push_back({static_cast<std::uint32_t>(s),
                                     static_cast<std::uint32_t>(pr.src),
                                     paths_.entry(pr.src, dst).leaf,
                                     static_cast<std::uint32_t>(p)});
    }
  }

  // Stage slices of each destination's flow list: flows_by_dest_ was filled
  // stage-ascending, so per-stage runs are contiguous.
  flow_offsets_.resize(fabric.num_hosts());
  for (std::uint64_t dest = 0; dest < fabric.num_hosts(); ++dest) {
    std::vector<std::uint32_t>& offsets = flow_offsets_[dest];
    offsets.assign(num_stages + 1, 0);
    for (const FlowRef& ref : flows_by_dest_[dest]) ++offsets[ref.stage + 1];
    for (std::size_t s = 0; s < num_stages; ++s) offsets[s + 1] += offsets[s];
  }

  // Blame inversion index: per switch link, the packed (dest, ordinal) keys
  // of every cached path crossing it. The dest-ascending, ordinal-ascending
  // fill appends packed keys in increasing order, so each per-link vector is
  // born sorted; a link repeated inside one path appends the same key twice
  // in a row and is dropped.
  link_paths_.resize(fabric.num_ports());
  for (std::uint64_t dest = 0; dest < fabric.num_hosts(); ++dest) {
    for (std::uint32_t o = 0; o < paths_.num_leaves(); ++o) {
      const std::uint32_t path = paths_.path(dest, o);
      if (path == detail::LeafPaths::kNoPath) continue;
      const std::uint64_t packed = (dest << 32) | o;
      for (const PortId pid : paths_.links(path)) {
        std::vector<std::uint64_t>& keys = link_paths_[pid];
        if (keys.empty() || keys.back() != packed) keys.push_back(packed);
      }
    }
  }

  // Per-stage load state folded from the cached paths, then each violating
  // stage's blame.
  const par::ForOptions stage_opts{.threads = 0, .grain = 4,
                                   .label = "check.recertify"};
  std::vector<analysis::StageLoads> scratch(
      par::region_width(num_stages, stage_opts));
  par::parallel_for(
      num_stages,
      [&](std::size_t s, std::uint32_t worker) {
        StageState& st = stages_[s];
        if (st.pairs.empty()) return;
        analysis::StageLoads& loads = scratch[worker];
        PortId hot = topo::kInvalidPort;
        const StageWitness w = paths_.fold_stage(st.pairs, loads, hot);
        st.unroutable = w.unroutable_flows;
        st.links_loaded = w.links_loaded;
        st.loads.assign(fabric.num_ports(), 0);
        for (const PortId pid : loads.touched()) {
          const std::uint32_t load = loads.load(pid);
          st.loads[pid] = load;
          hist_shift(st.hist[0], st.max_load[0], 0, load);
          const std::uint8_t cls = hist_class(paths_.classes()[pid]);
          if (cls != 0) hist_shift(st.hist[cls], st.max_load[cls], 0, load);
          if (load >= 2) st.hot_pids.push_back(pid);
        }
        std::sort(st.hot_pids.begin(), st.hot_pids.end());
        refresh_blame(s);
      },
      stage_opts);

  // Static lints (fabric wiring, ordering, stage shapes) never change under
  // churn; only lint_tables must re-run when a certificate needs blames.
  lint_fabric(fabric, base_lints_);
  lint_ordering(fabric, ordering, base_lints_);
  lint_sequence(sequence, base_lints_);
}

void IncrementalCertifier::bump(StageState& st, PortId pid, int dir) {
  std::uint32_t& load = st.loads[pid];
  expects(dir > 0 || load > 0, "negative link load in incremental recert");
  const std::uint32_t before = load;
  const std::uint32_t after = dir > 0 ? before + 1 : before - 1;
  load = after;
  if (before == 0) ++st.links_loaded;
  if (after == 0) --st.links_loaded;
  hist_shift(st.hist[0], st.max_load[0], before, after);
  const std::uint8_t cls = hist_class(paths_.classes()[pid]);
  if (cls != 0) hist_shift(st.hist[cls], st.max_load[cls], before, after);
  if (before < 2 && after >= 2) {
    const auto it = std::lower_bound(st.hot_pids.begin(), st.hot_pids.end(), pid);
    st.hot_pids.insert(it, pid);
  } else if (before >= 2 && after < 2) {
    const auto it = std::lower_bound(st.hot_pids.begin(), st.hot_pids.end(), pid);
    st.hot_pids.erase(it);
  }
}

void IncrementalCertifier::apply_flow(StageState& st, bool routable,
                                      std::span<const PortId> links,
                                      PortId inject, int dir) {
  if (!routable) {
    expects(dir > 0 || st.unroutable > 0,
            "negative unroutable count in incremental recert");
    if (dir > 0)
      ++st.unroutable;
    else
      --st.unroutable;
    return;
  }
  bump(st, inject, dir);
  for (const PortId pid : links) bump(st, pid, dir);
}

PortId IncrementalCertifier::hottest(const StageState& st) const {
  // The one-shot certifier reports the lowest PortId attaining the maximum;
  // every load >= 2 lives in hot_pids, which is pid-ascending.
  for (const PortId pid : st.hot_pids)
    if (st.loads[pid] == st.max_load[0]) return pid;
  expects(false, "stage maximum missing from hot-link index");
  return topo::kInvalidPort;
}

StageWitness IncrementalCertifier::witness(const StageState& st) const {
  StageWitness w;
  w.shape = st.shape;
  w.max_hsd = st.max_load[0];
  w.max_up_hsd = st.max_load[1];
  w.max_down_hsd = st.max_load[2];
  w.num_flows = st.num_flows;
  w.links_loaded = st.links_loaded;
  w.unroutable_flows = st.unroutable;
  return w;
}

void IncrementalCertifier::index_path_links(std::uint64_t dest,
                                            std::uint32_t ordinal,
                                            std::span<const PortId> links,
                                            bool add) {
  const std::uint64_t packed = (dest << 32) | ordinal;
  for (const PortId pid : links) {
    std::vector<std::uint64_t>& keys = link_paths_[pid];
    const auto it = std::lower_bound(keys.begin(), keys.end(), packed);
    const bool found = it != keys.end() && *it == packed;
    // Insert-if-absent / erase-if-found keeps the link_paths_ invariant:
    // each path's key appears at most once per link, however often that
    // path crosses it, and every list stays sorted.
    if (add && !found)
      keys.insert(it, packed);
    else if (!add && found)
      keys.erase(it);
  }
}

std::vector<CollidingFlow> IncrementalCertifier::collect_colliding(
    std::size_t stage, PortId hot) const {
  // Injection links are host ports; a switch hot link can only be crossed
  // via a cached path, so the link index names every candidate directly.
  // A host hot link (a source sending twice in one stage) falls back to the
  // certifier's stage-order scan.
  if (paths_.classes()[hot] == analysis::LinkClass::kInjection)
    return paths_.colliding(stages_[stage].pairs, witness(stages_[stage]),
                            hot);
  struct Hit {
    std::uint32_t pair;
    std::uint64_t src;
    std::uint64_t dst;
  };
  std::vector<Hit> hits;
  for (const std::uint64_t packed : link_paths_[hot]) {
    const std::uint64_t dest = packed >> 32;
    const auto ordinal = static_cast<std::uint32_t>(packed);
    const std::vector<FlowRef>& refs = flows_by_dest_[dest];
    const std::vector<std::uint32_t>& offsets = flow_offsets_[dest];
    for (std::uint32_t i = offsets[stage]; i < offsets[stage + 1]; ++i)
      if (refs[i].ordinal == ordinal)
        hits.push_back({refs[i].pair, paths_.host(refs[i].src), dest});
  }
  // Stage-pair order, first kMaxCollidingShown — byte-identical to the
  // one-shot certifier's in-order scan.
  std::sort(hits.begin(), hits.end(),
            [](const Hit& a, const Hit& b) { return a.pair < b.pair; });
  if (hits.size() > kMaxCollidingShown) hits.resize(kMaxCollidingShown);
  std::vector<CollidingFlow> colliding;
  for (const Hit& hit : hits) colliding.push_back({hit.src, hit.dst});
  return colliding;
}

void IncrementalCertifier::refresh_blame(std::size_t s) {
  StageState& st = stages_[s];
  st.blame = StageBlame{};
  if (st.max_load[0] <= 1) return;
  st.blame.stage = s;
  st.blame.max_hsd = st.max_load[0];
  st.blame.hot_link = hottest(st);
  st.blame.hot_link_name = channel_to_string(*fabric_, st.blame.hot_link);
  st.blame.colliding = collect_colliding(s, st.blame.hot_link);
}

std::vector<StageBlame> IncrementalCertifier::build_blames() const {
  std::vector<StageBlame> blames;
  for (const StageState& st : stages_)
    if (st.max_load[0] > 1) blames.push_back(st.blame);
  if (!blames.empty()) {
    // The tables may have changed since any blame was cached, so the rule
    // that explains each collision is re-derived every time.
    Diagnostics lints = base_lints_;
    lint_tables(*fabric_, *tables_, /*degraded_expected=*/false, lints);
    for (StageBlame& blame : blames)
      blame.blamed_rule = detail::blame_rule(lints, blame.stage);
  }
  return blames;
}

CertificateDelta IncrementalCertifier::update(const route::RepairDelta& delta) {
  FTCF_PROF_SCOPE("check.recertify_update");
  CertificateDelta out;

  // Row fills touch flow paths only when the revived switch is a leaf: the
  // filled destinations are fully pristine, and no surviving entry pointed
  // into the switch while it was dead, so for an upper switch the new row
  // is load-invisible until some later event reroutes a column through it.
  const bool leaf_fill =
      !delta.row_filled_dests.empty() &&
      delta.row_switch != topo::kInvalidNode &&
      fabric_->node(delta.row_switch).level == 1;
  const std::uint32_t row_ordinal =
      leaf_fill ? fabric_->node(delta.row_switch).ordinal : 0;

  // Re-path the affected (destination, leaf) cache rows against the
  // repaired tables, copy-on-write, so old and new paths coexist while the
  // per-stage loads are shifted. A changed *column* usually leaves most of
  // its cached paths byte-identical (only the entry leaves whose rows moved
  // matter), so each fresh row records which ordinals actually differ — a
  // flow over an unchanged path would subtract and re-add the exact same
  // loads, and is skipped wholesale.
  struct FreshRow {
    std::uint64_t dest = 0;
    bool fill_only = false;  ///< row fill: only row_ordinal can move
    bool any_changed = false;
    std::vector<detail::LeafPaths::Walk> walks;  ///< per ordinal
    std::vector<PortId> links;                   ///< stride() per ordinal
    std::vector<std::uint8_t> changed;           ///< per ordinal
    [[nodiscard]] std::span<const PortId> path(std::uint32_t ordinal,
                                               std::size_t stride) const {
      return {links.data() + ordinal * stride, walks[ordinal].length};
    }
  };
  const std::size_t stride = paths_.stride();
  std::vector<FreshRow> fresh;
  {
    FTCF_PROF_SCOPE("check.recertify_repath");
    for (const std::uint64_t dest : delta.changed_dests)
      if (paths_.targeted(dest)) fresh.emplace_back().dest = dest;
    if (leaf_fill) {
      for (const std::uint64_t dest : delta.row_filled_dests) {
        if (paths_.path(dest, row_ordinal) == detail::LeafPaths::kNoPath)
          continue;
        FreshRow& fr = fresh.emplace_back();
        fr.dest = dest;
        fr.fill_only = true;
      }
      std::sort(fresh.begin(), fresh.end(),
                [](const FreshRow& a, const FreshRow& b) {
                  return a.dest < b.dest;
                });
    }
    // Rows are disjoint and read only the (immutable within this pass)
    // tables, so the re-walks parallelize; row order was fixed above.
    const par::ForOptions repath_opts{.threads = 0, .grain = 8,
                                      .label = "check.recertify"};
    par::parallel_for(
        fresh.size(),
        [&](std::size_t i, std::uint32_t) {
          FreshRow& fr = fresh[i];
          const std::uint32_t num_leaves = paths_.num_leaves();
          fr.walks.assign(num_leaves, {});
          fr.links.assign(num_leaves * stride, topo::kInvalidPort);
          fr.changed.assign(num_leaves, 0);
          const std::uint32_t first = fr.fill_only ? row_ordinal : 0;
          const std::uint32_t last =
              fr.fill_only ? row_ordinal + 1 : num_leaves;
          for (std::uint32_t o = first; o < last; ++o) {
            const std::uint32_t path = paths_.path(fr.dest, o);
            if (path == detail::LeafPaths::kNoPath) continue;
            fr.walks[o] =
                paths_.walk(fr.dest, o, fr.links.data() + o * stride);
            const std::span<const PortId> old = paths_.links(path);
            const std::span<const PortId> now = fr.path(o, stride);
            if (fr.walks[o].routable != paths_.routable(path) ||
                !std::equal(old.begin(), old.end(), now.begin(), now.end())) {
              fr.changed[o] = 1;
              fr.any_changed = true;
            }
          }
        },
        repath_opts);
  }

  // Collect the affected flows per stage: exactly those whose cached entry
  // path differs under the repaired tables.
  struct Touched {
    std::uint32_t src;
    std::uint32_t ordinal;
    std::uint64_t dst;
  };
  std::vector<std::vector<Touched>> touched(stages_.size());
  const auto lookup_fresh = [&fresh](std::uint64_t dest) -> const FreshRow& {
    const auto it = std::lower_bound(
        fresh.begin(), fresh.end(), dest,
        [](const FreshRow& row, std::uint64_t d) { return row.dest < d; });
    expects(it != fresh.end() && it->dest == dest,
            "re-walked flow without a re-pathed cache row");
    return *it;
  };
  for (const FreshRow& fr : fresh) {
    if (!fr.any_changed) continue;
    for (const FlowRef& ref : flows_by_dest_[fr.dest])
      if (fr.changed[ref.ordinal])
        touched[ref.stage].push_back({ref.src, ref.ordinal, fr.dest});
  }

  std::vector<std::size_t> dirty_stages;
  for (std::size_t s = 0; s < stages_.size(); ++s)
    if (!touched[s].empty()) dirty_stages.push_back(s);
  out.stages_touched = dirty_stages.size();
  if (!dirty_stages.empty()) out.applied = true;

  // Shift each dirty stage's loads: subtract the old cached path of every
  // affected flow, add its re-walked path. Stages own disjoint state, so
  // this parallelizes; witness comparison happens in the same task.
  std::vector<std::uint8_t> witness_changed(dirty_stages.size(), 0);
  const par::ForOptions opts{.threads = 0, .grain = 8,
                             .label = "check.recertify"};
  par::parallel_for(
      dirty_stages.size(),
      [&](std::size_t i, std::uint32_t) {
        StageState& st = stages_[dirty_stages[i]];
        const StageWitness before = witness(st);
        for (const Touched& t : touched[dirty_stages[i]]) {
          const PortId inject = paths_.entry(t.src, t.dst).inject;
          const std::uint32_t old = paths_.path(t.dst, t.ordinal);
          apply_flow(st, paths_.routable(old), paths_.links(old), inject, -1);
          const FreshRow& fr = lookup_fresh(t.dst);
          apply_flow(st, fr.walks[t.ordinal].routable,
                     fr.path(t.ordinal, stride), inject, +1);
        }
        const StageWitness after = witness(st);
        witness_changed[i] =
            after.max_hsd != before.max_hsd ||
            after.max_up_hsd != before.max_up_hsd ||
            after.max_down_hsd != before.max_down_hsd ||
            after.links_loaded != before.links_loaded ||
            after.unroutable_flows != before.unroutable_flows;
      },
      opts);

  for (std::size_t i = 0; i < dirty_stages.size(); ++i) {
    out.flows_rewalked += touched[dirty_stages[i]].size();
    if (witness_changed[i]) ++out.stages_changed;
  }

  for (const FreshRow& fr : fresh) {
    for (std::uint32_t o = 0; o < fr.changed.size(); ++o) {
      if (!fr.changed[o]) continue;
      const std::uint32_t path = paths_.path(fr.dest, o);
      index_path_links(fr.dest, o, paths_.links(path), /*add=*/false);
      index_path_links(fr.dest, o, fr.path(o, stride), /*add=*/true);
      paths_.store(path, fr.walks[o], fr.links.data() + o * stride);
    }
  }

  out.contention_free = true;
  for (const StageState& st : stages_)
    if (st.max_load[0] > 1 || st.unroutable > 0) {
      out.contention_free = false;
      break;
    }
  {
    FTCF_PROF_SCOPE("check.recertify_blames");
    // Only a stage with a re-walked flow can change its violation; the
    // rest keep their cached blame.
    par::parallel_for(
        dirty_stages.size(),
        [&](std::size_t i, std::uint32_t) { refresh_blame(dirty_stages[i]); },
        opts);
  }
  return out;
}

Certificate IncrementalCertifier::certificate() const {
  Certificate cert;
  cert.num_ranks = num_ranks_;
  cert.sequence_name = sequence_name_;
  cert.contention_free = true;
  cert.stages.reserve(stages_.size());
  for (const StageState& st : stages_) {
    cert.stages.push_back(witness(st));
    if (st.unroutable > 0 || st.max_load[0] > 1) cert.contention_free = false;
  }
  cert.blames = build_blames();
  return cert;
}

}  // namespace ftcf::check
