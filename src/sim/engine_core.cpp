// The shared packet-simulation engine: one implementation executing over a
// PartitionMap. Design notes (docs/PERF.md has the long-form discussion):
//
//   * Canonical event order. Every queue pops by (time, event-type rank,
//     port, message, packet seq) — event *content*, not push order. Push
//     order is a schedule-history artifact no partitioned execution can
//     reproduce; content keys give a total order every execution realizes
//     identically. Events with equal keys commute (duplicate credits,
//     identical retransmit twins), so the residual push-order stabilizer
//     never changes results.
//   * Ownership. Port state (queues, credits, busy, round-robin cursors)
//     belongs to the partition owning the port's node. Message accounting
//     (MsgMeta, pending table, retransmit queues, host cursors) belongs to
//     the partition owning the *source* host: a delivery at the destination
//     forwards a kDeliverAcct event — one cable delay later — back to the
//     source partition, which arbitrates duplicate claims and completes the
//     message. A serial run uses the same accounting delay, so serial and
//     partitioned runs realize the same schedule.
//   * Conservative lookahead. Every cross-partition event is scheduled at
//     least cable_latency_ns ahead, so each window may process all events
//     strictly before (global min next-event time + cable_latency_ns).
//   * Stage barriers. In synchronized mode the coordinator detects the
//     global outstanding-message count reaching zero at a window boundary
//     and schedules a kStageAdvance event one cable delay after the last
//     completion — provably at or after every partition's local clock, so
//     the barrier needs no rollback either.
#include "sim/engine_core.hpp"

#include <algorithm>
#include <bit>
#include <deque>
#include <limits>
#include <memory>
#include <span>
#include <tuple>
#include <utility>

#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "routing/adaptive.hpp"
#include "sim/keyed_queue.hpp"
#include "util/expects.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace ftcf::sim::detail {

using topo::Fabric;
using topo::NodeKind;
using topo::PortId;
using util::expects;

namespace {

/// Sentinel: this packet has no pending-table entry (non-resilient runs).
constexpr std::uint32_t kNoPend = std::numeric_limits<std::uint32_t>::max();

struct Packet {
  std::uint32_t dst = 0;
  std::uint32_t bytes = 0;
  std::uint32_t msg = 0;
  std::uint32_t seq = 0;  ///< position within the message (reorder tracking)
  std::uint32_t pend = kNoPend;  ///< src-partition pending slot (resilient)
  std::uint32_t src = 0;         ///< source host (routes delivery accounting)
  std::uint16_t stage = obs::kNoStage;  ///< CPS stage (trace tagging)
};

/// Enumerator order IS the canonical same-timestamp rank: at equal times,
/// link state changes apply first, then packet motion, then bookkeeping,
/// with the stage barrier sorting after everything else of its instant.
enum class EvType : std::uint8_t {
  kLinkDown,      ///< scripted cable death (one event per endpoint)
  kLinkUp,        ///< scripted cable revival (one event per endpoint)
  kArrive,        ///< packet reaches a port after wire + switch latency
  kOutFree,       ///< output port finished serializing
  kCredit,        ///< buffer credit returns upstream
  kHostKick,      ///< (re)start a host's injection loop
  kDeliverAcct,   ///< delivery accounting at the source partition
  kTimeout,       ///< per-packet retransmit timer (resilient runs)
  kStageAdvance,  ///< synchronized-mode stage barrier release
};

struct Ev {
  EvType type = EvType::kArrive;
  PortId port = 0;  ///< kArrive: receiving port; kOutFree/kCredit: source
                    ///< port; kHostKick/kDeliverAcct: host index;
                    ///< kTimeout: pending slot; kLinkDown/Up: the endpoint
  Packet pkt;       ///< kArrive / kDeliverAcct
  SimTime aux = 0;  ///< kDeliverAcct: arrival time; kLinkDown/Up: 1 on the
                    ///< primary endpoint (counts the flap once)
};

/// Canonical tie key — see keyed_queue.hpp's KeyedEventQueue.
struct EvKeyFn {
  [[nodiscard]] std::tuple<std::uint8_t, std::uint32_t, std::uint32_t,
                           std::uint32_t>
  operator()(const Ev& ev) const noexcept {
    return {static_cast<std::uint8_t>(ev.type), ev.port, ev.pkt.msg,
            ev.pkt.seq};
  }
};

using EvQueue = KeyedEventQueue<Ev, EvKeyFn>;

/// One event crossing a partition boundary (outbox -> inbox channel entry).
struct ChannelEv {
  SimTime at = 0;
  Ev ev;
};

struct MsgMeta {
  std::uint64_t remaining = 0;
  SimTime start = -1;
  std::uint32_t src = 0;
  std::uint32_t max_seq_seen = 0;
  std::uint16_t stage = obs::kNoStage;  ///< CPS stage the message belongs to
  bool any_delivered = false;
  bool failed = false;  ///< some bytes were written off (resilient runs)
};

struct HostCursor {
  std::vector<Message> msgs;            ///< messages of the current phase
  std::vector<std::uint16_t> stage_of;  ///< CPS stage per message (parallel)
  std::size_t index = 0;                ///< current message
  std::uint64_t offset = 0;             ///< bytes already injected of it
  std::uint32_t first_msg_id = 0;       ///< msg ids are first_msg_id + index

  [[nodiscard]] bool done() const noexcept { return index >= msgs.size(); }
};

/// Clamp a stage index into the trace event's uint16 field.
std::uint16_t stage_tag(std::size_t stage) noexcept {
  return stage >= obs::kNoStage ? obs::kNoStage
                                : static_cast<std::uint16_t>(stage);
}

/// One in-flight packet awaiting delivery confirmation (resilient runs).
/// Resolution is single-shot: the first delivery accounting (or the final
/// timeout) claims the slot; late twins count as duplicates and touch no
/// message accounting — so bytes are never double-counted.
struct Pending {
  Packet pkt;
  std::uint32_t attempts = 1;  ///< sends so far (first injection included)
  bool resolved = false;
};

// GCC/Clang both provide __int128 on every 64-bit target the project
// supports; __extension__ silences the pedantic "not ISO C++" diagnostic.
__extension__ typedef unsigned __int128 U128;

/// Exact integer latency moments: count / sum / sum-of-squares (128-bit) /
/// min / max in nanoseconds. Unlike streaming Welford updates these merge
/// by pure summation, so the final statistics are independent of partition
/// count and accumulation order — the PDES ≡ serial property extends to
/// RunResult::message_latency_us.
struct LatencyMoments {
  std::uint64_t count = 0;
  std::uint64_t sum_ns = 0;
  U128 sumsq_ns = 0;
  SimTime min_ns = kNever;
  SimTime max_ns = 0;

  void add(SimTime ns) noexcept {
    ++count;
    sum_ns += static_cast<std::uint64_t>(ns);
    sumsq_ns += static_cast<U128>(ns) * static_cast<U128>(ns);
    min_ns = std::min(min_ns, ns);
    max_ns = std::max(max_ns, ns);
  }
  void merge(const LatencyMoments& other) noexcept {
    count += other.count;
    sum_ns += other.sum_ns;
    sumsq_ns += other.sumsq_ns;
    min_ns = std::min(min_ns, other.min_ns);
    max_ns = std::max(max_ns, other.max_ns);
  }
  /// Convert to the reporting accumulator (microseconds). One fixed
  /// expression over the merged integer moments: deterministic for any
  /// partition count.
  [[nodiscard]] util::Accumulator to_accumulator_us() const {
    if (count == 0) return {};
    const double n = static_cast<double>(count);
    const double sum_us = static_cast<double>(sum_ns) / 1000.0;
    const double sumsq_us = static_cast<double>(sumsq_ns) / 1.0e6;
    double m2 = sumsq_us - (sum_us / n) * sum_us;
    if (m2 < 0.0) m2 = 0.0;  // fp cancellation guard
    return util::Accumulator::from_moments(
        count, sum_us, sum_us / n, m2, static_cast<double>(min_ns) / 1000.0,
        static_cast<double>(max_ns) / 1000.0);
  }
};

/// One link-sample boundary's contribution from one partition; index-aligned
/// across partitions (every LP fires the identical boundary list) and merged
/// into the global time series by the coordinator.
struct SamplePartial {
  SimTime at = 0;
  double util_sum = 0.0;
  double util_max = 0.0;
  std::uint32_t links_active = 0;
  std::uint64_t depth_total = 0;
  std::uint32_t depth_max = 0;
};

/// Per-partition logical process: private event queue, the state of every
/// owned port and source host, outbox channels toward the other partitions.
/// State vectors are fabric-sized for O(1) indexing; an LP only ever touches
/// entries it owns.
struct Lp {
  std::uint32_t self = 0;

  EvQueue heap;
  std::vector<ChannelEv> inbox;
  std::vector<std::vector<ChannelEv>> outbox;  ///< by destination partition

  std::vector<bool> busy;                ///< per source port
  std::vector<std::uint32_t> credits;    ///< per source port
  std::vector<std::uint32_t> rr;         ///< per switch output port
  /// Per switch output port, req_words_ words: bit i marks input port i of
  /// the switch whose head may leave through this port.
  std::vector<std::uint64_t> requests;
  std::vector<route::PortRange> head_outs;  ///< per input port: marked outs
  std::vector<double> rate;              ///< per source port (bytes/s)
  std::vector<SimTime> busy_ns;          ///< per source port: tx time carried
  std::vector<std::uint32_t> max_depth;  ///< per input port: queue watermark
  std::vector<std::deque<Packet>> queues;  ///< per switch input port
  std::vector<PortId> owned_ports;         ///< ascending, sampling scan order

  std::vector<HostCursor> cursors;  ///< by host; only owned hosts populated
  std::vector<MsgMeta> msgs;        ///< by global msg id; only owned valid

  std::vector<std::uint8_t> dead;    ///< per directed link (source port)
  std::vector<SimTime> revives_at;   ///< per port: scheduled revival
  std::vector<Pending> pending;      ///< per injected packet (owned hosts)
  std::vector<std::deque<std::uint32_t>> retx_q;  ///< per host: pending slots

  obs::TraceRecorder* trace = nullptr;  ///< user trace (serial) or own shard

  // Tallies (merged by the coordinator in partition order).
  std::uint64_t events = 0;  ///< dispatched events (stage barriers excluded)
  std::uint64_t channel_events = 0;
  std::uint64_t credit_stalls = 0;
  std::uint64_t packets_dropped = 0;
  std::uint64_t packets_retransmitted = 0;
  std::uint64_t duplicate_packets = 0;
  std::uint64_t messages_failed = 0;
  std::uint64_t bytes_failed = 0;
  std::uint64_t link_down_events = 0;
  std::uint64_t out_of_order = 0;
  std::uint64_t bytes_delivered = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t finished_msgs = 0;  ///< delivered + failed (barrier counting)
  SimTime last_delivery = 0;
  SimTime last_finish_at = 0;
  LatencyMoments latency;
  obs::Histogram latency_hist{0.0, 10'000.0, 100};
  std::vector<std::uint64_t> vl_busy_ns;  ///< per destination lane

  // Link sampling.
  SimTime next_sample = 0;
  SimTime last_sample_at = 0;
  std::vector<SimTime> sampled_busy;  ///< busy_ns at the previous sample
  std::vector<SamplePartial> partials;
};

class Core {
 public:
  Core(const EngineConfig& cfg, const PartitionMap& map,
       const std::vector<StageTraffic>& stages, Progression progression)
      : cfg_(cfg),
        fabric_(*cfg.fabric),
        tables_(*cfg.tables),
        map_(map),
        stages_(stages),
        progression_(progression),
        num_parts_(map.num_partitions),
        lookahead_(cfg.calib.cable_latency_ns),
        rows_(tables_.rows()) {
    resilient_ = cfg_.resilience_forced ||
                 (cfg_.faults != nullptr && !cfg_.faults->pristine());
    if (resilient_) {
      expects(cfg_.resilience.timeout_ns > 0 &&
                  cfg_.resilience.max_attempts > 0,
              "resilience policy must allow at least one timed attempt");
    }
    if (cfg_.faults != nullptr) {
      expects(&cfg_.faults->fabric() == &fabric_,
              "fault state resolved against a different fabric");
    }
    sampling_ = cfg_.obs.sampling();
    std::uint32_t radix = 1;
    for (const topo::NodeId sw : fabric_.switch_ids()) {
      const topo::Node& n = fabric_.node(sw);
      radix = std::max(radix, n.num_down_ports + n.num_up_ports);
    }
    req_words_ = (radix + 63) / 64;
    if (num_parts_ > 1) {
      expects(lookahead_ >= 1,
              "partitioned simulation requires cable_latency_ns >= 1 (the "
              "conservative lookahead)");
      // Each shard can hold the caller's whole capacity: the merge keeps
      // the caller's keep-first-N policy exact (an event among the first N
      // of the run is among the first N of its own shard).
      if (cfg_.obs.trace != nullptr)
        shards_ = std::make_unique<obs::ShardedTraceRecorder>(
            num_parts_, cfg_.obs.trace->capacity());
    }
    init_lps();
  }

  RunResult run(std::uint64_t event_limit, PdesStats& stats) {
    FTCF_PROF_SCOPE("packet_sim_run");
    load_initial_traffic();
    for (auto& lp : lps_) schedule_flaps(*lp);
    for (auto& lp : lps_) kick_hosts(*lp, 0);
    if (num_parts_ == 1) {
      drive_serial(event_limit);
    } else {
      drive_windows(event_limit);
    }
    finalize_sampling();
    expects(finished_total() == loaded_total_ &&
                next_stage_ >= stages_.size(),
            "simulation drained with undelivered traffic");
    return assemble(stats);
  }

 private:
  // --- setup ----------------------------------------------------------------

  void init_lps() {
    const std::uint32_t ports = fabric_.num_ports();
    lps_.reserve(num_parts_);
    for (std::uint32_t p = 0; p < num_parts_; ++p) {
      auto lp = std::make_unique<Lp>();
      lp->self = p;
      lp->outbox.resize(num_parts_);
      lp->busy.assign(ports, false);
      lp->credits.assign(ports, 0);
      lp->rr.assign(ports, 0);
      lp->requests.assign(std::size_t{ports} * req_words_, 0);
      lp->head_outs.assign(ports, {});
      lp->busy_ns.assign(ports, 0);
      lp->max_depth.assign(ports, 0);
      lp->queues.resize(ports);
      lp->rate.reserve(ports);
      for (PortId pid = 0; pid < ports; ++pid) {
        // A link into a switch lands in a finite input buffer; the host
        // sink never blocks. Host-attached links run at the PCIe rate.
        const topo::Port& pt = fabric_.port(pid);
        const NodeKind from = fabric_.node(pt.node).kind;
        const NodeKind to = fabric_.node(fabric_.port(pt.peer).node).kind;
        lp->credits[pid] = to == NodeKind::kSwitch
                               ? cfg_.calib.input_buffer_packets
                               : std::numeric_limits<std::uint32_t>::max() / 2;
        lp->rate.push_back(from == NodeKind::kHost || to == NodeKind::kHost
                               ? cfg_.calib.host_bw_bytes_per_sec
                               : cfg_.calib.link_bw_bytes_per_sec);
      }
      lp->cursors.resize(fabric_.num_hosts());
      lp->retx_q.resize(fabric_.num_hosts());
      lp->dead.assign(ports, 0);
      lp->revives_at.assign(ports, kNever);
      if (cfg_.faults != nullptr) {
        for (PortId pid = 0; pid < ports; ++pid) {
          if (!cfg_.faults->link_up(pid)) lp->dead[pid] = 1;
          lp->rate[pid] *= cfg_.faults->rate_factor(pid);
        }
      }
      for (const topo::NodeId node : map_.nodes_of[p]) {
        const topo::Node& n = fabric_.node(node);
        const std::uint32_t nports = n.num_down_ports + n.num_up_ports;
        for (std::uint32_t i = 0; i < nports; ++i)
          lp->owned_ports.push_back(fabric_.port_id(node, i));
      }
      std::sort(lp->owned_ports.begin(), lp->owned_ports.end());
      if (sampling_) {
        lp->next_sample = cfg_.obs.sample_period_ns;
        lp->sampled_busy.assign(ports, 0);
      }
      lp->trace = cfg_.obs.trace != nullptr
                      ? (num_parts_ > 1 ? &shards_->shard(p) : cfg_.obs.trace)
                      : nullptr;
      lps_.push_back(std::move(lp));
    }
    if (sampling_) coord_next_sample_ = cfg_.obs.sample_period_ns;
  }

  /// Assemble one tagged trace event (brace-init would mis-map the vl/stage
  /// fields at the many call sites, so build it explicitly).
  static void trace_event(obs::TraceRecorder* sink, SimTime at, SimTime dur,
                          obs::EventKind kind, std::uint32_t a,
                          std::uint32_t b, std::uint32_t c,
                          std::uint16_t stage = obs::kNoStage,
                          std::uint8_t vl = 0) {
    obs::TraceEvent ev;
    ev.at = at;
    ev.dur = dur;
    ev.kind = kind;
    ev.vl = vl;
    ev.stage = stage;
    ev.a = a;
    ev.b = b;
    ev.c = c;
    sink->record(ev);
  }

  /// The coordinator's trace sink: the user's recorder when serial, shard 0
  /// of the merge when partitioned (stage markers carry no port identity).
  [[nodiscard]] obs::TraceRecorder* coord_trace() const {
    return lps_[0]->trace;
  }

  // --- traffic loading (coordinator only, between windows) ------------------

  /// Distribute per-host cursors to their owning partitions and append the
  /// message metadata block. Msg ids are global and assigned host-major in
  /// ascending host order — identical for every partition count.
  void distribute_cursors(std::vector<HostCursor> cursors) {
    std::uint64_t active = 0;
    auto next_id = static_cast<std::uint32_t>(msgs_total_);
    std::vector<std::pair<std::uint64_t, HostCursor>> placed;
    placed.reserve(cursors.size());
    for (std::uint64_t h = 0; h < cursors.size(); ++h) {
      HostCursor& cur = cursors[h];
      cur.index = 0;
      cur.offset = 0;
      cur.first_msg_id = next_id;
      for (const Message& msg : cur.msgs) {
        expects(msg.dst < fabric_.num_hosts() && msg.dst != h,
                "message destination invalid");
      }
      next_id += static_cast<std::uint32_t>(cur.msgs.size());
      if (!cur.msgs.empty()) ++active;
      placed.emplace_back(h, std::move(cur));
    }
    msgs_total_ = next_id;
    active_hosts_ = std::max(active_hosts_, active);
    for (auto& lp : lps_) lp->msgs.resize(msgs_total_);
    for (auto& [h, cur] : placed) {
      Lp& lp = *lps_[map_.owner_host(h)];
      for (std::size_t i = 0; i < cur.msgs.size(); ++i) {
        const Message& msg = cur.msgs[i];
        MsgMeta meta{msg.bytes, -1, static_cast<std::uint32_t>(h)};
        if (i < cur.stage_of.size()) meta.stage = cur.stage_of[i];
        lp.msgs[cur.first_msg_id + i] = meta;
        ++loaded_total_;
      }
      lp.cursors[h] = std::move(cur);
    }
  }

  void load_initial_traffic() {
    if (progression_ == Progression::kAsync) {
      // Concatenate every stage into one per-host sequence. Stage identity
      // is lost (hosts free-run), so the trace gets begin markers only.
      std::vector<HostCursor> cursors(fabric_.num_hosts());
      for (std::size_t s = 0; s < stages_.size(); ++s) {
        const StageTraffic& st = stages_[s];
        expects(st.sends.size() == fabric_.num_hosts(),
                "stage traffic must cover every host");
        for (std::uint64_t h = 0; h < st.sends.size(); ++h) {
          cursors[h].msgs.insert(cursors[h].msgs.end(), st.sends[h].begin(),
                                 st.sends[h].end());
          cursors[h].stage_of.insert(cursors[h].stage_of.end(),
                                     st.sends[h].size(), stage_tag(s));
        }
        if (cfg_.obs.trace != nullptr)
          trace_event(coord_trace(), 0, 0, obs::EventKind::kStageBegin,
                      static_cast<std::uint32_t>(s), 0, 0, stage_tag(s));
      }
      distribute_cursors(std::move(cursors));
      next_stage_ = stages_.size();
    } else {
      load_next_sync_stage(0);
    }
  }

  /// Load the next non-empty synchronized stage; begin_at tags the trace
  /// marker with the time hosts will actually enter it.
  bool load_next_sync_stage(SimTime begin_at) {
    while (next_stage_ < stages_.size()) {
      const std::size_t stage = next_stage_;
      const StageTraffic& st = stages_[next_stage_++];
      expects(st.sends.size() == fabric_.num_hosts(),
              "stage traffic must cover every host");
      const std::uint64_t before = loaded_total_;
      std::vector<HostCursor> cursors(fabric_.num_hosts());
      for (std::uint64_t h = 0; h < st.sends.size(); ++h) {
        cursors[h].msgs = st.sends[h];
        cursors[h].stage_of.assign(st.sends[h].size(), stage_tag(stage));
      }
      distribute_cursors(std::move(cursors));
      if (loaded_total_ > before) {  // non-empty stage loaded
        if (cfg_.obs.trace != nullptr) {
          current_stage_ = static_cast<std::uint32_t>(stage);
          stage_active_ = true;
          trace_event(coord_trace(), begin_at, 0, obs::EventKind::kStageBegin,
                      current_stage_, 0, 0, stage_tag(stage));
        }
        return true;
      }
    }
    return false;
  }

  /// Translate the fault state's flap and repair schedules into per-endpoint
  /// kLinkDown/kLinkUp events on the owning partitions; remember each owned
  /// port's revival time (consulted while dead to decide wait-vs-drop). The
  /// primary endpoint (aux = 1) counts the flap once.
  void schedule_flaps(Lp& lp) {
    if (cfg_.faults == nullptr) return;
    const auto schedule_end = [&](PortId end, SimTime down_at, SimTime up_at,
                                  bool primary) {
      if (map_.owner_port(fabric_, end) != lp.self) return;
      lp.revives_at[end] = up_at;
      if (down_at >= 0) {
        Ev ev{EvType::kLinkDown, end, {}, primary ? 1 : 0};
        lp.heap.push(down_at, ev);
      }
      if (up_at != kNever) {
        Ev ev{EvType::kLinkUp, end, {}, primary ? 1 : 0};
        lp.heap.push(up_at, ev);
      }
    };
    for (const fault::FlapEvent& f : cfg_.faults->flaps()) {
      schedule_end(f.port, f.down_at, f.up_at, true);
      schedule_end(fabric_.port(f.port).peer, f.down_at, f.up_at, false);
    }
    // A repaired cable is dead from t=0 (the static resolution already
    // marked it) and revives at up_at — a flap whose down event has already
    // happened. Setting revives_at before the first host kick makes senders
    // park on the dead cable instead of writing it off.
    for (const fault::RepairEvent& r : cfg_.faults->repairs()) {
      schedule_end(r.port, -1, r.up_at, true);
      schedule_end(fabric_.port(r.port).peer, -1, r.up_at, false);
    }
  }

  // --- event routing --------------------------------------------------------

  /// Partition that must process `ev`. Timeouts and stage barriers never
  /// travel (they are scheduled by their owner); everything else derives
  /// its owner from the port or host it targets.
  [[nodiscard]] std::uint32_t dest_partition(const Ev& ev) const {
    switch (ev.type) {
      case EvType::kArrive:
      case EvType::kOutFree:
      case EvType::kCredit:
        return map_.owner_port(fabric_, ev.port);
      case EvType::kHostKick:
        return map_.owner_host(ev.port);
      case EvType::kDeliverAcct:
        return map_.owner_host(ev.pkt.src);
      case EvType::kTimeout:
      case EvType::kLinkDown:
      case EvType::kLinkUp:
      case EvType::kStageAdvance:
        break;  // scheduled directly onto their owner, never via send()
    }
    expects(false, "event type is not routable");
    return 0;
  }

  /// Schedule `ev` at `at`: locally when this LP owns the handler, else
  /// through the outbox channel toward the owning partition (exchanged at
  /// the next window barrier — always >= one cable delay in the future).
  void send(Lp& lp, SimTime at, const Ev& ev) {
    if (num_parts_ == 1) {
      lp.heap.push(at, ev);
      return;
    }
    const std::uint32_t dst = dest_partition(ev);
    if (dst == lp.self) {
      lp.heap.push(at, ev);
    } else {
      lp.outbox[dst].push_back(ChannelEv{at, ev});
      ++lp.channel_events;
    }
  }

  // --- event dispatch -------------------------------------------------------

  /// Start (or resume) the LP's own hosts, applying per-host stage jitter
  /// when configured (§VII: OS jitter delays entry into each collective
  /// stage). Hosts are independent at kick time, so per-partition kicking
  /// in ascending host order matches a serial run.
  void kick_hosts(Lp& lp, SimTime at) {
    for (const std::uint64_t h : map_.hosts_of[lp.self]) {
      if (cfg_.jitter_max_ns <= 0) {
        host_try_send(lp, h);
        continue;
      }
      util::SplitMix64 mix(cfg_.jitter_seed ^ (next_stage_ * 0x9e37ULL) ^ h);
      const auto delay = static_cast<SimTime>(
          mix.next() % static_cast<std::uint64_t>(cfg_.jitter_max_ns + 1));
      Ev ev{EvType::kHostKick, static_cast<PortId>(h), {}, 0};
      lp.heap.push(at + delay, ev);
    }
  }

  void dispatch(Lp& lp, const Ev& ev) {
    if (ev.type != EvType::kStageAdvance) ++lp.events;
    switch (ev.type) {
      case EvType::kArrive: on_arrive(lp, ev.port, ev.pkt); break;
      case EvType::kOutFree: on_out_free(lp, ev.port); break;
      case EvType::kCredit: on_credit(lp, ev.port); break;
      case EvType::kHostKick: host_try_send(lp, ev.port); break;
      case EvType::kDeliverAcct: on_deliver_acct(lp, ev); break;
      case EvType::kTimeout: on_timeout(lp, ev.port); break;
      case EvType::kLinkDown: on_link_down(lp, ev.port, ev.aux != 0); break;
      case EvType::kLinkUp: on_link_up(lp, ev.port); break;
      case EvType::kStageAdvance: kick_hosts(lp, lp.heap.now()); break;
    }
  }

  void on_arrive(Lp& lp, PortId in_port, const Packet& pkt) {
    const topo::Port& pt = fabric_.port(in_port);
    const topo::Node& node = fabric_.node(pt.node);
    if (node.kind == NodeKind::kHost) {
      deliver(lp, pt.node, pkt);
      return;
    }
    auto& queue = lp.queues[in_port];
    queue.push_back(pkt);
    const auto depth = static_cast<std::uint32_t>(queue.size());
    if (depth > lp.max_depth[in_port]) {
      lp.max_depth[in_port] = depth;
      if (lp.trace != nullptr)
        trace_event(lp.trace, lp.heap.now(), 0, obs::EventKind::kQueueDepth,
                    in_port, depth, 0, pkt.stage, cfg_.obs.vl_of(pkt.dst));
    }
    if (queue.size() == 1) kick_head(lp, pt.node, in_port);
  }

  /// Arbitration entry for the head of one input queue: record the outputs
  /// the head may leave through in their request masks, then try each. Every
  /// packet passes through here exactly when it becomes a head, so this is
  /// also where resilient runs drop packets that can never leave — no legal
  /// out-port, or every legal out-port dead with no scheduled revival —
  /// instead of wedging the queue behind them. Heads parked on a
  /// dead-but-revivable port stay marked and wait; the kLinkUp event
  /// re-arbitrates. Deterministic heads follow the LFT entry; adaptive heads
  /// take any port of route::adaptive_candidates, the same relation the
  /// adaptive CDG prover checks.
  void kick_head(Lp& lp, topo::NodeId sw, PortId in_port) {
    const topo::Node& node = fabric_.node(sw);
    auto& queue = lp.queues[in_port];
    while (!queue.empty()) {
      const std::uint32_t dst = queue.front().dst;
      const std::uint32_t entry = rows_[sw][dst];
      if (cfg_.up_selection == UpSelection::kDeterministic) {
        if (entry == route::kUnroutedPort) {
          expects(resilient_, "LFT entry was never programmed");
          drop_head(lp, node, in_port, in_port);
          continue;
        }
        const PortId out = node.first_port + entry;
        if (resilient_ && lp.dead[out] != 0 && lp.revives_at[out] == kNever) {
          drop_head(lp, node, in_port, out);
          continue;
        }
        mark_requests(lp, node, in_port, {entry, 1});
        try_forward(lp, out);  // a dead output grants nothing: parked
        return;
      }
      const route::PortRange cand =
          route::adaptive_candidates(fabric_, sw, dst, entry);
      if (resilient_) {
        bool any_alive = false;
        bool revivable = false;
        for (std::uint32_t i = cand.first; i < cand.first + cand.count; ++i) {
          const PortId out = node.first_port + i;
          if (lp.dead[out] == 0) {
            any_alive = true;
          } else if (lp.revives_at[out] != kNever) {
            revivable = true;
          }
        }
        if (!any_alive && !revivable) {
          // A lone candidate is the culprit; a dead fan-out has none.
          drop_head(lp, node, in_port,
                    cand.count == 1 ? node.first_port + cand.first : in_port);
          continue;
        }
      }
      mark_requests(lp, node, in_port, cand);
      for (std::uint32_t i = cand.first; i < cand.first + cand.count; ++i) {
        const PortId out = node.first_port + i;
        if (!(resilient_ && lp.dead[out] != 0)) try_forward(lp, out);
      }
      return;
    }
  }

  /// Mark the head of `in_port` (a port of `node`) as a requester of every
  /// output in `outs`, and remember the range for clear_requests.
  void mark_requests(Lp& lp, const topo::Node& node, PortId in_port,
                     route::PortRange outs) {
    lp.head_outs[in_port] = outs;
    const std::uint32_t i = in_port - node.first_port;
    const std::uint64_t bit = std::uint64_t{1} << (i % 64);
    for (std::uint32_t o = outs.first; o < outs.first + outs.count; ++o)
      lp.requests[std::size_t{node.first_port + o} * req_words_ + i / 64] |=
          bit;
  }

  /// The head of `in_port` left its queue: withdraw its requests.
  void clear_requests(Lp& lp, const topo::Node& node, PortId in_port) {
    const route::PortRange outs = lp.head_outs[in_port];
    const std::uint32_t i = in_port - node.first_port;
    const std::uint64_t bit = std::uint64_t{1} << (i % 64);
    for (std::uint32_t o = outs.first; o < outs.first + outs.count; ++o)
      lp.requests[std::size_t{node.first_port + o} * req_words_ + i / 64] &=
          ~bit;
    lp.head_outs[in_port] = {};
  }

  /// Drop the head of `in_port`'s queue: free the buffer slot (credit goes
  /// back to the upstream sender) and let the retransmit timer — not the
  /// drop — decide the packet's fate.
  void drop_head(Lp& lp, const topo::Node& node, PortId in_port,
                 PortId blame_port) {
    auto& queue = lp.queues[in_port];
    const Packet pkt = queue.front();
    queue.pop_front();
    clear_requests(lp, node, in_port);
    ++lp.packets_dropped;
    if (lp.trace != nullptr)
      trace_event(lp.trace, lp.heap.now(), 0, obs::EventKind::kPacketDropped,
                  blame_port, pkt.msg, pkt.seq, pkt.stage,
                  cfg_.obs.vl_of(pkt.dst));
    Ev credit{EvType::kCredit, fabric_.port(in_port).peer, {}, 0};
    send(lp, lp.heap.now() + cfg_.calib.cable_latency_ns, credit);
  }

  void on_out_free(Lp& lp, PortId out_port) {
    lp.busy[out_port] = false;
    const topo::Port& pt = fabric_.port(out_port);
    if (fabric_.node(pt.node).kind == NodeKind::kHost) {
      host_try_send(lp, fabric_.host_index(pt.node));
    } else {
      try_forward(lp, out_port);
    }
  }

  void on_credit(Lp& lp, PortId out_port) {
    ++lp.credits[out_port];
    const topo::Port& pt = fabric_.port(out_port);
    if (fabric_.node(pt.node).kind == NodeKind::kHost) {
      host_try_send(lp, fabric_.host_index(pt.node));
    } else {
      try_forward(lp, out_port);
    }
  }

  /// One endpoint of a scripted cable died: this direction stops granting.
  /// Transfers already on the wire still arrive (they left before the cut);
  /// heads parked on the dead port are re-arbitrated so permanent cuts drop
  /// them (freeing their buffer slots) instead of leaking credits forever.
  /// The peer endpoint processes its own kLinkDown at the same instant —
  /// link events rank before packet motion at equal timestamps.
  void on_link_down(Lp& lp, PortId end, bool primary) {
    if (primary) ++lp.link_down_events;
    lp.dead[end] = 1;
    if (lp.trace != nullptr)
      trace_event(lp.trace, lp.heap.now(), 0, obs::EventKind::kLinkDown, end,
                  0, 0);
    const topo::Port& pt = fabric_.port(end);
    const topo::Node& node = fabric_.node(pt.node);
    if (node.kind == NodeKind::kHost) {
      // A host cut off with no scheduled revival can never finish its
      // sends: write the rest of its workload off now.
      if (lp.revives_at[end] == kNever) fail_host(lp, fabric_.host_index(pt.node));
      return;
    }
    const std::uint32_t nports = node.num_down_ports + node.num_up_ports;
    for (PortId in_port = node.first_port; in_port < node.first_port + nports;
         ++in_port) {
      if (!lp.queues[in_port].empty()) kick_head(lp, pt.node, in_port);
    }
  }

  /// One endpoint of a scripted cable revived: resume flow in this
  /// direction.
  void on_link_up(Lp& lp, PortId end) {
    lp.dead[end] = 0;
    if (lp.trace != nullptr)
      trace_event(lp.trace, lp.heap.now(), 0, obs::EventKind::kLinkUp, end, 0,
                  0);
    const topo::Port& pt = fabric_.port(end);
    if (fabric_.node(pt.node).kind == NodeKind::kHost) {
      host_try_send(lp, fabric_.host_index(pt.node));
    } else {
      try_forward(lp, end);  // parked heads may now leave through this port
    }
  }

  /// A packet's retransmit timer fired. Unresolved with tries left: queue a
  /// copy at the source (retransmissions preempt new traffic there).
  /// Unresolved with tries exhausted: write the packet's bytes off so its
  /// message still completes — as failed — and the run terminates.
  void on_timeout(Lp& lp, std::uint32_t pend_idx) {
    Pending& p = lp.pending[pend_idx];
    if (p.resolved) return;
    if (p.attempts >= cfg_.resilience.max_attempts) {
      p.resolved = true;
      account_failed(lp, p.pkt.msg, p.pkt.bytes);
      return;
    }
    ++p.attempts;
    lp.retx_q[p.pkt.src].push_back(pend_idx);
    host_try_send(lp, p.pkt.src);
  }

  // --- forwarding -----------------------------------------------------------

  /// Grant `out_port` (a switch output) to one requesting input head, if
  /// the port is idle, alive and has a credit. The winner is the first
  /// requester at or after the port's round-robin cursor in cyclic input
  /// order.
  void try_forward(Lp& lp, PortId out_port) {
    if (lp.busy[out_port]) return;
    if (resilient_ && lp.dead[out_port] != 0) return;
    if (lp.credits[out_port] == 0) {
      ++lp.credit_stalls;
      if (lp.trace != nullptr)
        trace_event(lp.trace, lp.heap.now(), 0, obs::EventKind::kCreditStall,
                    out_port, 0, 0);
      return;
    }
    const topo::Port& out = fabric_.port(out_port);
    const topo::Node& node = fabric_.node(out.node);
    const std::uint32_t nports = node.num_down_ports + node.num_up_ports;
    const std::uint32_t i =
        first_requester(lp, out_port, lp.rr[out_port] % nports);
    if (i == kNoRequester) return;

    const PortId in_port = node.first_port + i;
    auto& queue = lp.queues[in_port];
    const Packet pkt = queue.front();
    queue.pop_front();
    clear_requests(lp, node, in_port);
    lp.rr[out_port] = i + 1;
    --lp.credits[out_port];
    lp.busy[out_port] = true;

    const SimTime ser = transfer_time(pkt.bytes, lp.rate[out_port]);
    lp.busy_ns[out_port] += ser;
    account_vl_busy(lp, pkt.dst, ser);
    if (lp.trace != nullptr)
      trace_event(lp.trace, lp.heap.now(), ser,
                  obs::EventKind::kPacketForwarded, out_port, pkt.msg, pkt.seq,
                  pkt.stage, cfg_.obs.vl_of(pkt.dst));
    Ev free_ev{EvType::kOutFree, out_port, {}, 0};
    lp.heap.push(lp.heap.now() + ser, free_ev);
    // Return a buffer credit to the upstream sender of the input link.
    Ev credit{EvType::kCredit, fabric_.port(in_port).peer, {}, 0};
    send(lp, lp.heap.now() + cfg_.calib.cable_latency_ns, credit);
    Ev arrive{EvType::kArrive, out.peer, pkt, 0};
    send(lp,
         lp.heap.now() + cfg_.calib.switch_latency_ns + ser +
             cfg_.calib.cable_latency_ns,
         arrive);

    // The new head of this input queue may target a different, idle output.
    // One packet per grant; the OutFree event re-arbitrates.
    if (!queue.empty()) kick_head(lp, out.node, in_port);
  }

  static constexpr std::uint32_t kNoRequester = ~std::uint32_t{0};

  /// Index of the first input requesting `out_port` at or after `start` in
  /// cyclic order, or kNoRequester.
  [[nodiscard]] std::uint32_t first_requester(const Lp& lp, PortId out_port,
                                              std::uint32_t start) const {
    const std::uint64_t* words =
        lp.requests.data() + std::size_t{out_port} * req_words_;
    const std::uint32_t w0 = start / 64;
    std::uint64_t bits = words[w0] & (~std::uint64_t{0} << (start % 64));
    for (std::uint32_t w = w0;;) {
      if (bits != 0)
        return w * 64 + static_cast<std::uint32_t>(std::countr_zero(bits));
      if (++w == req_words_) break;
      bits = words[w];
    }
    // Nothing at or after `start`: wrap to the lowest requester below it.
    for (std::uint32_t w = 0; w <= w0; ++w) {
      if (words[w] != 0)
        return w * 64 + static_cast<std::uint32_t>(std::countr_zero(words[w]));
    }
    return kNoRequester;
  }

  // --- hosts ----------------------------------------------------------------

  void host_try_send(Lp& lp, std::uint64_t h) {
    HostCursor& cur = lp.cursors[h];
    auto& retxq = lp.retx_q[h];
    if (cur.done() && retxq.empty()) return;
    const topo::NodeId node_id = fabric_.host_node(h);
    const topo::Node& node = fabric_.node(node_id);
    expects(node.num_up_ports == 1, "packet sim requires single-cable hosts");
    const PortId up = node.first_port + node.num_down_ports;
    if (resilient_ && lp.dead[up] != 0) {
      // Cut off for good: write the rest of the workload off. A revivable
      // host just parks; the kLinkUp event re-kicks it.
      if (lp.revives_at[up] == kNever) fail_host(lp, h);
      return;
    }
    if (lp.busy[up]) return;
    if (lp.credits[up] == 0) {
      ++lp.credit_stalls;
      if (lp.trace != nullptr)
        trace_event(lp.trace, lp.heap.now(), 0, obs::EventKind::kCreditStall,
                    up, 0, 0);
      return;
    }

    // Retransmissions go out ahead of new traffic. Copies whose original
    // has since been delivered are discarded unsent.
    while (!retxq.empty()) {
      const std::uint32_t pend = retxq.front();
      retxq.pop_front();
      Pending& p = lp.pending[pend];
      if (p.resolved) continue;
      ++lp.packets_retransmitted;
      if (lp.trace != nullptr)
        trace_event(lp.trace, lp.heap.now(), 0,
                    obs::EventKind::kPacketRetransmit,
                    static_cast<std::uint32_t>(h), p.pkt.msg, p.pkt.seq,
                    p.pkt.stage, cfg_.obs.vl_of(p.pkt.dst));
      send_packet(lp, up, p.pkt, p.attempts);
      return;
    }
    if (cur.done()) return;

    const Message& msg = cur.msgs[cur.index];
    const std::uint32_t msg_id =
        cur.first_msg_id + static_cast<std::uint32_t>(cur.index);
    MsgMeta& meta = lp.msgs[msg_id];
    if (meta.start < 0) meta.start = lp.heap.now();

    const std::uint64_t left = msg.bytes - cur.offset;
    const auto chunk = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(left, cfg_.calib.mtu_bytes));
    const auto seq =
        static_cast<std::uint32_t>(cur.offset / cfg_.calib.mtu_bytes);
    cur.offset += chunk;
    if (cur.offset == msg.bytes) {
      // "Sent to the wire": the host moves on to its next message.
      ++cur.index;
      cur.offset = 0;
    }

    Packet pkt;
    pkt.dst = static_cast<std::uint32_t>(msg.dst);
    pkt.bytes = chunk;
    pkt.msg = msg_id;
    pkt.seq = seq;
    pkt.src = static_cast<std::uint32_t>(h);
    pkt.stage = meta.stage;
    if (resilient_) {
      pkt.pend = static_cast<std::uint32_t>(lp.pending.size());
      lp.pending.push_back(Pending{pkt, 1, false});
    }
    if (lp.trace != nullptr)
      trace_event(lp.trace, lp.heap.now(), 0, obs::EventKind::kPacketInjected,
                  static_cast<std::uint32_t>(h), msg_id, seq, meta.stage,
                  cfg_.obs.vl_of(pkt.dst));
    send_packet(lp, up, pkt, 1);
  }

  /// Put one packet on the host's up-link (shared by fresh sends and
  /// retransmits). In resilient mode this also arms the packet's timeout,
  /// backed off exponentially in the attempt count and clamped to
  /// kRetxBackoffCeilingNs (the naive shift overflows for large timeouts).
  void send_packet(Lp& lp, PortId up, const Packet& pkt,
                   std::uint32_t attempt) {
    lp.busy[up] = true;
    --lp.credits[up];
    const SimTime ser = transfer_time(pkt.bytes, lp.rate[up]);
    lp.busy_ns[up] += ser;
    account_vl_busy(lp, pkt.dst, ser);
    if (lp.trace != nullptr)
      trace_event(lp.trace, lp.heap.now(), ser,
                  obs::EventKind::kPacketForwarded, up, pkt.msg, pkt.seq,
                  pkt.stage, cfg_.obs.vl_of(pkt.dst));
    Ev free_ev{EvType::kOutFree, up, {}, 0};
    lp.heap.push(lp.heap.now() + ser, free_ev);
    Ev arrive{EvType::kArrive, fabric_.port(up).peer, pkt, 0};
    send(lp, lp.heap.now() + ser + cfg_.calib.cable_latency_ns, arrive);
    if (resilient_ && pkt.pend != kNoPend) {
      const SimTime wait = retx_backoff_ns(cfg_.resilience.timeout_ns, attempt);
      Ev timeout{EvType::kTimeout, pkt.pend, {}, 0};
      lp.heap.push(lp.heap.now() + ser + wait, timeout);
    }
  }

  /// Write off everything a permanently cut-off host still had to send:
  /// queued retransmissions and every uninjected byte of its cursor.
  void fail_host(Lp& lp, std::uint64_t h) {
    auto& retxq = lp.retx_q[h];
    while (!retxq.empty()) {
      const std::uint32_t pend = retxq.front();
      retxq.pop_front();
      Pending& p = lp.pending[pend];
      if (p.resolved) continue;
      p.resolved = true;
      account_failed(lp, p.pkt.msg, p.pkt.bytes);
    }
    // Snapshot then reset the cursor *before* accounting: finishing the
    // last outstanding message can advance the stage and replace cursors.
    std::vector<std::pair<std::uint32_t, std::uint64_t>> writeoffs;
    {
      HostCursor& cur = lp.cursors[h];
      for (; cur.index < cur.msgs.size(); ++cur.index) {
        writeoffs.emplace_back(
            cur.first_msg_id + static_cast<std::uint32_t>(cur.index),
            cur.msgs[cur.index].bytes - cur.offset);
        cur.offset = 0;
      }
    }
    for (const auto& [msg_id, bytes] : writeoffs)
      account_failed(lp, msg_id, bytes);
  }

  /// Mark `bytes` of message `msg_id` undeliverable; completes the message
  /// (as failed) once every byte is accounted for.
  void account_failed(Lp& lp, std::uint32_t msg_id, std::uint64_t bytes) {
    if (bytes == 0) return;
    MsgMeta& meta = lp.msgs[msg_id];
    if (meta.start < 0) meta.start = lp.heap.now();
    meta.failed = true;
    lp.bytes_failed += bytes;
    expects(meta.remaining >= bytes, "failure accounting underflow");
    meta.remaining -= bytes;
    if (meta.remaining == 0) finish_message(lp, msg_id);
  }

  /// Every byte of the message is accounted for (delivered or written off).
  void finish_message(Lp& lp, std::uint32_t msg_id) {
    const MsgMeta& meta = lp.msgs[msg_id];
    if (meta.failed) {
      ++lp.messages_failed;
    } else {
      ++lp.messages_delivered;
      const SimTime lat_ns = lp.heap.now() - meta.start;
      lp.latency.add(lat_ns);
      if (cfg_.obs.metrics != nullptr) lp.latency_hist.add(to_us(lat_ns));
    }
    lp.last_finish_at = std::max(lp.last_finish_at, lp.heap.now());
    ++lp.finished_msgs;
    // The serial drive advances stages reentrantly at the zeroing finish;
    // windowed drives detect the zero at the next barrier instead.
    if (num_parts_ == 1 && progression_ == Progression::kSynchronized)
      maybe_advance_stage(lp.heap.now());
  }

  /// A packet reached its destination host. The wire-level part ends here;
  /// accounting (duplicate arbitration, completion, latency) belongs to the
  /// *source* partition and travels there as a kDeliverAcct event one cable
  /// delay later — the same delay in a serial run, so both realize
  /// identical schedules.
  void deliver(Lp& lp, topo::NodeId host, const Packet& pkt) {
    expects(fabric_.host_index(host) == pkt.dst, "packet at wrong host");
    Ev acct{EvType::kDeliverAcct, pkt.dst, pkt, lp.heap.now()};
    send(lp, lp.heap.now() + cfg_.calib.cable_latency_ns, acct);
  }

  /// Delivery accounting at the source partition: claim the pending slot
  /// (or count a duplicate), account bytes/ordering, complete the message.
  void on_deliver_acct(Lp& lp, const Ev& ev) {
    const Packet& pkt = ev.pkt;
    const SimTime arrived_at = ev.aux;
    if (resilient_ && pkt.pend != kNoPend) {
      Pending& p = lp.pending[pkt.pend];
      if (p.resolved) {  // a twin of this packet already claimed its bytes
        ++lp.duplicate_packets;
        return;
      }
      p.resolved = true;
    }
    ++lp.packets_delivered;
    lp.bytes_delivered += pkt.bytes;
    lp.last_delivery = std::max(lp.last_delivery, arrived_at);
    if (lp.trace != nullptr)  // stamped at accounting time: keeps the
      trace_event(lp.trace, lp.heap.now(), 0,  // serial trace monotone
                  obs::EventKind::kPacketDelivered, pkt.dst, pkt.msg, pkt.seq,
                  pkt.stage, cfg_.obs.vl_of(pkt.dst));
    MsgMeta& meta = lp.msgs[pkt.msg];
    expects(meta.remaining >= pkt.bytes, "over-delivery on a message");
    meta.remaining -= pkt.bytes;
    if (meta.any_delivered && pkt.seq < meta.max_seq_seen) ++lp.out_of_order;
    meta.max_seq_seen = std::max(meta.max_seq_seen, pkt.seq);
    meta.any_delivered = true;
    if (meta.remaining == 0) finish_message(lp, pkt.msg);
  }

  // --- stage barrier --------------------------------------------------------

  [[nodiscard]] std::uint64_t finished_total() const {
    std::uint64_t total = 0;
    for (const auto& lp : lps_) total += lp->finished_msgs;
    return total;
  }

  /// Fires once per synchronized stage, when every loaded message has
  /// completed: closes the stage trace-wise, loads the next non-empty stage
  /// and schedules the barrier release one cable delay after the globally
  /// last completion — at or after every partition's local clock, so the
  /// kStageAdvance push never time-travels.
  void maybe_advance_stage(SimTime t_zero) {
    if (finished_total() != loaded_total_) return;
    if (loaded_total_ <= zero_handled_at_) return;  // this zero already done
    zero_handled_at_ = loaded_total_;
    if (cfg_.obs.trace != nullptr && stage_active_) {
      trace_event(coord_trace(), t_zero, 0, obs::EventKind::kStageEnd,
                  current_stage_, 0, 0, stage_tag(current_stage_));
      stage_active_ = false;
    }
    // The begin marker is stamped at barrier-detection time (t_zero), like
    // the classic engine; hosts enter the stage one cable delay later.
    if (!load_next_sync_stage(t_zero)) return;
    const SimTime t_adv = t_zero + cfg_.calib.cable_latency_ns;
    for (auto& lp : lps_) {
      Ev ev{EvType::kStageAdvance, 0, {}, 0};
      lp->heap.push(t_adv, ev);
    }
  }

  // --- drive loops ----------------------------------------------------------

  void drive_serial(std::uint64_t event_limit) {
    Lp& lp = *lps_[0];
    while (!lp.heap.empty()) {
      expects(lp.events < event_limit,
              "packet simulation exceeded its event limit");
      if (sampling_ && lp.heap.next_time() > lp.next_sample)
        take_samples_serial(lp, lp.heap.next_time());
      dispatch(lp, lp.heap.pop());
    }
  }

  void drive_windows(std::uint64_t event_limit) {
    std::vector<SimTime> boundaries;
    while (true) {
      if (progression_ == Progression::kSynchronized) {
        SimTime t_zero = 0;
        for (const auto& lp : lps_)
          t_zero = std::max(t_zero, lp->last_finish_at);
        maybe_advance_stage(t_zero);
      }
      route_channels();
      SimTime gmin = kNever;
      for (const auto& lp : lps_) {
        gmin = std::min(gmin, lp->heap.next_time());
        for (const ChannelEv& ch : lp->inbox) gmin = std::min(gmin, ch.at);
      }
      if (gmin == kNever) break;
      const SimTime horizon = gmin + lookahead_;
      boundaries.clear();
      if (sampling_) collect_boundaries(horizon, boundaries);
      par::parallel_for(
          num_parts_,
          [this, horizon, &boundaries](std::size_t i, std::uint32_t) {
            run_window(*lps_[i], horizon, boundaries);
          },
          par::ForOptions{0, 1, nullptr});
      ++windows_;
      std::uint64_t total = 0;
      for (const auto& lp : lps_) total += lp->events;
      expects(total < event_limit,
              "packet simulation exceeded its event limit");
    }
  }

  /// Move every outbox into its destination inbox (coordinator only, between
  /// windows). Source-partition order is fixed, so inbox contents are
  /// deterministic; heap ordering is canonical anyway.
  void route_channels() {
    for (auto& src : lps_) {
      for (std::uint32_t dst = 0; dst < num_parts_; ++dst) {
        auto& box = src->outbox[dst];
        if (box.empty()) continue;
        auto& inbox = lps_[dst]->inbox;
        inbox.insert(inbox.end(), box.begin(), box.end());
        channel_total_ += box.size();
        box.clear();
      }
    }
  }

  /// Process one conservative window: adopt the channel events received at
  /// the barrier, then run the local queue strictly below the horizon,
  /// firing the window's link-sample boundaries in order.
  void run_window(Lp& lp, SimTime horizon,
                  const std::vector<SimTime>& boundaries) {
    for (const ChannelEv& ch : lp.inbox) lp.heap.push(ch.at, ch.ev);
    lp.inbox.clear();
    std::size_t bi = 0;
    while (!lp.heap.empty() && lp.heap.next_time() < horizon) {
      const SimTime t = lp.heap.next_time();
      while (bi < boundaries.size() && boundaries[bi] < t)
        sample_partial(lp, boundaries[bi++]);
      dispatch(lp, lp.heap.pop());
    }
    while (bi < boundaries.size()) sample_partial(lp, boundaries[bi++]);
  }

  // --- observability --------------------------------------------------------

  /// Serial-path sampling, identical to the classic engine: emit link
  /// samples at every elapsed period boundary strictly before `upto`. Pure
  /// observation: reads busy_ns/queues, schedules nothing, so the event
  /// sequence (and RunResult) is identical with sampling off.
  void take_samples_serial(Lp& lp, SimTime upto) {
    while (lp.next_sample < upto) {
      emit_sample_serial(lp, lp.next_sample);
      // Bound catch-up after long idle gaps (sync-stage barriers): skip to
      // the last boundary before `upto` once a gap exceeds 1024 periods.
      const SimTime behind =
          (upto - 1 - lp.next_sample) / cfg_.obs.sample_period_ns;
      if (behind > 1024)
        lp.next_sample += (behind - 1) * cfg_.obs.sample_period_ns;
      lp.next_sample += cfg_.obs.sample_period_ns;
    }
  }

  /// The windowed drives fire the identical boundary list on every LP; the
  /// coordinator advances the shared boundary cursor with the same skip
  /// rule, using the window horizon as the catch-up limit.
  void collect_boundaries(SimTime upto, std::vector<SimTime>& out) {
    while (coord_next_sample_ < upto) {
      out.push_back(coord_next_sample_);
      const SimTime behind =
          (upto - 1 - coord_next_sample_) / cfg_.obs.sample_period_ns;
      if (behind > 1024)
        coord_next_sample_ += (behind - 1) * cfg_.obs.sample_period_ns;
      coord_next_sample_ += cfg_.obs.sample_period_ns;
    }
  }

  /// Scan the LP's owned ports at a boundary: link utilization over the
  /// window since the previous sample, queue depths, per-port trace
  /// samples. Returns the partition's aggregate contribution.
  SamplePartial scan_ports(Lp& lp, SimTime at) {
    SamplePartial part;
    part.at = at;
    const auto window = static_cast<double>(at - lp.last_sample_at);
    lp.last_sample_at = at;
    if (window <= 0.0) return part;
    for (const PortId pid : lp.owned_ports) {
      const auto depth = static_cast<std::uint32_t>(lp.queues[pid].size());
      part.depth_total += depth;
      part.depth_max = std::max(part.depth_max, depth);
      if (lp.busy_ns[pid] == 0 && depth == 0) continue;  // never-used link
      // Utilization of this window; a packet's full serialization time is
      // charged at grant time, so clamp spans overhanging the boundary.
      const double util = std::min(
          1.0, static_cast<double>(lp.busy_ns[pid] - lp.sampled_busy[pid]) /
                   window);
      lp.sampled_busy[pid] = lp.busy_ns[pid];
      part.util_sum += util;
      part.util_max = std::max(part.util_max, util);
      ++part.links_active;
      if (lp.trace != nullptr)
        trace_event(lp.trace, at, 0, obs::EventKind::kLinkSample, pid,
                    static_cast<std::uint32_t>(util * 1000.0), depth,
                    stage_active_ ? stage_tag(current_stage_) : obs::kNoStage);
    }
    return part;
  }

  void emit_sample_serial(Lp& lp, SimTime at) {
    if (at <= lp.last_sample_at) return;  // zero-width window: skipped
    emit_series_sample(scan_ports(lp, at));
  }

  void sample_partial(Lp& lp, SimTime at) {
    lp.partials.push_back(scan_ports(lp, at));
  }

  void emit_series_sample(const SamplePartial& part) {
    if (cfg_.obs.metrics == nullptr) return;
    obs::MetricsRegistry& m = *cfg_.obs.metrics;
    m.series("packet_sim.link_util.mean")
        .sample(part.at, part.links_active != 0
                             ? part.util_sum / part.links_active
                             : 0.0);
    m.series("packet_sim.link_util.max").sample(part.at, part.util_max);
    m.series("packet_sim.queue_depth.max")
        .sample(part.at, static_cast<double>(part.depth_max));
    m.series("packet_sim.queue_depth.total")
        .sample(part.at, static_cast<double>(part.depth_total));
  }

  /// Close the sampling streams after the run: fire the remaining
  /// boundaries up to the makespan plus one short closing window, then (for
  /// partitioned runs) merge the index-aligned per-LP partials into the
  /// global time series.
  void finalize_sampling() {
    if (!sampling_) return;
    // Close at the drain end (the last processed event, >= the last trace
    // stamp) so the closing samples keep the serial trace monotone.
    SimTime end = 0;
    for (const auto& lp : lps_) end = std::max(end, lp->heap.now());
    if (num_parts_ == 1) {
      Lp& lp = *lps_[0];
      take_samples_serial(lp, end + 1);
      if (end > lp.last_sample_at) emit_sample_serial(lp, end);
      return;
    }
    std::vector<SimTime> tail;
    collect_boundaries(end + 1, tail);
    for (auto& lp : lps_)
      for (const SimTime at : tail) sample_partial(*lp, at);
    if (end > lps_[0]->last_sample_at)
      for (auto& lp : lps_) sample_partial(*lp, end);
    const std::size_t n = lps_[0]->partials.size();
    for (const auto& lp : lps_)
      expects(lp->partials.size() == n,
              "partitions diverged on sample boundaries");
    for (std::size_t i = 0; i < n; ++i) {
      SamplePartial merged = lps_[0]->partials[i];
      for (std::uint32_t p = 1; p < num_parts_; ++p) {
        const SamplePartial& part = lps_[p]->partials[i];
        merged.util_sum += part.util_sum;
        merged.util_max = std::max(merged.util_max, part.util_max);
        merged.links_active += part.links_active;
        merged.depth_total += part.depth_total;
        merged.depth_max = std::max(merged.depth_max, part.depth_max);
      }
      emit_series_sample(merged);
    }
  }

  /// Fold serialization time into the destination lane's busy total (only
  /// when a VL table is attached; lanes appear on first use).
  void account_vl_busy(Lp& lp, std::uint32_t dst, SimTime ser) {
    if (cfg_.obs.vl_of_dst == nullptr || cfg_.obs.metrics == nullptr) return;
    const std::uint8_t lane = cfg_.obs.vl_of(dst);
    if (lp.vl_busy_ns.size() <= lane) lp.vl_busy_ns.resize(lane + 1u, 0);
    lp.vl_busy_ns[lane] += static_cast<std::uint64_t>(ser);
  }

  // --- result assembly ------------------------------------------------------

  RunResult assemble(PdesStats& stats) {
    RunResult result;
    LatencyMoments latency;
    std::uint64_t credit_stalls = 0;
    std::vector<std::uint64_t> vl_busy;
    result.link_busy_ns.assign(fabric_.num_ports(), 0);
    result.max_queue_depth.assign(fabric_.num_ports(), 0);
    for (const auto& lp : lps_) {
      result.makespan = std::max(result.makespan, lp->last_delivery);
      result.bytes_delivered += lp->bytes_delivered;
      result.messages_delivered += lp->messages_delivered;
      result.packets_delivered += lp->packets_delivered;
      result.events += lp->events;
      result.out_of_order_packets += lp->out_of_order;
      result.packets_dropped += lp->packets_dropped;
      result.packets_retransmitted += lp->packets_retransmitted;
      result.duplicate_packets += lp->duplicate_packets;
      result.messages_failed += lp->messages_failed;
      result.bytes_failed += lp->bytes_failed;
      result.link_down_events += lp->link_down_events;
      credit_stalls += lp->credit_stalls;
      latency.merge(lp->latency);
      for (PortId pid = 0; pid < fabric_.num_ports(); ++pid) {
        result.link_busy_ns[pid] += lp->busy_ns[pid];
        result.max_queue_depth[pid] =
            std::max(result.max_queue_depth[pid], lp->max_depth[pid]);
      }
      if (lp->vl_busy_ns.size() > vl_busy.size())
        vl_busy.resize(lp->vl_busy_ns.size(), 0);
      for (std::size_t lane = 0; lane < lp->vl_busy_ns.size(); ++lane)
        vl_busy[lane] += lp->vl_busy_ns[lane];
    }
    result.active_hosts = active_hosts_;
    result.message_latency_us = latency.to_accumulator_us();
    if (result.makespan > 0 && result.active_hosts > 0) {
      result.effective_bw_per_host =
          static_cast<double>(result.bytes_delivered) /
          to_seconds(result.makespan) /
          static_cast<double>(result.active_hosts);
      result.normalized_bw =
          result.effective_bw_per_host / cfg_.calib.host_bw_bytes_per_sec;
    }
    merge_traces();
    if (cfg_.obs.metrics != nullptr)
      export_run_metrics(result, credit_stalls, vl_busy);
    stats.partitions = num_parts_;
    stats.windows = windows_;
    stats.events = result.events;
    stats.channel_events = channel_total_;
    return result;
  }

  /// Partitioned runs record into per-LP shards; merge them into the user's
  /// recorder by content order (timestamp, shard, seq) — deterministic for
  /// a fixed partition count at any thread count. Events a full shard
  /// dropped count as dropped by the user's recorder too.
  void merge_traces() {
    if (shards_ == nullptr) return;
    for (const obs::TraceEvent& ev : shards_->merged())
      cfg_.obs.trace->record(ev);
    for (std::uint32_t p = 0; p < num_parts_; ++p)
      cfg_.obs.trace->add_dropped(shards_->shard(p).dropped());
  }

  void export_run_metrics(const RunResult& result, std::uint64_t credit_stalls,
                          const std::vector<std::uint64_t>& vl_busy) {
    obs::MetricsRegistry& m = *cfg_.obs.metrics;
    m.counter("packet_sim.packets_delivered").inc(result.packets_delivered);
    m.counter("packet_sim.messages_delivered").inc(result.messages_delivered);
    m.counter("packet_sim.bytes_delivered").inc(result.bytes_delivered);
    m.counter("packet_sim.events").inc(result.events);
    m.counter("packet_sim.credit_stalls").inc(credit_stalls);
    m.counter("packet_sim.out_of_order_packets")
        .inc(result.out_of_order_packets);
    m.counter("packet_sim.packets_dropped").inc(result.packets_dropped);
    m.counter("packet_sim.packets_retransmitted")
        .inc(result.packets_retransmitted);
    m.counter("packet_sim.duplicate_packets").inc(result.duplicate_packets);
    m.counter("packet_sim.messages_failed").inc(result.messages_failed);
    m.counter("packet_sim.bytes_failed").inc(result.bytes_failed);
    m.counter("packet_sim.link_down_events").inc(result.link_down_events);
    m.gauge("packet_sim.makespan_us").set(to_us(result.makespan));
    m.gauge("packet_sim.normalized_bw").set(result.normalized_bw);
    obs::Histogram& hist =
        m.histogram("packet_sim.msg_latency_us", 0.0, 10'000.0, 100);
    for (const auto& lp : lps_) hist.merge(lp->latency_hist);
    for (std::size_t lane = 0; lane < vl_busy.size(); ++lane) {
      if (vl_busy[lane] == 0) continue;
      m.gauge("packet_sim.vl_busy_us." + std::to_string(lane))
          .set(to_us(static_cast<SimTime>(vl_busy[lane])));
    }
    if (num_parts_ > 1) {
      // Deterministic PDES execution-shape metrics (never wall-clock —
      // events/sec lives in bench JSON and stdout, not here, to keep the
      // metrics export byte-identical across machines).
      m.gauge("pdes.partitions").set(static_cast<double>(num_parts_));
      m.counter("pdes.windows").inc(windows_);
      m.counter("pdes.channel_events").inc(channel_total_);
    }
  }

  const EngineConfig& cfg_;
  const Fabric& fabric_;
  const route::ForwardingTables& tables_;
  const PartitionMap& map_;
  const std::vector<StageTraffic>& stages_;
  Progression progression_;
  std::uint32_t num_parts_;
  SimTime lookahead_;
  /// Every switch's LFT row, indexed by NodeId (one validated lookup each).
  std::vector<std::span<const std::uint32_t>> rows_;
  std::uint32_t req_words_ = 1;  ///< request-mask words per output port
  bool resilient_ = false;
  bool sampling_ = false;

  std::vector<std::unique_ptr<Lp>> lps_;
  std::unique_ptr<obs::ShardedTraceRecorder> shards_;

  // Coordinator state (mutated between windows, or reentrantly when serial).
  std::size_t next_stage_ = 0;
  std::uint64_t msgs_total_ = 0;
  std::uint64_t loaded_total_ = 0;
  std::uint64_t zero_handled_at_ = 0;
  std::uint64_t active_hosts_ = 0;
  std::uint32_t current_stage_ = 0;
  bool stage_active_ = false;
  SimTime coord_next_sample_ = 0;
  std::uint64_t windows_ = 0;
  std::uint64_t channel_total_ = 0;
};

}  // namespace

RunResult run_core(const EngineConfig& cfg, const PartitionMap& map,
                   const std::vector<StageTraffic>& stages,
                   Progression progression, std::uint64_t event_limit,
                   PdesStats& stats) {
  Core core(cfg, map, stages, progression);
  return core.run(event_limit, stats);
}

}  // namespace ftcf::sim::detail
