#include "collectives/collectives.hpp"

#include <algorithm>
#include <bit>
#include <span>
#include <string>

#include "util/expects.hpp"

namespace ftcf::coll {

using cps::Pair;
using cps::Rank;
using cps::Stage;
using util::expects;

namespace {

constexpr std::uint64_t kElementBytes = sizeof(Element);

/// Collects the stages a collective actually executed.
class TraceBuilder {
 public:
  TraceBuilder(std::string name, std::uint64_t ranks) {
    trace_.sequence.name = std::move(name);
    trace_.sequence.num_ranks = ranks;
  }

  void add(Stage stage, std::uint64_t bytes_per_pair) {
    trace_.sequence.stages.push_back(std::move(stage));
    trace_.bytes_per_pair.push_back(bytes_per_pair);
  }

  Trace take() { return std::move(trace_); }

 private:
  Trace trace_;
};

std::uint64_t common_count(const std::vector<Buffer>& inputs) {
  expects(!inputs.empty(), "collective needs at least one rank");
  const std::size_t count = inputs.front().size();
  for (const Buffer& buf : inputs)
    expects(buf.size() == count, "all ranks must contribute equal counts");
  return count;
}

}  // namespace

// --- broadcast ---------------------------------------------------------------

Result<Buffer> bcast_binomial(std::uint64_t ranks, const Buffer& root_data) {
  expects(ranks >= 2, "bcast needs at least 2 ranks");
  std::vector<Buffer> state(ranks);
  std::vector<bool> has(ranks, false);
  state[0] = root_data;
  has[0] = true;

  TraceBuilder trace("binomial", ranks);
  for (std::uint64_t step = 1; step < ranks; step <<= 1) {
    Stage stage;
    for (Rank i = 0; i < step && i + step < ranks; ++i) {
      expects(has[i], "binomial bcast sender must be informed");
      state[i + step] = state[i];
      has[i + step] = true;
      stage.pairs.push_back({i, i + step});
    }
    trace.add(std::move(stage), root_data.size() * kElementBytes);
  }
  return {std::move(state), trace.take()};
}

// --- reductions to a root ----------------------------------------------------

Result<Buffer> reduce_tournament(ReduceOp op,
                                 const std::vector<Buffer>& inputs) {
  const std::uint64_t ranks = inputs.size();
  expects(ranks >= 2, "reduce needs at least 2 ranks");
  const std::uint64_t count = common_count(inputs);
  std::vector<Buffer> acc = inputs;

  TraceBuilder trace("tournament", ranks);
  for (std::uint64_t step = 1; step < ranks; step <<= 1) {
    Stage stage;
    for (Rank i = 0; i + step < ranks; i += 2 * step) {
      reduce_into(op, acc[i], acc[i + step]);
      stage.pairs.push_back({i + step, i});
    }
    trace.add(std::move(stage), count * kElementBytes);
  }
  return {std::move(acc), trace.take()};
}

// --- gather ------------------------------------------------------------------

Result<Buffer> gather_linear(const std::vector<Buffer>& inputs) {
  const std::uint64_t ranks = inputs.size();
  expects(ranks >= 2, "gather needs at least 2 ranks");
  const std::uint64_t count = common_count(inputs);

  std::vector<Buffer> outputs(ranks);
  Buffer& root = outputs[0];
  root = inputs[0];
  TraceBuilder trace("linear-reverse", ranks);
  for (Rank i = 1; i < ranks; ++i) {
    root.insert(root.end(), inputs[i].begin(), inputs[i].end());
    Stage stage;
    stage.pairs.push_back({i, 0});
    trace.add(std::move(stage), count * kElementBytes);
  }
  return {std::move(outputs), trace.take()};
}

// --- allgather ---------------------------------------------------------------

Result<Buffer> allgather_ring(const std::vector<Buffer>& inputs) {
  const std::uint64_t ranks = inputs.size();
  expects(ranks >= 2, "allgather needs at least 2 ranks");
  const std::uint64_t count = common_count(inputs);

  // blocks[i][j]: rank i's copy of rank j's block (empty until received).
  std::vector<std::vector<Buffer>> blocks(ranks,
                                          std::vector<Buffer>(ranks));
  for (Rank i = 0; i < ranks; ++i) blocks[i][i] = inputs[i];

  TraceBuilder trace("ring", ranks);
  for (std::uint64_t t = 0; t < ranks - 1; ++t) {
    Stage stage;
    stage.pairs.reserve(ranks);
    // Stage t: rank i forwards block (i - t) mod P to its ring successor.
    for (Rank i = 0; i < ranks; ++i) {
      const Rank block = (i + ranks - t % ranks) % ranks;
      const Rank dst = (i + 1) % ranks;
      expects(!blocks[i][block].empty(), "ring forwards a block it holds");
      blocks[dst][block] = blocks[i][block];
      stage.pairs.push_back({i, dst});
    }
    trace.add(std::move(stage), count * kElementBytes);
  }

  std::vector<Buffer> outputs(ranks);
  for (Rank i = 0; i < ranks; ++i) {
    outputs[i].reserve(ranks * count);
    for (Rank j = 0; j < ranks; ++j) {
      expects(blocks[i][j].size() == count, "allgather missing a block");
      outputs[i].insert(outputs[i].end(), blocks[i][j].begin(),
                        blocks[i][j].end());
    }
  }
  return {std::move(outputs), trace.take()};
}

Result<Buffer> allgather_bruck(const std::vector<Buffer>& inputs) {
  const std::uint64_t ranks = inputs.size();
  expects(ranks >= 2, "allgather needs at least 2 ranks");
  const std::uint64_t count = common_count(inputs);

  std::vector<std::vector<Buffer>> blocks(ranks,
                                          std::vector<Buffer>(ranks));
  for (Rank i = 0; i < ranks; ++i) blocks[i][i] = inputs[i];

  TraceBuilder trace("dissemination", ranks);
  for (std::uint64_t step = 1; step < ranks; step <<= 1) {
    // Snapshot which blocks each rank holds, then ship them all: after the
    // stage, (i+step) also knows everything i knew (doubling coverage).
    std::vector<std::vector<Rank>> known(ranks);
    for (Rank i = 0; i < ranks; ++i)
      for (Rank j = 0; j < ranks; ++j)
        if (!blocks[i][j].empty()) known[i].push_back(j);

    Stage stage;
    stage.pairs.reserve(ranks);
    std::uint64_t stage_bytes = 0;
    for (Rank i = 0; i < ranks; ++i) {
      const Rank dst = (i + step) % ranks;
      std::uint64_t shipped = 0;
      for (const Rank j : known[i]) {
        if (blocks[dst][j].empty()) {
          blocks[dst][j] = blocks[i][j];
          ++shipped;
        }
      }
      stage.pairs.push_back({i, dst});
      stage_bytes =
          std::max<std::uint64_t>(stage_bytes, shipped * count * kElementBytes);
    }
    trace.add(std::move(stage), stage_bytes);
  }

  std::vector<Buffer> outputs(ranks);
  for (Rank i = 0; i < ranks; ++i) {
    for (Rank j = 0; j < ranks; ++j) {
      expects(blocks[i][j].size() == count, "bruck allgather missing a block");
      outputs[i].insert(outputs[i].end(), blocks[i][j].begin(),
                        blocks[i][j].end());
    }
  }
  return {std::move(outputs), trace.take()};
}

// --- allreduce ---------------------------------------------------------------

Result<Buffer> allreduce_over_sequence(ReduceOp op,
                                       const std::vector<Buffer>& inputs,
                                       const cps::Sequence& seq) {
  const std::uint64_t ranks = inputs.size();
  expects(seq.num_ranks == ranks, "sequence rank count mismatch");
  const std::uint64_t count = common_count(inputs);
  std::vector<Buffer> acc = inputs;

  for (const Stage& stage : seq.stages) {
    // Deliveries computed against pre-stage state (true exchange semantics).
    std::vector<std::pair<Rank, Buffer>> incoming;
    incoming.reserve(stage.pairs.size());
    for (const Pair& pr : stage.pairs) {
      expects(pr.src < ranks && pr.dst < ranks, "stage pair out of range");
      incoming.emplace_back(pr.dst, acc[pr.src]);
    }
    for (auto& [dst, payload] : incoming) {
      if (stage.role == cps::StageRole::kUnfold) acc[dst] = std::move(payload);
      else reduce_into(op, acc[dst], payload);
    }
  }

  Trace trace;
  trace.sequence = seq;
  trace.bytes_per_pair.assign(seq.stages.size(), count * kElementBytes);
  return {std::move(acc), std::move(trace)};
}

Result<Buffer> allreduce_recursive_doubling(
    ReduceOp op, const std::vector<Buffer>& inputs) {
  return allreduce_over_sequence(op, inputs,
                                 cps::recursive_doubling(inputs.size()));
}

// --- reduce-scatter ----------------------------------------------------------

Result<Buffer> reduce_scatter_halving(ReduceOp op,
                                      const std::vector<Buffer>& inputs) {
  const std::uint64_t ranks = inputs.size();
  expects(ranks >= 2 && std::has_single_bit(ranks),
          "recursive halving requires a power-of-two rank count");
  const std::uint64_t total = common_count(inputs);
  expects(total % ranks == 0,
          "reduce-scatter input must split evenly into rank blocks");
  const std::uint64_t count = total / ranks;

  struct Range {
    std::uint64_t lo, hi;  ///< block range currently being reduced
    Buffer data;
  };
  std::vector<Range> state(ranks);
  for (Rank i = 0; i < ranks; ++i) state[i] = {0, ranks, inputs[i]};

  TraceBuilder trace("recursive-halving", ranks);
  for (std::uint64_t step = ranks / 2; step >= 1; step >>= 1) {
    Stage stage;
    stage.pairs.reserve(ranks);
    // Snapshot halves to ship, then apply, to keep exchange symmetric.
    std::vector<Buffer> shipped(ranks);
    for (Rank i = 0; i < ranks; ++i) {
      const Range& r = state[i];
      const std::uint64_t mid = (r.lo + r.hi) / 2;
      const bool keep_low = (i & step) == 0;
      const std::uint64_t ship_lo = keep_low ? mid : r.lo;
      const std::uint64_t ship_hi = keep_low ? r.hi : mid;
      shipped[i].assign(
          r.data.begin() + static_cast<std::ptrdiff_t>((ship_lo - r.lo) * count),
          r.data.begin() + static_cast<std::ptrdiff_t>((ship_hi - r.lo) * count));
      stage.pairs.push_back({i, i ^ step});
    }
    for (Rank i = 0; i < ranks; ++i) {
      Range& r = state[i];
      const std::uint64_t mid = (r.lo + r.hi) / 2;
      const bool keep_low = (i & step) == 0;
      const std::uint64_t keep_lo = keep_low ? r.lo : mid;
      const std::uint64_t keep_hi = keep_low ? mid : r.hi;
      Buffer kept(
          r.data.begin() + static_cast<std::ptrdiff_t>((keep_lo - r.lo) * count),
          r.data.begin() + static_cast<std::ptrdiff_t>((keep_hi - r.lo) * count));
      Buffer& partner_half = shipped[i ^ step];
      expects(partner_half.size() == kept.size(),
              "halving partners must ship matching halves");
      reduce_into(op, kept, partner_half);
      r.data = std::move(kept);
      r.lo = keep_lo;
      r.hi = keep_hi;
    }
    trace.add(std::move(stage), (state[0].hi - state[0].lo) * count *
                                    kElementBytes);
  }

  std::vector<Buffer> outputs(ranks);
  for (Rank i = 0; i < ranks; ++i) {
    expects(state[i].lo == i && state[i].hi == i + 1,
            "halving must leave each rank its own block");
    outputs[i] = std::move(state[i].data);
  }
  return {std::move(outputs), trace.take()};
}

// --- alltoall ----------------------------------------------------------------

Result<Buffer> alltoall_pairwise(const std::vector<Buffer>& inputs,
                                 std::uint64_t count) {
  const std::uint64_t ranks = inputs.size();
  expects(ranks >= 2, "alltoall needs at least 2 ranks");
  for (const Buffer& buf : inputs)
    expects(buf.size() == ranks * count, "alltoall input must hold P blocks");

  std::vector<Buffer> outputs(ranks, Buffer(ranks * count, 0));
  const auto block = [count](const Buffer& buf, Rank j) {
    return std::span<const Element>(buf).subspan(j * count, count);
  };

  TraceBuilder trace("shift", ranks);
  for (Rank i = 0; i < ranks; ++i) {  // local copy, no traffic
    const auto b = block(inputs[i], i);
    std::copy(b.begin(), b.end(),
              outputs[i].begin() + static_cast<std::ptrdiff_t>(i * count));
  }
  for (std::uint64_t s = 1; s < ranks; ++s) {
    Stage stage;
    stage.pairs.reserve(ranks);
    for (Rank i = 0; i < ranks; ++i) {
      const Rank dst = (i + s) % ranks;
      const auto b = block(inputs[i], dst);
      std::copy(b.begin(), b.end(),
                outputs[dst].begin() + static_cast<std::ptrdiff_t>(i * count));
      stage.pairs.push_back({i, dst});
    }
    trace.add(std::move(stage), count * kElementBytes);
  }
  return {std::move(outputs), trace.take()};
}

// --- composite algorithms ------------------------------------------------------

Result<Buffer> allgather_recursive_doubling(
    const std::vector<Buffer>& inputs) {
  const std::uint64_t ranks = inputs.size();
  expects(ranks >= 2 && std::has_single_bit(ranks),
          "recursive-doubling allgather requires power-of-two ranks");
  const std::uint64_t count = common_count(inputs);

  // Each rank accumulates a contiguous (aligned) block range [lo, hi).
  struct Range {
    std::uint64_t lo, hi;
    Buffer data;
  };
  std::vector<Range> state(ranks);
  for (Rank i = 0; i < ranks; ++i) state[i] = {i, i + 1, inputs[i]};

  TraceBuilder trace("recursive-doubling", ranks);
  for (std::uint64_t step = 1; step < ranks; step <<= 1) {
    Stage stage;
    stage.pairs.reserve(ranks);
    // Snapshot payloads and ranges before applying: exchanges are symmetric
    // and both sides must see pre-stage state.
    std::vector<Buffer> shipped(ranks);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges(ranks);
    for (Rank i = 0; i < ranks; ++i) {
      shipped[i] = state[i].data;
      ranges[i] = {state[i].lo, state[i].hi};
      stage.pairs.push_back({i, i ^ step});
    }
    for (Rank i = 0; i < ranks; ++i) {
      Range& mine = state[i];
      const Rank partner = i ^ step;
      // Partner ranges are adjacent aligned blocks; merge in index order.
      if (ranges[partner].first < mine.lo) {
        Buffer merged = shipped[partner];
        merged.insert(merged.end(), mine.data.begin(), mine.data.end());
        mine.data = std::move(merged);
        mine.lo = ranges[partner].first;
      } else {
        mine.data.insert(mine.data.end(), shipped[partner].begin(),
                         shipped[partner].end());
        mine.hi = ranges[partner].second;
      }
    }
    trace.add(std::move(stage),
              (state[0].hi - state[0].lo) / 2 * count * kElementBytes);
  }

  std::vector<Buffer> outputs(ranks);
  for (Rank i = 0; i < ranks; ++i) {
    expects(state[i].lo == 0 && state[i].hi == ranks,
            "allgather must assemble every block everywhere");
    outputs[i] = std::move(state[i].data);
  }
  return {std::move(outputs), trace.take()};
}

Result<Buffer> allreduce_rabenseifner(ReduceOp op,
                                      const std::vector<Buffer>& inputs) {
  const std::uint64_t ranks = inputs.size();
  expects(ranks >= 2 && std::has_single_bit(ranks),
          "Rabenseifner allreduce requires power-of-two ranks");
  const std::uint64_t total = common_count(inputs);
  expects(total % ranks == 0,
          "Rabenseifner needs the payload to split into rank blocks");

  auto scattered = reduce_scatter_halving(op, inputs);
  auto gathered = allgather_recursive_doubling(scattered.outputs);

  Trace trace = std::move(scattered.trace);
  trace.sequence.name = "recursive-halving + recursive-doubling";
  for (std::size_t s = 0; s < gathered.trace.sequence.stages.size(); ++s) {
    trace.sequence.stages.push_back(
        std::move(gathered.trace.sequence.stages[s]));
    trace.bytes_per_pair.push_back(gathered.trace.bytes_per_pair[s]);
  }
  return {std::move(gathered.outputs), std::move(trace)};
}

}  // namespace ftcf::coll
