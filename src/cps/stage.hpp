// Collective Permutation Sequences (paper §III).
//
// The paper decomposes every MPI collective algorithm into (a) a Collective
// Permutation Sequence — who talks to whom at each stage — and (b) the data
// content exchanged. This module models part (a): a Sequence is an ordered
// list of Stages, each a set of directed (src, dst) pairs over ranks 0..N-1.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ftcf::cps {

using Rank = std::uint64_t;

struct Pair {
  Rank src = 0;
  Rank dst = 0;
  friend bool operator==(const Pair&, const Pair&) = default;
  friend auto operator<=>(const Pair&, const Pair&) = default;
};

/// (dst - src) mod n for n > 0. In-range pairs take a branch instead of the
/// 64-bit modulo; out-of-range ones keep it, so the value is the same.
[[nodiscard]] inline Rank displacement(const Pair& pair, Rank n) noexcept {
  if (pair.src < n && pair.dst < n)
    return pair.dst >= pair.src ? pair.dst - pair.src
                                : pair.dst + n - pair.src;
  return (pair.dst + n - pair.src) % n;
}

/// Role of a stage within its sequence, used by the data-content layer:
/// kExchange stages combine (e.g. reduce) incoming data with local state;
/// kFold stages fold non-power-of-two extras onto proxies (combine at dst);
/// kUnfold stages return final results from proxies (replace at dst).
enum class StageRole : std::uint8_t { kExchange, kFold, kUnfold };

/// One communication stage: all pairs exchange simultaneously.
struct Stage {
  std::vector<Pair> pairs;
  StageRole role = StageRole::kExchange;

  [[nodiscard]] bool empty() const noexcept { return pairs.empty(); }
};

/// A full permutation sequence with provenance.
struct Sequence {
  std::string name;
  std::uint64_t num_ranks = 0;
  std::vector<Stage> stages;

  [[nodiscard]] std::size_t num_stages() const noexcept {
    return stages.size();
  }
  [[nodiscard]] std::uint64_t total_pairs() const noexcept {
    std::uint64_t total = 0;
    for (const Stage& st : stages) total += st.pairs.size();
    return total;
  }
};

}  // namespace ftcf::cps
