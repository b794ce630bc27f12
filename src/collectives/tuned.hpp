// Tuned collective selection — the front end a user calls.
//
// MVAPICH and OpenMPI pick a collective algorithm per call from the message
// size and rank count (that selection is exactly what Table 1 tabulates).
// TunedCollectives reproduces that behaviour over this library's
// implementations: every call runs the real data movement, returns the
// result, and reports which algorithm ran plus its traffic trace, so the
// choice can be audited for congestion on a concrete fabric.
//
// Selection policy (after the cited implementations):
//   * allreduce: Rabenseifner for large messages (>= kSmallMessageBytes per
//     rank) on power-of-two P when the payload splits into rank blocks,
//     recursive doubling otherwise;
//   * alltoall: pairwise exchange always.
#pragma once

#include <string>

#include "collectives/collectives.hpp"

namespace ftcf::coll {

/// MVAPICH-style small/large switch point, in bytes per rank.
inline constexpr std::uint64_t kSmallMessageBytes = 8192;

template <typename Out>
struct TunedResult {
  std::string algorithm;  ///< which implementation was selected
  Result<Out> result;
};

class TunedCollectives {
 public:
  explicit TunedCollectives(std::uint64_t ranks);

  [[nodiscard]] std::uint64_t ranks() const noexcept { return ranks_; }

  [[nodiscard]] TunedResult<Buffer> allreduce(
      ReduceOp op, const std::vector<Buffer>& inputs) const;
  [[nodiscard]] TunedResult<Buffer> alltoall(
      const std::vector<Buffer>& inputs, std::uint64_t count) const;

 private:
  std::uint64_t ranks_;
};

}  // namespace ftcf::coll
