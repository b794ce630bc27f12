#include "collectives/tuned.hpp"

#include <bit>

#include "util/expects.hpp"

namespace ftcf::coll {

TunedCollectives::TunedCollectives(std::uint64_t ranks) : ranks_(ranks) {
  util::expects(ranks >= 2, "tuned collectives need at least 2 ranks");
}

TunedResult<Buffer> TunedCollectives::allreduce(
    ReduceOp op, const std::vector<Buffer>& inputs) const {
  util::expects(inputs.size() == ranks_, "rank count mismatch");
  const std::uint64_t bytes = inputs.front().size() * sizeof(Element);
  if (bytes >= kSmallMessageBytes && std::has_single_bit(ranks_) &&
      inputs.front().size() % ranks_ == 0) {
    return {"rabenseifner (reduce-scatter + allgather)",
            allreduce_rabenseifner(op, inputs)};
  }
  return {"recursive doubling", allreduce_recursive_doubling(op, inputs)};
}

TunedResult<Buffer> TunedCollectives::alltoall(
    const std::vector<Buffer>& inputs, std::uint64_t count) const {
  util::expects(inputs.size() == ranks_, "rank count mismatch");
  return {"pairwise exchange (shift)", alltoall_pairwise(inputs, count)};
}

}  // namespace ftcf::coll
