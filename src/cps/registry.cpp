#include "cps/registry.hpp"

#include <set>

namespace ftcf::cps {

const std::vector<UsageEntry>& table1_usage() {
  static const std::vector<UsageEntry> entries = {
      // AllGather
      {"AllGather", "recursive doubling", CpsKind::kRecursiveDoubling,
       MpiLibrary::kMvapich, MsgClass::kSmall, true},
      {"AllGather", "recursive doubling", CpsKind::kRecursiveDoubling,
       MpiLibrary::kOpenMpi, MsgClass::kSmall, true},
      {"AllGather", "bruck", CpsKind::kDissemination, MpiLibrary::kOpenMpi,
       MsgClass::kSmall, false},
      {"AllGather", "ring", CpsKind::kRing, MpiLibrary::kMvapich,
       MsgClass::kLarge, false},
      {"AllGather", "ring", CpsKind::kRing, MpiLibrary::kOpenMpi,
       MsgClass::kLarge, false},
      // AllReduce
      {"AllReduce", "recursive doubling", CpsKind::kRecursiveDoubling,
       MpiLibrary::kMvapich, MsgClass::kSmall, false},
      {"AllReduce", "recursive doubling", CpsKind::kRecursiveDoubling,
       MpiLibrary::kOpenMpi, MsgClass::kSmall, false},
      {"AllReduce", "reduce-scatter + allgather (Rabenseifner)",
       CpsKind::kRecursiveHalving, MpiLibrary::kMvapich, MsgClass::kLarge,
       false},
      {"AllReduce", "ring segmented", CpsKind::kRing, MpiLibrary::kOpenMpi,
       MsgClass::kLarge, false},
      // AlltoAll
      {"AlltoAll", "bruck", CpsKind::kDissemination, MpiLibrary::kMvapich,
       MsgClass::kSmall, false},
      {"AlltoAll", "pairwise exchange / shift", CpsKind::kShift,
       MpiLibrary::kMvapich, MsgClass::kLarge, false},
      {"AlltoAll", "pairwise exchange / shift", CpsKind::kShift,
       MpiLibrary::kOpenMpi, MsgClass::kLarge, false},
      // Barrier
      {"Barrier", "dissemination", CpsKind::kDissemination,
       MpiLibrary::kOpenMpi, MsgClass::kBoth, false},
      {"Barrier", "recursive doubling", CpsKind::kRecursiveDoubling,
       MpiLibrary::kOpenMpi, MsgClass::kBoth, true},
      {"Barrier", "pairwise exchange (dissemination)",
       CpsKind::kDissemination, MpiLibrary::kMvapich, MsgClass::kBoth, false},
      {"Barrier", "tournament", CpsKind::kTournament, MpiLibrary::kOpenMpi,
       MsgClass::kBoth, false},
      // Broadcast
      {"Bcast", "binomial tree", CpsKind::kBinomial, MpiLibrary::kMvapich,
       MsgClass::kSmall, false},
      {"Bcast", "binomial tree", CpsKind::kBinomial, MpiLibrary::kOpenMpi,
       MsgClass::kSmall, false},
      {"Bcast", "scatter + ring allgather", CpsKind::kRing,
       MpiLibrary::kMvapich, MsgClass::kLarge, false},
      {"Bcast", "scatter + recursive-doubling allgather",
       CpsKind::kRecursiveDoubling, MpiLibrary::kMvapich, MsgClass::kLarge,
       true},
      // Gather / Gatherv
      {"Gather", "binomial tree", CpsKind::kBinomial, MpiLibrary::kMvapich,
       MsgClass::kBoth, false},
      {"Gather", "binomial tree", CpsKind::kBinomial, MpiLibrary::kOpenMpi,
       MsgClass::kSmall, false},
      {"Gather", "linear", CpsKind::kLinear, MpiLibrary::kOpenMpi,
       MsgClass::kLarge, false},
      // Reduce
      {"Reduce", "binomial tree", CpsKind::kBinomial, MpiLibrary::kMvapich,
       MsgClass::kSmall, false},
      {"Reduce", "binomial tree", CpsKind::kBinomial, MpiLibrary::kOpenMpi,
       MsgClass::kSmall, false},
      {"Reduce", "reduce-scatter + binomial gather",
       CpsKind::kRecursiveHalving, MpiLibrary::kMvapich, MsgClass::kLarge,
       false},
      // ReduceScatter
      {"ReduceScatter", "recursive halving", CpsKind::kRecursiveHalving,
       MpiLibrary::kMvapich, MsgClass::kSmall, true},
      {"ReduceScatter", "recursive halving", CpsKind::kRecursiveHalving,
       MpiLibrary::kOpenMpi, MsgClass::kSmall, true},
      {"ReduceScatter", "pairwise exchange / shift", CpsKind::kShift,
       MpiLibrary::kMvapich, MsgClass::kLarge, false},
      {"ReduceScatter", "ring", CpsKind::kRing, MpiLibrary::kOpenMpi,
       MsgClass::kLarge, false},
      // Scatter
      {"Scatter", "binomial tree", CpsKind::kBinomial, MpiLibrary::kMvapich,
       MsgClass::kBoth, false},
      {"Scatter", "binomial tree", CpsKind::kBinomial, MpiLibrary::kOpenMpi,
       MsgClass::kSmall, false},
      {"Scatter", "linear", CpsKind::kLinear, MpiLibrary::kOpenMpi,
       MsgClass::kLarge, false},
  };
  return entries;
}

std::vector<std::string> table1_collectives() {
  std::vector<std::string> names;
  std::set<std::string> seen;
  for (const UsageEntry& entry : table1_usage()) {
    if (seen.insert(entry.collective).second) names.push_back(entry.collective);
  }
  return names;
}

std::string usage_marker(const UsageEntry& entry) {
  std::string marker;
  const bool mvapich = entry.library == MpiLibrary::kMvapich;
  if (entry.msg_class != MsgClass::kLarge) marker += mvapich ? 'm' : 'o';
  if (entry.msg_class != MsgClass::kSmall) marker += mvapich ? 'M' : 'O';
  if (entry.power_of_two_only) marker += '2';
  return marker;
}

}  // namespace ftcf::cps
