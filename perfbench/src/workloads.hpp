// The benchmark's four workloads. Each is a closed loop with one client:
// the harness serves request i, verifies it, and only then sends i + 1.
//
// Requests come in rounds of fixed composition (the seed varies the inputs
// inside a round, never its make-up), so medians over a run do not depend
// on which seed the run was given.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct WorkloadOptions {
  std::uint64_t seed = 1;
  bool smoke = false;  ///< tiny fabrics, for the benchmark's own tests
};

/// Outcome of verifying one request.
struct Verdict {
  bool ok = true;
  std::string why;  ///< first failed check, empty when ok
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Build the state every request is served from; called once, before the
  /// first request.
  virtual void setup(Tracer& tracer) = 0;
  /// Requests per round.
  [[nodiscard]] virtual std::size_t round_size() const = 0;
  /// Serve request `index` (the timed part). Throws on failure.
  virtual void serve(std::uint64_t index, Tracer& tracer) = 0;
  /// Check the request just served (untimed). Folds its outputs into
  /// `digest` when non-null.
  virtual Verdict verify(std::uint64_t index, Digest* digest) = 0;
  /// Work units the request just served completed (see work_unit()).
  [[nodiscard]] virtual std::uint64_t work() const = 0;
  [[nodiscard]] virtual const char* work_unit() const = 0;
  /// Tail percentile this workload reports; the harness serves at least
  /// enough requests to leave ten samples beyond it.
  [[nodiscard]] virtual double tail_percentile() const = 0;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(
    const std::string& name, const WorkloadOptions& options);

}  // namespace perfbench
