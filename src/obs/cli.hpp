// Shared --trace/--metrics/--profile wiring for ftcf_tool and the bench
// harnesses.
//
//   util::Cli cli(...);
//   obs::ObsCli::add_options(cli);
//   ... cli.parse(...) ...
//   obs::ObsCli obs(cli);          // allocates recorder/registry as requested
//   sim.set_observer(obs.observer());
//   ... run ...
//   obs.finish(naming);            // writes the files, prints the profile
//
// When a harness performs several simulator runs in one invocation, all runs
// append into the same trace (each restarts sim time at zero) — use a
// single-configuration invocation when capturing a trace to inspect.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "obs/sim_hooks.hpp"
#include "util/cli.hpp"

namespace ftcf::obs {

class ObsCli {
 public:
  /// Declare --trace, --trace-csv, --trace-cap, --metrics, --heatmap,
  /// --sample-us and --profile.
  static void add_options(util::Cli& cli);

  /// Read the parsed options; allocates only what was asked for and enables
  /// the profiler when --profile was given. --heatmap implies an event
  /// recorder even without --trace/--trace-csv.
  explicit ObsCli(const util::Cli& cli);

  [[nodiscard]] const SimObserver& observer() const noexcept { return obs_; }
  [[nodiscard]] bool active() const noexcept {
    return obs_.active() || profile_;
  }
  [[nodiscard]] MetricsRegistry* metrics() noexcept { return metrics_.get(); }

  /// Attach a destination-host -> VL table for per-VL event tagging; the
  /// table must outlive the simulator runs.
  void set_vl_table(const std::vector<std::uint32_t>* vl_of_dst) noexcept {
    obs_.vl_of_dst = vl_of_dst;
  }

  /// Content-only metadata for the heatmap JSON header. Like the
  /// certificate's meta, it carries no timestamps and no thread counts.
  void set_heatmap_meta(const std::string& key, const std::string& value) {
    heatmap_meta_[key] = value;
  }

  /// Write the requested output files (throws util::Error on I/O failure)
  /// and print the profiling table to stderr when --profile was given.
  void finish(const TraceNaming& naming = {});

 private:
  std::unique_ptr<TraceRecorder> trace_;
  std::unique_ptr<MetricsRegistry> metrics_;
  SimObserver obs_;
  std::string trace_path_;
  std::string trace_csv_path_;
  std::string metrics_path_;
  std::string heatmap_path_;
  std::map<std::string, std::string> heatmap_meta_;
  bool profile_ = false;
};

}  // namespace ftcf::obs
