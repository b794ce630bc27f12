// MetricsRegistry semantics (counters, gauges, histograms, series) and the
// determinism contract: two identical simulator runs export byte-identical
// metrics JSON.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "cps/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/sim_hooks.hpp"
#include "obs/trace.hpp"
#include "routing/dmodk.hpp"
#include "sim/packet_sim.hpp"
#include "topology/presets.hpp"

namespace ftcf::obs {
namespace {

TEST(Metrics, CounterAccumulates) {
  MetricsRegistry registry;
  Counter& c = registry.counter("x.count");
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  // Same name resolves to the same instrument.
  EXPECT_EQ(registry.counter("x.count").value(), 42u);
  EXPECT_EQ(&registry.counter("x.count"), &c);
}

TEST(Metrics, GaugeLastWriteWins) {
  MetricsRegistry registry;
  Gauge& g = registry.gauge("x.level");
  g.set(1.5);
  g.set(-2.0);
  EXPECT_DOUBLE_EQ(g.value(), -2.0);
}

TEST(Metrics, HistogramBucketsAndStats) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("lat", 0.0, 10.0, 5);  // width 2
  h.add(-1.0);  // underflow
  h.add(0.0);   // bucket 0
  h.add(1.99);  // bucket 0
  h.add(5.0);   // bucket 2
  h.add(9.99);  // bucket 4
  h.add(10.0);  // overflow (hi is exclusive)
  h.add(25.0);  // overflow

  EXPECT_EQ(h.count(), 7u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  ASSERT_EQ(h.buckets().size(), 5u);
  EXPECT_EQ(h.buckets()[0], 2u);
  EXPECT_EQ(h.buckets()[1], 0u);
  EXPECT_EQ(h.buckets()[2], 1u);
  EXPECT_EQ(h.buckets()[3], 0u);
  EXPECT_EQ(h.buckets()[4], 1u);
  EXPECT_DOUBLE_EQ(h.min(), -1.0);
  EXPECT_DOUBLE_EQ(h.max(), 25.0);
  EXPECT_DOUBLE_EQ(h.sum(), -1.0 + 0.0 + 1.99 + 5.0 + 9.99 + 10.0 + 25.0);
  EXPECT_DOUBLE_EQ(h.mean(), h.sum() / 7.0);

  // Shape is fixed on first creation; a later call with different bounds
  // returns the existing histogram unchanged.
  Histogram& same = registry.histogram("lat", 0.0, 100.0, 50);
  EXPECT_EQ(&same, &h);
  EXPECT_DOUBLE_EQ(same.hi(), 10.0);
}

TEST(Metrics, EmptyHistogramMeanIsZero) {
  MetricsRegistry registry;
  EXPECT_DOUBLE_EQ(registry.histogram("h", 0, 1, 2).mean(), 0.0);
}

TEST(Metrics, SeriesKeepsRecordingOrder) {
  MetricsRegistry registry;
  TimeSeries& s = registry.series("util");
  s.sample(100, 0.5);
  s.sample(200, 0.75);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s.times()[0], 100);
  EXPECT_EQ(s.times()[1], 200);
  EXPECT_DOUBLE_EQ(s.values()[1], 0.75);
}

TEST(Metrics, SeriesDecimatesAtCapacityWithStrideDoubling) {
  TimeSeries s;
  s.set_capacity(4);
  for (sim::SimTime t = 0; t < 10; ++t)
    s.sample(t, static_cast<double>(t));
  // Offers 0..9 with capacity 4: stride doubles 1 -> 2 -> 4, and the
  // retained set is exactly the offers at indices divisible by the final
  // stride — a pure function of the offer sequence, never of timing.
  EXPECT_EQ(s.offered(), 10u);
  EXPECT_EQ(s.stride(), 4u);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.times()[0], 0);
  EXPECT_EQ(s.times()[1], 4);
  EXPECT_EQ(s.times()[2], 8);
  // Memory stays bounded: at most capacity samples (16 bytes each) are held
  // no matter how many offers arrive.
  for (sim::SimTime t = 10; t < 1000; ++t) s.sample(t, 0.0);
  EXPECT_LE(s.size(), 4u);
}

TEST(Metrics, SeriesRetentionIsDeterministic) {
  TimeSeries a, b;
  a.set_capacity(8);
  b.set_capacity(8);
  for (sim::SimTime t = 0; t < 333; ++t) {
    a.sample(t * 7, static_cast<double>(t));
    b.sample(t * 7, static_cast<double>(t));
  }
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.times()[i], b.times()[i]);
    EXPECT_DOUBLE_EQ(a.values()[i], b.values()[i]);
  }
}

TEST(Metrics, SeriesShrinkingCapacityDecimatesInPlace) {
  TimeSeries s;
  for (sim::SimTime t = 0; t < 16; ++t)
    s.sample(t, static_cast<double>(t));
  ASSERT_EQ(s.size(), 16u);
  s.set_capacity(4);
  EXPECT_LE(s.size(), 4u);
  EXPECT_EQ(s.times()[0], 0);  // head of the run is always retained
  // Capacity clamps to >= 2 so decimation always terminates.
  s.set_capacity(0);
  EXPECT_EQ(s.capacity(), 2u);
}

TEST(Metrics, RegistrySeriesCapacityAppliesToNewSeries) {
  MetricsRegistry registry;
  registry.set_series_capacity(4);
  TimeSeries& s = registry.series("bounded");
  EXPECT_EQ(s.capacity(), 4u);
  for (sim::SimTime t = 0; t < 100; ++t) s.sample(t, 1.0);
  EXPECT_LE(registry.series("bounded").size(), 4u);
  // Default capacity documents the memory bound: kDefaultCapacity samples.
  MetricsRegistry fresh;
  EXPECT_EQ(fresh.series("x").capacity(), TimeSeries::kDefaultCapacity);
}

TEST(Metrics, JsonExportContainsAllSections) {
  MetricsRegistry registry;
  registry.set_meta("tool", "test");
  registry.counter("a.count").inc(3);
  registry.gauge("b.level").set(1.25);
  registry.histogram("c.lat", 0, 10, 2).add(5.0);
  registry.series("d.util").sample(1000, 0.5);

  std::ostringstream os;
  registry.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"meta\""), std::string::npos);
  EXPECT_NE(json.find("\"tool\":\"test\""), std::string::npos);
  EXPECT_NE(json.find("\"a.count\":3"), std::string::npos);
  EXPECT_NE(json.find("\"b.level\":1.25"), std::string::npos);
  EXPECT_NE(json.find("\"c.lat\""), std::string::npos);
  EXPECT_NE(json.find("\"d.util\""), std::string::npos);
}

/// One packet-sim run of a fixed workload with full metrics collection;
/// returns the exported JSON.
std::string run_and_export() {
  const topo::Fabric fabric(topo::paper_cluster(16));
  const auto tables = route::DModKRouter{}.compute(fabric);
  sim::PacketSim psim(fabric, tables);

  MetricsRegistry registry;
  SimObserver observer;
  observer.metrics = &registry;
  observer.sample_period_ns = 1000;
  psim.set_observer(observer);

  const auto ordering = order::NodeOrdering::topology(fabric);
  const auto n = fabric.num_hosts();
  const auto result = psim.run(
      sim::traffic_from_cps(cps::shift(n), ordering, n, 32 * 1024),
      sim::Progression::kAsync);
  EXPECT_GT(result.messages_delivered, 0u);

  std::ostringstream os;
  registry.write_json(os);
  return os.str();
}

TEST(Metrics, TimeSeriesDeterministicAcrossIdenticalRuns) {
  const std::string first = run_and_export();
  const std::string second = run_and_export();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second) << "identical runs must export identical metrics";
  // The run actually produced the documented series.
  EXPECT_NE(first.find("\"packet_sim.link_util.mean\""), std::string::npos);
  EXPECT_NE(first.find("\"packet_sim.queue_depth.max\""), std::string::npos);
  EXPECT_NE(first.find("\"packet_sim.packets_delivered\""), std::string::npos);
}

TEST(Metrics, ObserverDoesNotChangeSimResults) {
  const topo::Fabric fabric(topo::paper_cluster(16));
  const auto tables = route::DModKRouter{}.compute(fabric);
  const auto ordering = order::NodeOrdering::topology(fabric);
  const auto n = fabric.num_hosts();
  const auto traffic =
      sim::traffic_from_cps(cps::recursive_doubling(n), ordering, n, 64 * 1024);

  sim::PacketSim plain(fabric, tables);
  const auto base = plain.run(traffic, sim::Progression::kSynchronized);

  sim::PacketSim observed(fabric, tables);
  MetricsRegistry registry;
  TraceRecorder rec;
  SimObserver observer;
  observer.metrics = &registry;
  observer.trace = &rec;
  observer.sample_period_ns = 500;
  observed.set_observer(observer);
  const auto with_obs = observed.run(traffic, sim::Progression::kSynchronized);

  EXPECT_EQ(base.makespan, with_obs.makespan);
  EXPECT_EQ(base.events, with_obs.events);
  EXPECT_EQ(base.bytes_delivered, with_obs.bytes_delivered);
  EXPECT_EQ(base.link_busy_ns, with_obs.link_busy_ns);
}

}  // namespace
}  // namespace ftcf::obs
