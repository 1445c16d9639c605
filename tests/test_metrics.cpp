// Metrics layer: quantile estimation over the log2-bucketed histograms,
// shard merging, Prometheus exposition, the background exporter, and
// counters raced from par::ThreadPool workers against a snapshot.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "patlabor/obs/metrics.hpp"
#include "patlabor/obs/obs.hpp"
#include "patlabor/par/pool.hpp"

namespace patlabor {
namespace {

using obs::Histogram;
using obs::StatsRegistry;

class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(false);
    StatsRegistry::instance().reset();
  }
  void TearDown() override {
    obs::set_enabled(false);
    StatsRegistry::instance().reset();
  }
};

Histogram::Summary record_all(std::initializer_list<std::uint64_t> values) {
  Histogram h;
  for (std::uint64_t v : values) h.record(v);
  return h.summary();
}

TEST_F(MetricsTest, QuantileOfEmptyHistogramIsZero) {
  const Histogram::Summary s = record_all({});
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(s, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(s, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(s, 1.0), 0.0);
}

TEST_F(MetricsTest, QuantileOfSingleValueIsExactForEveryQ) {
  const Histogram::Summary s = record_all({37});
  for (double q : {0.0, 0.25, 0.5, 0.95, 0.99, 1.0})
    EXPECT_DOUBLE_EQ(obs::histogram_quantile(s, q), 37.0) << "q=" << q;
}

TEST_F(MetricsTest, QuantileExactForEvenlySpacedValuesInOneBucket) {
  // 4..7 all land in the log2 bucket [4,7]; min/max tightening plus the
  // in-bucket interpolation recovers every value exactly.
  const Histogram::Summary s = record_all({4, 5, 6, 7});
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(s, 0.0), 4.0);
  EXPECT_NEAR(obs::histogram_quantile(s, 0.5), 5.0, 1e-9);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(s, 1.0), 7.0);
}

TEST_F(MetricsTest, QuantileOfSingleZeroObservationIsZero) {
  // Value 0 lands in bucket 0 whose lower bound is already 0 — the
  // min/max tightening must still pin every quantile to the observation.
  const Histogram::Summary s = record_all({0});
  for (double q : {0.0, 0.5, 1.0})
    EXPECT_DOUBLE_EQ(obs::histogram_quantile(s, q), 0.0) << "q=" << q;
}

TEST_F(MetricsTest, QuantileOfPowerOfTwoSingleValueIsExact) {
  // 2^k sits on a bucket boundary; both tightened bounds collapse onto it.
  for (std::uint64_t v : {1ull, 2ull, 1024ull, 1ull << 40, 1ull << 63}) {
    const Histogram::Summary s = record_all({v});
    for (double q : {0.0, 0.5, 1.0})
      EXPECT_DOUBLE_EQ(obs::histogram_quantile(s, q),
                       static_cast<double>(v))
          << "v=" << v << " q=" << q;
  }
}

TEST_F(MetricsTest, QuantileOfRepeatedValueCollapsesTheBucket) {
  // All mass on one value: min == max squeezes the only bucket to a point,
  // regardless of count (the c == 1 shortcut must not be load-bearing).
  const Histogram::Summary s = record_all({8, 8, 8, 8, 8});
  for (double q : {0.0, 0.3, 0.5, 0.99, 1.0})
    EXPECT_DOUBLE_EQ(obs::histogram_quantile(s, q), 8.0) << "q=" << q;
}

TEST_F(MetricsTest, QuantileOfMergedSingleValueShardsStaysExact) {
  // Per-thread histogram shards merge before quantile evaluation; two
  // shards of the same lone value must behave like one shard of count 2.
  Histogram a, b;
  a.record(5);
  b.record(5);
  const auto merged = obs::merge_summaries(a.summary(), b.summary());
  EXPECT_EQ(merged.count, 2u);
  for (double q : {0.0, 0.5, 1.0})
    EXPECT_DOUBLE_EQ(obs::histogram_quantile(merged, q), 5.0) << "q=" << q;

  // Disjoint lone values: the endpoints are the shard values.
  Histogram c, d;
  c.record(3);
  d.record(100);
  const auto span = obs::merge_summaries(c.summary(), d.summary());
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(span, 0.0), 3.0);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(span, 1.0), 100.0);
}

TEST_F(MetricsTest, QuantileEndpointsMatchExtremesInsideOneBucket) {
  // {6, 6, 7} shares the [4,7] bucket: interior quantiles interpolate, but
  // the endpoints must be the recorded extremes exactly.
  const Histogram::Summary s = record_all({6, 6, 7});
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(s, 0.0), 6.0);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(s, 1.0), 7.0);
  const double mid = obs::histogram_quantile(s, 0.5);
  EXPECT_GE(mid, 6.0);
  EXPECT_LE(mid, 7.0);
}

TEST_F(MetricsTest, QuantileIsMonotoneAndBoundedByMinMax) {
  const Histogram::Summary s = record_all({1, 3, 9, 120, 4096, 70000});
  double prev = -1.0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const double v = obs::histogram_quantile(s, q);
    EXPECT_GE(v, static_cast<double>(s.min));
    EXPECT_LE(v, static_cast<double>(s.max));
    EXPECT_GE(v + 1e-9, prev) << "quantile not monotone at q=" << q;
    prev = v;
  }
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(s, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(s, 1.0), 70000.0);
}

TEST_F(MetricsTest, MergeSummariesAddsCountsAndWidensExtremes) {
  const Histogram::Summary a = record_all({1, 5, 5});
  const Histogram::Summary b = record_all({9, 64});
  const Histogram::Summary m = obs::merge_summaries(a, b);
  EXPECT_EQ(m.count, 5u);
  EXPECT_EQ(m.sum, a.sum + b.sum);
  EXPECT_EQ(m.min, 1u);
  EXPECT_EQ(m.max, 64u);
  for (std::size_t i = 0; i < m.buckets.size(); ++i)
    EXPECT_EQ(m.buckets[i], a.buckets[i] + b.buckets[i]) << "bucket " << i;

  // The merged shard quantiles match a histogram fed everything directly.
  const Histogram::Summary all = record_all({1, 5, 5, 9, 64});
  for (double q : {0.0, 0.5, 0.95, 1.0})
    EXPECT_DOUBLE_EQ(obs::histogram_quantile(m, q),
                     obs::histogram_quantile(all, q));
}

TEST_F(MetricsTest, MergeWithEmptyIsIdentity) {
  const Histogram::Summary a = record_all({2, 8});
  const Histogram::Summary empty = record_all({});
  const Histogram::Summary m = obs::merge_summaries(a, empty);
  EXPECT_EQ(m.count, a.count);
  EXPECT_EQ(m.min, a.min);
  EXPECT_EQ(m.max, a.max);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(m, 0.5),
                   obs::histogram_quantile(a, 0.5));
}

TEST_F(MetricsTest, ExposeTextCoversAllMetricTypes) {
  auto& reg = StatsRegistry::instance();
  reg.counter("metrics_test.requests").add(3);
  reg.gauge("metrics_test.pool-size").set(8);
  auto& h = reg.histogram("metrics_test.latency");
  h.record(1);
  h.record(5);

  const std::string text = obs::expose_text(reg.snapshot());
  EXPECT_NE(text.find("# TYPE patlabor_metrics_test_requests counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("patlabor_metrics_test_requests 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE patlabor_metrics_test_pool_size gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("patlabor_metrics_test_pool_size 8\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE patlabor_metrics_test_latency histogram\n"),
            std::string::npos);
  // Cumulative buckets end with +Inf == _count.
  EXPECT_NE(text.find("patlabor_metrics_test_latency_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("patlabor_metrics_test_latency_sum 6\n"),
            std::string::npos);
  EXPECT_NE(text.find("patlabor_metrics_test_latency_count 2\n"),
            std::string::npos);
}

TEST_F(MetricsTest, WriteMetricsTextIsAtomicAndReadable) {
  auto& reg = StatsRegistry::instance();
  reg.counter("metrics_test.file").add(11);
  const std::string path = "metrics_test_out.prom";
  obs::write_metrics_text(path, reg.snapshot());
  std::ifstream in(path);
  std::ostringstream body;
  body << in.rdbuf();
  EXPECT_NE(body.str().find("patlabor_metrics_test_file 11"),
            std::string::npos);
  // No temp file left behind.
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

TEST_F(MetricsTest, ConcurrentCounterIncrementsRaceSnapshotSafely) {
  obs::set_enabled(true);
  auto& reg = StatsRegistry::instance();
  auto& counter = reg.counter("metrics_test.race");
  constexpr std::size_t kWorkers = 4;
  constexpr std::uint64_t kPerWorker = 20000;

  par::ThreadPool pool(kWorkers);
  std::atomic<bool> done{false};
  std::thread scraper([&] {
    // Snapshot continuously while workers increment: every observed value
    // must be a valid intermediate (monotone, never above the final total).
    std::uint64_t prev = 0;
    while (!done.load(std::memory_order_acquire)) {
      const auto snap = reg.snapshot();
      const auto it = snap.counters.find("metrics_test.race");
      if (it != snap.counters.end()) {
        EXPECT_GE(it->second, prev);
        EXPECT_LE(it->second, kWorkers * kPerWorker);
        prev = it->second;
      }
    }
  });

  pool.run(kWorkers, [&](std::size_t) {
    for (std::uint64_t i = 0; i < kPerWorker; ++i) counter.add(1);
  });
  done.store(true, std::memory_order_release);
  scraper.join();

  EXPECT_EQ(counter.value(), kWorkers * kPerWorker);
}

TEST_F(MetricsTest, ExporterWritesPeriodicallyAndOnStop) {
  auto& reg = StatsRegistry::instance();
  reg.counter("metrics_test.exporter").add(5);
  const std::string path = "metrics_test_exporter.prom";
  std::remove(path.c_str());
  {
    obs::MetricsExporterOptions opt;
    opt.path = path;
    opt.interval = std::chrono::milliseconds(20);
    obs::MetricsExporter exporter(opt);
    exporter.dump_now();
    for (int i = 0; i < 100 && exporter.dumps() == 0; ++i)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_GE(exporter.dumps(), 1u);
    reg.counter("metrics_test.exporter").add(2);
    exporter.stop();  // final snapshot picks up the late increment
    const auto snap = exporter.latest();
    EXPECT_EQ(snap.counters.at("metrics_test.exporter"), 7u);
  }
  std::ifstream in(path);
  std::ostringstream body;
  body << in.rdbuf();
  EXPECT_NE(body.str().find("patlabor_metrics_test_exporter 7"),
            std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace patlabor
