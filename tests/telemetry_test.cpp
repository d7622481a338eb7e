#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/bench_io.h"
#include "telemetry/export.h"
#include "telemetry/metric_names.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace vegvisir::telemetry {
namespace {

// ---------------------------------------------------------------- counters

TEST(CounterTest, DefaultHandleIsNoOp) {
  Counter c;
  EXPECT_FALSE(c.bound());
  c.Inc();
  c.Inc(100);
  EXPECT_EQ(c.value(), 0u);
}

TEST(CounterTest, IncAndValue) {
  MetricsRegistry registry;
  Counter c = registry.GetCounter("test.counter");
  EXPECT_TRUE(c.bound());
  EXPECT_EQ(c.value(), 0u);
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(CounterTest, SameNameSharesCell) {
  MetricsRegistry registry;
  Counter a = registry.GetCounter("shared");
  Counter b = registry.GetCounter("shared");
  a.Inc(3);
  b.Inc(4);
  EXPECT_EQ(a.value(), 7u);
  EXPECT_EQ(b.value(), 7u);
  EXPECT_EQ(registry.CounterValue("shared"), 7u);
}

TEST(CounterTest, PointReadOfUnregisteredNameIsZero) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.CounterValue("never.registered"), 0u);
  EXPECT_EQ(registry.GaugeValue("never.registered"), 0.0);
}

TEST(CounterTest, HandlesSurviveManyRegistrations) {
  // Cells live in a deque: handles resolved early must stay valid
  // while later registrations grow the storage.
  MetricsRegistry registry;
  Counter first = registry.GetCounter("c.0");
  for (int i = 1; i < 200; ++i) {
    registry.GetCounter("c." + std::to_string(i)).Inc();
  }
  first.Inc(5);
  EXPECT_EQ(registry.CounterValue("c.0"), 5u);
  EXPECT_EQ(registry.CounterValue("c.199"), 1u);
}

// ------------------------------------------------------------------ gauges

TEST(GaugeTest, DefaultHandleIsNoOp) {
  Gauge g;
  EXPECT_FALSE(g.bound());
  g.Set(3.5);
  g.Add(1.0);
  EXPECT_EQ(g.value(), 0.0);
}

TEST(GaugeTest, SetAndAdd) {
  MetricsRegistry registry;
  Gauge g = registry.GetGauge("test.gauge");
  g.Set(10.0);
  g.Add(2.5);
  g.Add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 11.5);
  EXPECT_DOUBLE_EQ(registry.GaugeValue("test.gauge"), 11.5);
  g.Set(-4.0);
  EXPECT_DOUBLE_EQ(g.value(), -4.0);
}

// -------------------------------------------------------------- histograms

TEST(HistogramTest, DefaultHandleIsNoOp) {
  Histogram h;
  EXPECT_FALSE(h.bound());
  h.Observe(1.0);
  EXPECT_EQ(h.data(), nullptr);
}

TEST(HistogramTest, BucketPlacement) {
  MetricsRegistry registry;
  Histogram h = registry.GetHistogram("test.hist", {1, 2, 4});
  // counts[i] counts observations <= bounds[i]; last slot is +inf.
  h.Observe(0.5);  // <= 1
  h.Observe(1.0);  // <= 1 (bounds are inclusive upper)
  h.Observe(1.5);  // <= 2
  h.Observe(4.0);  // <= 4
  h.Observe(99.0); // overflow
  ASSERT_NE(h.data(), nullptr);
  const HistogramData& d = *h.data();
  ASSERT_EQ(d.counts.size(), 4u);
  EXPECT_EQ(d.counts[0], 2u);
  EXPECT_EQ(d.counts[1], 1u);
  EXPECT_EQ(d.counts[2], 1u);
  EXPECT_EQ(d.counts[3], 1u);
  EXPECT_EQ(d.count, 5u);
  EXPECT_DOUBLE_EQ(d.sum, 0.5 + 1.0 + 1.5 + 4.0 + 99.0);
}

TEST(HistogramTest, BoundsFixedAtFirstRegistration) {
  MetricsRegistry registry;
  Histogram first = registry.GetHistogram("fixed", {10, 20});
  Histogram again = registry.GetHistogram("fixed", {1, 2, 3, 4});
  ASSERT_NE(again.data(), nullptr);
  EXPECT_EQ(again.data(), first.data());
  EXPECT_EQ(again.data()->bounds, (std::vector<double>{10, 20}));
}

TEST(HistogramTest, PowerOfTwoBounds) {
  EXPECT_EQ(PowerOfTwoBounds(4), (std::vector<double>{1, 2, 4, 8}));
  EXPECT_EQ(PowerOfTwoBounds(1), (std::vector<double>{1}));
}

// --------------------------------------------------------------- snapshots

TEST(SnapshotTest, TakeSnapshotCopiesEverything) {
  MetricsRegistry registry;
  registry.GetCounter("c").Inc(7);
  registry.GetGauge("g").Set(2.5);
  registry.GetHistogram("h", {1, 2}).Observe(1.5);

  Snapshot snap = registry.TakeSnapshot();
  EXPECT_EQ(snap.counters.at("c"), 7u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("g"), 2.5);
  EXPECT_EQ(snap.histograms.at("h").count, 1u);

  // A snapshot is a copy, not a view.
  registry.GetCounter("c").Inc();
  EXPECT_EQ(snap.counters.at("c"), 7u);
}

TEST(SnapshotTest, EmptySnapshot) {
  MetricsRegistry registry;
  EXPECT_TRUE(registry.TakeSnapshot().empty());
  registry.GetCounter("c");
  EXPECT_FALSE(registry.TakeSnapshot().empty());
}

TEST(SnapshotTest, DiffSinceIsolatesWindow) {
  MetricsRegistry registry;
  Counter c = registry.GetCounter("c");
  Histogram h = registry.GetHistogram("h", {10});
  Gauge g = registry.GetGauge("g");

  c.Inc(5);
  h.Observe(3);
  g.Set(1.0);
  const Snapshot before = registry.TakeSnapshot();

  c.Inc(2);
  h.Observe(4);
  h.Observe(100);
  g.Set(9.0);
  registry.GetCounter("new.counter").Inc(3);  // absent in `before`
  const Snapshot diff = registry.TakeSnapshot().DiffSince(before);

  EXPECT_EQ(diff.counters.at("c"), 2u);
  EXPECT_EQ(diff.counters.at("new.counter"), 3u);
  // Gauges keep their current value — they are levels, not flows.
  EXPECT_DOUBLE_EQ(diff.gauges.at("g"), 9.0);
  const HistogramData& hd = diff.histograms.at("h");
  EXPECT_EQ(hd.count, 2u);
  ASSERT_EQ(hd.counts.size(), 2u);
  EXPECT_EQ(hd.counts[0], 1u);  // the 4
  EXPECT_EQ(hd.counts[1], 1u);  // the 100 overflow
  EXPECT_DOUBLE_EQ(hd.sum, 104.0);
}

TEST(SnapshotTest, MergeAddsAcrossRegistries) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.GetCounter("c").Inc(1);
  b.GetCounter("c").Inc(2);
  b.GetCounter("only.b").Inc(5);
  a.GetGauge("g").Set(1.5);
  b.GetGauge("g").Set(2.0);
  a.GetHistogram("h", {1, 2}).Observe(1);
  b.GetHistogram("h", {1, 2}).Observe(2);

  Snapshot merged = a.TakeSnapshot();
  merged.Merge(b.TakeSnapshot());
  EXPECT_EQ(merged.counters.at("c"), 3u);
  EXPECT_EQ(merged.counters.at("only.b"), 5u);
  // Gauges are levels, not flows: Merge keeps the larger reading.
  EXPECT_DOUBLE_EQ(merged.gauges.at("g"), 2.0);
  const HistogramData& hd = merged.histograms.at("h");
  EXPECT_EQ(hd.count, 2u);
  EXPECT_EQ(hd.counts[0], 1u);
  EXPECT_EQ(hd.counts[1], 1u);
}

// Eight single-thread runs merged must still read one thread; a sum
// would report eight. Gauges only the right-hand side has are copied.
TEST(SnapshotTest, MergeKeepsGaugeMaximum) {
  Snapshot merged;
  for (int run = 0; run < 8; ++run) {
    MetricsRegistry r;
    r.GetGauge("exec.threads").Set(1);
    r.GetGauge("node.quarantine_size").Set(run == 3 ? 5 : 0);
    merged.Merge(r.TakeSnapshot());
  }
  EXPECT_DOUBLE_EQ(merged.gauges.at("exec.threads"), 1.0);
  EXPECT_DOUBLE_EQ(merged.gauges.at("node.quarantine_size"), 5.0);

  MetricsRegistry negative;
  negative.GetGauge("only.rhs").Set(-2.5);
  merged.Merge(negative.TakeSnapshot());
  EXPECT_DOUBLE_EQ(merged.gauges.at("only.rhs"), -2.5);
}

// A histogram whose bounds disagree is skipped whole and counted, so
// every merged histogram keeps count == sum of its buckets.
TEST(SnapshotTest, MergeMismatchedHistogramBoundsSkipsAndCounts) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.GetHistogram("h", {1, 2}).Observe(1);
  b.GetHistogram("h", {10, 20, 30}).Observe(15);
  b.GetHistogram("same", {1}).Observe(0.5);

  Snapshot merged = a.TakeSnapshot();
  EXPECT_EQ(merged.counters.count(kMergeConflictsCounter), 0u);
  merged.Merge(b.TakeSnapshot());
  merged.Merge(b.TakeSnapshot());
  const HistogramData& hd = merged.histograms.at("h");
  EXPECT_EQ(hd.bounds, (std::vector<double>{1, 2}));  // keeps LHS shape
  EXPECT_EQ(hd.count, 1u);
  EXPECT_DOUBLE_EQ(hd.sum, 1.0);
  EXPECT_EQ(merged.counters.at(kMergeConflictsCounter), 2u);
  for (const auto& [name, data] : merged.histograms) {
    std::uint64_t buckets = 0;
    for (const std::uint64_t c : data.counts) buckets += c;
    EXPECT_EQ(data.count, buckets) << name;
  }
  EXPECT_EQ(merged.histograms.at("same").count, 2u);
  EXPECT_TRUE(metric_names::IsDeclaredCounter(kMergeConflictsCounter));
}

// ------------------------------------------------------------------ tracer

TEST(TracerTest, RecordsSpansAndInstants) {
  Tracer tracer(8);
  tracer.RecordSpan("span", 10, 25, 1, 2);
  tracer.RecordInstant("instant", 30, 7);

  const std::vector<TraceEvent> events = tracer.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, TraceEvent::Kind::kSpan);
  EXPECT_STREQ(events[0].name, "span");
  EXPECT_EQ(events[0].start_ms, 10u);
  EXPECT_EQ(events[0].end_ms, 25u);
  EXPECT_EQ(events[0].duration_ms(), 15u);
  EXPECT_EQ(events[0].a, 1u);
  EXPECT_EQ(events[0].b, 2u);
  EXPECT_EQ(events[1].kind, TraceEvent::Kind::kInstant);
  EXPECT_EQ(events[1].start_ms, events[1].end_ms);
  EXPECT_EQ(events[1].a, 7u);
}

TEST(TracerTest, RingTruncatesOldestFirst) {
  Tracer tracer(4);
  for (TimeMs t = 0; t < 10; ++t) {
    tracer.RecordInstant("tick", t);
  }
  EXPECT_EQ(tracer.capacity(), 4u);
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.recorded(), 10u);
  EXPECT_EQ(tracer.dropped(), 6u);

  // The retained window is the newest four, oldest first.
  const std::vector<TraceEvent> events = tracer.Events();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].start_ms, 6u + i);
  }
}

TEST(TracerTest, ClearResetsEverything) {
  Tracer tracer(2);
  tracer.RecordInstant("x", 1);
  tracer.RecordInstant("x", 2);
  tracer.RecordInstant("x", 3);
  tracer.Clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.recorded(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_TRUE(tracer.Events().empty());
  tracer.RecordInstant("x", 4);
  ASSERT_EQ(tracer.Events().size(), 1u);
  EXPECT_EQ(tracer.Events()[0].start_ms, 4u);
}

// --------------------------------------------------------------- exporters

TEST(ExportTest, PrometheusNameMapping) {
  EXPECT_EQ(PrometheusName("recon.initiator.bytes_sent"),
            "vegvisir_recon_initiator_bytes_sent");
  EXPECT_EQ(PrometheusName("net.message_bytes"), "vegvisir_net_message_bytes");
}

TEST(ExportTest, PrometheusTextGolden) {
  MetricsRegistry registry;
  registry.GetCounter("node.blocks_accepted").Inc(3);
  registry.GetGauge("node.quarantine_size").Set(2);
  Histogram h = registry.GetHistogram("recon.final_level", {1, 2});
  h.Observe(1);
  h.Observe(2);
  h.Observe(5);

  const std::string text = ToPrometheusText(registry.TakeSnapshot());
  EXPECT_EQ(text,
            "# TYPE vegvisir_node_blocks_accepted counter\n"
            "vegvisir_node_blocks_accepted 3\n"
            "# TYPE vegvisir_node_quarantine_size gauge\n"
            "vegvisir_node_quarantine_size 2\n"
            "# TYPE vegvisir_recon_final_level histogram\n"
            "vegvisir_recon_final_level_bucket{le=\"1\"} 1\n"
            "vegvisir_recon_final_level_bucket{le=\"2\"} 2\n"
            "vegvisir_recon_final_level_bucket{le=\"+Inf\"} 3\n"
            "vegvisir_recon_final_level_sum 8\n"
            "vegvisir_recon_final_level_count 3\n");
}

TEST(ExportTest, JsonGolden) {
  MetricsRegistry registry;
  registry.GetCounter("a").Inc(1);
  registry.GetGauge("b").Set(2.5);
  registry.GetHistogram("c", {4}).Observe(3);

  const std::string json = ToJson(registry.TakeSnapshot());
  EXPECT_EQ(json,
            "{\n"
            "  \"counters\": {\n"
            "    \"a\": 1\n"
            "  },\n"
            "  \"gauges\": {\n"
            "    \"b\": 2.5\n"
            "  },\n"
            "  \"histograms\": {\n"
            "    \"c\": {\"bounds\": [4], \"counts\": [1, 0], "
            "\"count\": 1, \"sum\": 3}\n"
            "  }\n"
            "}");
}

TEST(ExportTest, JsonEmptySnapshot) {
  const std::string json = ToJson(Snapshot{});
  EXPECT_EQ(json,
            "{\n"
            "  \"counters\": {},\n"
            "  \"gauges\": {},\n"
            "  \"histograms\": {}\n}");
}

TEST(ExportTest, TraceJsonGolden) {
  Tracer tracer(2);
  tracer.RecordSpan("recon.session", 100, 140, 3, 0);
  tracer.RecordInstant("gossip.tick", 150, 1);
  tracer.RecordInstant("gossip.tick", 160, 1);  // evicts the span

  const std::string json = TraceToJson(tracer);
  EXPECT_EQ(json,
            "{\n"
            "  \"recorded\": 3,\n"
            "  \"dropped\": 1,\n"
            "  \"events\": [\n"
            "    {\"name\": \"gossip.tick\", \"kind\": \"instant\", "
            "\"start_ms\": 150, \"end_ms\": 150, \"a\": 1, \"b\": 0},\n"
            "    {\"name\": \"gossip.tick\", \"kind\": \"instant\", "
            "\"start_ms\": 160, \"end_ms\": 160, \"a\": 1, \"b\": 0}\n"
            "  ]\n"
            "}");
}

// ---------------------------------------------------------------- bench io

TEST(BenchIoTest, WritesValidBenchFile) {
  MetricsRegistry registry;
  registry.GetCounter("recon.initiator.sessions_completed").Inc(4);

  const Status st =
      WriteBenchJson("telemetry_test", registry.TakeSnapshot(),
                     {{"wall_seconds", 1.25}}, ::testing::TempDir());
  ASSERT_TRUE(st.ok()) << st.message();

  const std::string path = ::testing::TempDir() + "/BENCH_telemetry_test.json";
  FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[512];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) content.append(buf, n);
  std::fclose(f);

  EXPECT_NE(content.find("\"bench\": \"telemetry_test\""), std::string::npos);
  EXPECT_NE(content.find("\"wall_seconds\": 1.25"), std::string::npos);
  EXPECT_NE(content.find("\"recon.initiator.sessions_completed\": 4"),
            std::string::npos);
}

// Counter and gauge cells are atomics so exec-pool workers can bump
// them concurrently (DESIGN.md §12). Hammer one cell from many raw
// threads and demand the exact sum — a torn or non-atomic increment
// loses counts under contention.
TEST(CounterTest, ConcurrentHammerSumsExactly) {
  MetricsRegistry registry;
  Counter counter = registry.GetCounter("hammer");
  Gauge gauge = registry.GetGauge("hammer_gauge");
  constexpr int kThreads = 8;
  constexpr int kIncs = 20'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter, &gauge] {
      for (int i = 0; i < kIncs; ++i) {
        counter.Inc();
        gauge.Add(1.0);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(registry.CounterValue("hammer"),
            static_cast<std::uint64_t>(kThreads) * kIncs);
  EXPECT_EQ(registry.GaugeValue("hammer_gauge"),
            static_cast<double>(kThreads) * kIncs);
}

// --------------------------------------------------------------- telemetry

TEST(TelemetryTest, BundleWiresRegistryAndTracer) {
  Telemetry t;
  t.metrics.GetCounter("x").Inc();
  t.trace.RecordInstant("x", 1);
  EXPECT_EQ(t.metrics.CounterValue("x"), 1u);
  EXPECT_EQ(t.trace.recorded(), 1u);
  EXPECT_GE(t.trace.capacity(), 1024u);
}

}  // namespace
}  // namespace vegvisir::telemetry
