// The telemetry subsystem's three contracts (docs/observability.md):
//  1. Determinism — lane-0 span structure (names, categories, depths, step
//     clock, items) and the deterministic metrics fingerprint are pure
//     functions of the input, identical at every --threads value; only
//     wall-clock fields and worker lanes may differ.
//  2. Export — ChromeTraceJson emits well-formed trace-event JSON carrying
//     the coordinator/worker lane metadata and the engine phase spans.
//  3. Zero overhead when disabled — with no tracer installed, a PhaseSpan
//     is a no-op: no allocation, no lock.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "kanon/algo/anonymizer.h"
#include "kanon/loss/entropy_measure.h"
#include "kanon/serve/json.h"
#include "kanon/telemetry/flight_recorder.h"
#include "kanon/telemetry/log.h"
#include "kanon/telemetry/metrics.h"
#include "kanon/telemetry/prometheus.h"
#include "kanon/telemetry/rolling.h"
#include "kanon/telemetry/trace_export.h"
#include "kanon/telemetry/tracer.h"
#include "test_util.h"

// Sanitizer builds replace the global allocator; skip the allocation-count
// override (and its test) there rather than fight the interceptors.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define KANON_TEST_SANITIZED 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define KANON_TEST_SANITIZED 1
#endif
#endif

#ifndef KANON_TEST_SANITIZED

// The replacement operator new/delete below are malloc/free-backed on
// purpose (they only count); GCC's heuristic flags every inlined
// delete-after-new in the TU as a new/free mismatch.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {
std::atomic<size_t> g_allocation_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#endif  // KANON_TEST_SANITIZED

namespace kanon {
namespace {

using testing::SmallRandomDataset;
using testing::SmallScheme;
using testing::Unwrap;

// --- Tracer unit behavior. ---------------------------------------------

TEST(TracerTest, LaneZeroSpansTickTheStepClockAndNest) {
  Tracer tracer;
  {
    PhaseSpan outer(&tracer, "outer");
    {
      PhaseSpan inner(&tracer, "inner");
      inner.set_items(7);
    }
  }
  ASSERT_EQ(tracer.num_lanes(), 1u);
  const std::vector<SpanEvent>& events = tracer.lane_events(0);
  ASSERT_EQ(events.size(), 2u);  // Close order: inner first.
  EXPECT_STREQ(events[0].name, "inner");
  EXPECT_EQ(events[0].depth, 1u);
  EXPECT_EQ(events[0].items, 7u);
  EXPECT_STREQ(events[1].name, "outer");
  EXPECT_EQ(events[1].depth, 0u);
  // One tick per open + one per close: outer opens at 1, inner at 2,
  // inner closes at 3, outer at 4.
  EXPECT_EQ(events[1].steps_begin, 1u);
  EXPECT_EQ(events[0].steps_begin, 2u);
  EXPECT_EQ(events[0].steps_end, 3u);
  EXPECT_EQ(events[1].steps_end, 4u);
  EXPECT_GE(events[0].wall_end_us, events[0].wall_begin_us);
}

TEST(TracerTest, CancelSuppressesRecording) {
  Tracer tracer;
  {
    PhaseSpan span(&tracer, "cancelled");
    span.Cancel();
  }
  EXPECT_EQ(tracer.total_spans(), 0u);
}

TEST(TracerTest, SpanCapDropsInsteadOfGrowing) {
  Tracer tracer(/*max_spans=*/2);
  for (int i = 0; i < 5; ++i) {
    PhaseSpan span(&tracer, "probe");
  }
  EXPECT_EQ(tracer.total_spans(), 2u);
  EXPECT_EQ(tracer.dropped_spans(), 3u);
}

TEST(TracerTest, ScopedTelemetryInstallsAndRestores) {
  EXPECT_EQ(CurrentTracer(), nullptr);
  EXPECT_EQ(CurrentMetrics(), nullptr);
  Tracer tracer;
  MetricsRegistry metrics;
  {
    const ScopedTelemetry scope(&tracer, &metrics);
    EXPECT_EQ(CurrentTracer(), &tracer);
    EXPECT_EQ(CurrentMetrics(), &metrics);
    {
      const ScopedTelemetry inner(nullptr, nullptr);
      EXPECT_EQ(CurrentTracer(), nullptr);
    }
    EXPECT_EQ(CurrentTracer(), &tracer);
  }
  EXPECT_EQ(CurrentTracer(), nullptr);
  EXPECT_EQ(CurrentMetrics(), nullptr);
}

// --- Metrics unit behavior. --------------------------------------------

TEST(MetricsTest, CounterGaugeHistogramRoundTrip) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("engine.merges");
  c->Add(3);
  c->Add(2);
  EXPECT_EQ(c->value(), 5u);
  EXPECT_EQ(registry.GetCounter("engine.merges"), c);

  Gauge* g = registry.GetGauge("run.loss");
  g->Set(0.25);
  EXPECT_DOUBLE_EQ(g->value(), 0.25);

  Histogram* h = registry.GetHistogram("cluster.size", {2.0, 4.0, 8.0});
  h->Observe(1.0);   // bucket le=2
  h->Observe(4.0);   // le=4 (inclusive upper bound)
  h->Observe(100.0); // overflow
  EXPECT_EQ(h->count(), 3u);
  EXPECT_DOUBLE_EQ(h->sum(), 105.0);
  const std::vector<uint64_t> buckets = h->bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 1u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 0u);
  EXPECT_EQ(buckets[3], 1u);
  // First registration's bounds win; re-requesting returns the same object.
  EXPECT_EQ(registry.GetHistogram("cluster.size", {1.0}), h);
}

TEST(MetricsTest, NondeterministicMetricsExcludedFromFingerprint) {
  MetricsRegistry registry;
  registry.GetCounter("run.rows")->Set(100);
  registry.GetGauge("run.elapsed_seconds", /*deterministic=*/false)
      ->Set(1.23);
  const std::string full = registry.ToJson(true);
  const std::string fingerprint = registry.ToJson(false);
  EXPECT_NE(full.find("run.elapsed_seconds"), std::string::npos);
  EXPECT_EQ(fingerprint.find("run.elapsed_seconds"), std::string::npos);
  EXPECT_NE(fingerprint.find("run.rows"), std::string::npos);
  EXPECT_TRUE(serve::Json::Parse(full).ok());
  EXPECT_TRUE(serve::Json::Parse(fingerprint).ok());
}

// The exact bytes of both snapshots, so a rewrite of the encoder cannot
// drift the layout, the field order or the number rule unnoticed.
TEST(MetricsTest, ToJsonBytesArePinned) {
  MetricsRegistry registry;
  registry.GetCounter("engine.merges")->Add(5);
  registry.GetCounter("run.wall_ms", /*deterministic=*/false)->Add(12);
  registry.GetGauge("g.three")->Set(3.0);
  registry.GetGauge("g.tenth")->Set(0.1);
  registry.GetGauge("g.big")->Set(1e16);
  Histogram* h = registry.GetHistogram("h.sizes", {0.5, 2.0});
  h->Observe(0.25);
  h->Observe(1.0);
  h->Observe(5.0);
  registry.SetInfo("build_info", {{"version", "1.2.3"}});

  const std::string deterministic_part =
      "{\n"
      "  \"counters\": {\n"
      "    \"engine.merges\": 5\n"
      "  },\n"
      "  \"gauges\": {\n"
      "    \"g.big\": 10000000000000000,\n"
      "    \"g.tenth\": 0.10000000000000001,\n"
      "    \"g.three\": 3\n"
      "  },\n"
      "  \"histograms\": {\n"
      "    \"h.sizes\": {\"count\": 3, \"sum\": 6.25, \"buckets\": "
      "[{\"le\": 0.5, \"count\": 1}, {\"le\": 2, \"count\": 1}, "
      "{\"le\": \"inf\", \"count\": 1}]}\n"
      "  }";
  EXPECT_EQ(registry.ToJson(false), deterministic_part + "\n}\n");
  EXPECT_EQ(registry.ToJson(true),
            "{\n"
            "  \"counters\": {\n"
            "    \"engine.merges\": 5,\n"
            "    \"run.wall_ms\": 12,\n"
            "    \"telemetry.bad_samples\": 0\n"
            "  },\n"
            "  \"gauges\": {\n"
            "    \"g.big\": 10000000000000000,\n"
            "    \"g.tenth\": 0.10000000000000001,\n"
            "    \"g.three\": 3\n"
            "  },\n"
            "  \"histograms\": {\n"
            "    \"h.sizes\": {\"count\": 3, \"sum\": 6.25, \"buckets\": "
            "[{\"le\": 0.5, \"count\": 1}, {\"le\": 2, \"count\": 1}, "
            "{\"le\": \"inf\", \"count\": 1}]}\n"
            "  },\n"
            "  \"rolling\": {},\n"
            "  \"info\": {\n"
            "    \"build_info\": {\"version\": \"1.2.3\"}\n"
            "  }\n"
            "}\n");
}

// JSON has no NaN or infinity literal: every writer prints them as null,
// and huge doubles print in exponent form, so each output still parses.
TEST(JsonEncodingTest, NonFiniteAndHugeNumbersStayParseable) {
  const struct {
    double value;
    const char* text;
  } cases[] = {{std::nan(""), "null"},
               {INFINITY, "null"},
               {-INFINITY, "null"},
               {1e300, "1.0000000000000001e+300"},
               {-0.0, "0"}};
  for (const auto& c : cases) {
    const std::string dumped = serve::Json::Number(c.value).Dump();
    EXPECT_EQ(dumped, c.text);
    EXPECT_TRUE(serve::Json::Parse(dumped).ok()) << dumped;
  }

  MetricsRegistry registry;
  registry.GetGauge("g.nan")->Set(std::nan(""));
  for (const bool full : {false, true}) {
    const std::string json = registry.ToJson(full);
    Result<serve::Json> parsed = serve::Json::Parse(json);
    ASSERT_TRUE(parsed.ok()) << json;
    EXPECT_TRUE(parsed->Find("gauges")->Find("g.nan")->is_null()) << json;
  }

  const LogField field = LogField::Dbl("seconds", INFINITY);
  const std::string line =
      log_internal::RenderLine(1.5, LogLevel::kInfo, "e", &field, 1);
  Result<serve::Json> parsed = serve::Json::Parse(line);
  ASSERT_TRUE(parsed.ok()) << line;
  EXPECT_TRUE(parsed->Find("seconds")->is_null()) << line;
}

// --- Bad-sample guard: NaN/negative observations cannot poison sums. ---

TEST(MetricsTest, HistogramClampsBadSamplesAndCountsThem) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("probe.seconds", {1.0, 2.0});
  h->Observe(0.5);
  h->Observe(std::nan(""));
  h->Observe(-3.0);
  // Clamped samples still count (a sample happened), land in the first
  // bucket as 0.0, and add nothing to the sum.
  EXPECT_EQ(h->count(), 3u);
  EXPECT_DOUBLE_EQ(h->sum(), 0.5);
  EXPECT_EQ(h->bucket_counts()[0], 3u);
  EXPECT_EQ(registry.GetCounter("telemetry.bad_samples")->value(), 2u);
  // The guard counter is wall-clock-class: never in the fingerprint.
  EXPECT_EQ(registry.ToJson(false).find("telemetry.bad_samples"),
            std::string::npos);
}

// --- Rolling-window histograms. ----------------------------------------

TEST(RollingHistogramTest, QuantilesOverTheTrailingWindowOnly) {
  RollingHistogram rolling({0.001, 0.01, 0.1, 1.0}, /*window_seconds=*/60.0,
                           /*num_slots=*/12);
  // 90 old observations at t=1s, 10 recent ones at t=70s: the old slot
  // epoch has fallen out of the 60s window by t=70.
  for (int i = 0; i < 90; ++i) rolling.ObserveAt(0.5, 1.0);
  for (int i = 0; i < 10; ++i) rolling.ObserveAt(0.005, 70.0);
  const RollingHistogram::Snapshot now = rolling.SnapAt(70.0);
  EXPECT_EQ(now.count, 10u);
  EXPECT_DOUBLE_EQ(now.sum, 10 * 0.005);
  EXPECT_DOUBLE_EQ(now.p50, 0.01);
  EXPECT_DOUBLE_EQ(now.p99, 0.01);
  // At t=30 both populations were still in-window and the old one
  // dominated every quantile.
  RollingHistogram both({0.001, 0.01, 0.1, 1.0}, 60.0, 12);
  for (int i = 0; i < 90; ++i) both.ObserveAt(0.5, 1.0);
  for (int i = 0; i < 10; ++i) both.ObserveAt(0.005, 20.0);
  const RollingHistogram::Snapshot mixed = both.SnapAt(30.0);
  EXPECT_EQ(mixed.count, 100u);
  EXPECT_DOUBLE_EQ(mixed.p50, 1.0);
  EXPECT_DOUBLE_EQ(mixed.p95, 1.0);
}

TEST(RollingHistogramTest, BadSamplesClampAndCount) {
  MetricsRegistry registry;
  RollingHistogram* rolling =
      registry.GetRollingHistogram("probe.window", {1.0, 2.0});
  rolling->Observe(std::nan(""));
  rolling->Observe(-1.0);
  const RollingHistogram::Snapshot snap = rolling->Snap();
  EXPECT_EQ(snap.count, 2u);
  EXPECT_DOUBLE_EQ(snap.sum, 0.0);
  EXPECT_EQ(registry.GetCounter("telemetry.bad_samples")->value(), 2u);
}

TEST(RollingHistogramTest, FingerprintInvariantWhileRollingMetricsActive) {
  MetricsRegistry registry;
  registry.GetCounter("run.rows")->Set(100);
  const std::string before = registry.ToJson(false);
  // Rolling histograms, info metrics, and the bad-samples guard counter
  // are all wall-clock-derived: none may perturb the deterministic
  // fingerprint.
  registry.GetRollingHistogram("serve.request_seconds_window", {0.1, 1.0})
      ->Observe(0.05);
  registry.GetRollingHistogram("serve.request_seconds_window", {0.1, 1.0})
      ->Observe(std::nan(""));  // telemetry.bad_samples ticks.
  registry.SetInfo("kanond_build_info", {{"version", "1.2.3"}});
  EXPECT_EQ(registry.ToJson(false), before);
  // The full export does carry them.
  const std::string full = registry.ToJson(true);
  EXPECT_TRUE(serve::Json::Parse(full).ok());
  EXPECT_NE(full.find("serve.request_seconds_window"), std::string::npos);
  EXPECT_NE(full.find("kanond_build_info"), std::string::npos);
}

// --- Structured logging. -----------------------------------------------

TEST(LoggerTest, WritesParseableJsonLinesWithTypedFields) {
  char path_template[] = "/tmp/kanon_log_XXXXXX";
  const int fd = ::mkstemp(path_template);
  ASSERT_GE(fd, 0);
  ::close(fd);
  const std::string path = path_template;
  {
    Logger::Options options;
    options.min_level = LogLevel::kDebug;
    auto logger = Logger::Open(path, options);
    ASSERT_TRUE(logger.ok()) << logger.status().ToString();
    KANON_LOG_EVENT(logger->get(), nullptr, LogLevel::kInfo, "job.admitted",
                    LogField::U64("job_id", 3),
                    LogField::Str("method", "agglomerative"),
                    LogField::Dbl("seconds", 0.25),
                    LogField::Bool("degraded", false),
                    LogField::Int("delta", -2));
    // Below min_level with no flight recorder: the macro short-circuits.
    Logger::Options quiet = options;
    quiet.min_level = LogLevel::kWarn;
    auto warn_logger = Logger::Open(path, quiet);
    ASSERT_TRUE(warn_logger.ok());
    KANON_LOG_EVENT(warn_logger->get(), nullptr, LogLevel::kDebug, "ignored");
  }
  std::ifstream input(path);
  std::string line;
  ASSERT_TRUE(std::getline(input, line));
  EXPECT_TRUE(serve::Json::Parse(line).ok()) << line;
  EXPECT_NE(line.find("\"level\":\"info\""), std::string::npos);
  EXPECT_NE(line.find("\"event\":\"job.admitted\""), std::string::npos);
  EXPECT_NE(line.find("\"job_id\":3"), std::string::npos);
  EXPECT_NE(line.find("\"method\":\"agglomerative\""), std::string::npos);
  EXPECT_NE(line.find("\"degraded\":false"), std::string::npos);
  EXPECT_NE(line.find("\"delta\":-2"), std::string::npos);
  EXPECT_NE(line.find("\"ts\":"), std::string::npos);
  EXPECT_FALSE(std::getline(input, line)) << "ignored record was written";
  ::unlink(path.c_str());
}

TEST(LoggerTest, RateLimitDropsAndSummarizes) {
  char path_template[] = "/tmp/kanon_log_XXXXXX";
  const int fd = ::mkstemp(path_template);
  ASSERT_GE(fd, 0);
  ::close(fd);
  const std::string path = path_template;
  {
    Logger::Options options;
    options.rate_limit_per_sec = 200.0;
    options.burst = 1.0;
    auto opened = Logger::Open(path, options);
    ASSERT_TRUE(opened.ok());
    Logger* logger = opened->get();
    // Burst of 1: the first record is admitted, a tight burst behind it
    // is mostly dropped.
    for (int i = 0; i < 50; ++i) {
      logger->Log(LogLevel::kInfo, "storm", {LogField::Int("i", i)});
    }
    EXPECT_GT(logger->dropped(), 0u);
    // After a refill pause the next record is admitted, preceded by the
    // one-line summary of what was lost.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    logger->Log(LogLevel::kInfo, "after.storm", {});
  }
  std::ifstream input(path);
  std::string line;
  bool saw_summary = false;
  bool saw_after = false;
  while (std::getline(input, line)) {
    EXPECT_TRUE(serve::Json::Parse(line).ok()) << line;
    if (line.find("log.rate_limited") != std::string::npos) {
      saw_summary = true;
      EXPECT_NE(line.find("\"dropped\":"), std::string::npos);
    }
    if (line.find("after.storm") != std::string::npos) saw_after = true;
  }
  EXPECT_TRUE(saw_summary);
  EXPECT_TRUE(saw_after);
  ::unlink(path.c_str());
}

// --- Flight recorder. --------------------------------------------------

TEST(FlightRecorderTest, RingKeepsTheMostRecentLinesOldestFirst) {
  FlightRecorder recorder(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    recorder.RecordLine("{\"event\":\"e" + std::to_string(i) + "\"}");
  }
  EXPECT_EQ(recorder.total_recorded(), 10u);
  EXPECT_EQ(recorder.capacity(), 4u);
  const std::vector<std::string> lines = recorder.Snapshot();
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines.front(), "{\"event\":\"e6\"}");
  EXPECT_EQ(lines.back(), "{\"event\":\"e9\"}");
}

TEST(FlightRecorderTest, OversizedLinesBecomeAMarkerNotTornJson) {
  FlightRecorder recorder(/*capacity=*/2);
  recorder.RecordLine(std::string(FlightRecorder::kMaxLineBytes + 100, 'x'));
  const std::vector<std::string> lines = recorder.Snapshot();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(serve::Json::Parse(lines[0]).ok()) << lines[0];
  EXPECT_NE(lines[0].find("flight.oversized"), std::string::npos);
}

TEST(FlightRecorderTest, DumpToFdWritesEveryHeldLine) {
  FlightRecorder recorder(/*capacity=*/8);
  LogEvent(nullptr, &recorder, LogLevel::kError, "job.failed",
           {LogField::U64("job_id", 7)});
  LogEvent(nullptr, &recorder, LogLevel::kInfo, "job.done",
           {LogField::U64("job_id", 8)});
  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  recorder.DumpToFd(::fileno(tmp));
  std::fflush(tmp);
  std::rewind(tmp);
  char buffer[4096] = {0};
  const size_t read = std::fread(buffer, 1, sizeof(buffer) - 1, tmp);
  std::fclose(tmp);
  const std::string dump(buffer, read);
  std::istringstream lines(dump);
  std::string line;
  size_t count = 0;
  while (std::getline(lines, line)) {
    EXPECT_TRUE(serve::Json::Parse(line).ok()) << line;
    ++count;
  }
  EXPECT_EQ(count, 2u);
  EXPECT_NE(dump.find("job.failed"), std::string::npos);
  EXPECT_NE(dump.find("\"job_id\":8"), std::string::npos);
}

// --- Prometheus text exposition. ---------------------------------------

TEST(PrometheusTest, ExportsEveryMetricClassInTextFormat) {
  MetricsRegistry registry;
  registry.GetCounter("serve.requests")->Add(3);
  registry.GetGauge("serve.queue_depth")->Set(2.0);
  Histogram* h = registry.GetHistogram("serve.request_seconds", {0.1, 1.0});
  h->Observe(0.05);
  h->Observe(0.5);
  h->Observe(5.0);
  registry.GetRollingHistogram("serve.request_seconds_window", {0.1, 1.0})
      ->Observe(0.05);
  registry.SetInfo("kanond_build_info",
                   {{"version", "1.2.3"}, {"git", "abc\"def"}});
  const std::string text = WritePrometheusText(registry);

  // Counters: _total suffix, TYPE line first.
  EXPECT_NE(text.find("# TYPE serve_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("serve_requests_total 3"), std::string::npos);
  // Histograms: cumulative buckets ending at +Inf == count.
  EXPECT_NE(text.find("serve_request_seconds_bucket{le=\"0.1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("serve_request_seconds_bucket{le=\"1\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("serve_request_seconds_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("serve_request_seconds_count 3"), std::string::npos);
  // Rolling: summary quantiles.
  EXPECT_NE(text.find("# TYPE serve_request_seconds_window summary"),
            std::string::npos);
  EXPECT_NE(
      text.find("serve_request_seconds_window{quantile=\"0.5\"} 0.1"),
      std::string::npos);
  EXPECT_NE(text.find("serve_request_seconds_window_count 1"),
            std::string::npos);
  // Info: constant-1 gauge with escaped label values.
  EXPECT_NE(
      text.find("kanond_build_info{version=\"1.2.3\",git=\"abc\\\"def\"} 1"),
      std::string::npos);
  // Every line is either a comment or `name[{labels}] value`.
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    if (line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_TRUE(std::isalpha(static_cast<unsigned char>(line[0])) ||
                line[0] == '_')
        << line;
  }
}

// --- The determinism contract across thread counts. --------------------

// The lane-0 structural fingerprint: everything except wall clock.
std::string LaneZeroFingerprint(const Tracer& tracer) {
  std::ostringstream out;
  for (const SpanEvent& event : tracer.lane_events(0)) {
    out << event.name << '|' << event.category << '|' << event.depth << '|'
        << event.steps_begin << '|' << event.steps_end << '|' << event.items
        << '\n';
  }
  return out.str();
}

TEST(TelemetryDeterminismTest, LaneZeroSpansAndMetricsIdenticalAcrossThreads) {
  const auto scheme = SmallScheme();
  const Dataset d = SmallRandomDataset(*scheme, 150, 20260807);
  const PrecomputedLoss loss(scheme, d, EntropyMeasure());
  const AnonymizationMethod methods[] = {
      AnonymizationMethod::kAgglomerative,
      AnonymizationMethod::kModifiedAgglomerative,
      AnonymizationMethod::kKKGreedyExpansion,
      AnonymizationMethod::kKKNearestNeighbors,
      AnonymizationMethod::kGlobal,
      AnonymizationMethod::kFullDomain,
  };
  for (AnonymizationMethod method : methods) {
    std::string baseline_spans;
    std::string baseline_metrics;
    for (int threads : {1, 2, 4}) {
      Tracer tracer;
      MetricsRegistry metrics;
      AnonymizerConfig config;
      config.k = 5;
      config.method = method;
      config.num_threads = threads;
      config.tracer = &tracer;
      config.metrics = &metrics;
      Unwrap(Anonymize(d, loss, config));
      ASSERT_GT(tracer.total_spans(), 0u)
          << AnonymizationMethodName(method);
      const std::string spans = LaneZeroFingerprint(tracer);
      const std::string fingerprint =
          metrics.ToJson(/*include_nondeterministic=*/false);
      if (threads == 1) {
        baseline_spans = spans;
        baseline_metrics = fingerprint;
      } else {
        EXPECT_EQ(spans, baseline_spans)
            << AnonymizationMethodName(method)
            << " lane-0 spans diverged at --threads " << threads;
        EXPECT_EQ(fingerprint, baseline_metrics)
            << AnonymizationMethodName(method)
            << " metrics fingerprint diverged at --threads " << threads;
      }
    }
  }
}

TEST(TelemetryDeterminismTest, RunsSharingARegistryAddUpTheirCounters) {
  // kanond and the sharded driver publish every run into one registry, so
  // its engine.* and run.* counters must sum the runs, not keep the last.
  const auto scheme = SmallScheme();
  const Dataset d = SmallRandomDataset(*scheme, 60, 11);
  const PrecomputedLoss loss(scheme, d, EntropyMeasure());
  MetricsRegistry metrics;
  AnonymizerConfig config;
  config.k = 3;
  config.metrics = &metrics;
  const AnonymizationResult first = Unwrap(Anonymize(d, loss, config));
  ASSERT_GT(first.counters.merges, 0u);
  EXPECT_EQ(metrics.GetCounter("engine.merges")->value(),
            first.counters.merges);
  EXPECT_EQ(metrics.GetCounter("run.rows")->value(), d.num_rows());
  Unwrap(Anonymize(d, loss, config));
  EXPECT_EQ(metrics.GetCounter("engine.merges")->value(),
            2 * first.counters.merges);
  EXPECT_EQ(metrics.GetCounter("run.rows")->value(), 2 * d.num_rows());
}

TEST(TelemetryDeterminismTest, WorkerLanesAppearUnderParallelRuns) {
  const auto scheme = SmallScheme();
  const Dataset d = SmallRandomDataset(*scheme, 200, 11);
  const PrecomputedLoss loss(scheme, d, EntropyMeasure());
  Tracer tracer;
  AnonymizerConfig config;
  config.k = 5;
  config.method = AnonymizationMethod::kAgglomerative;
  config.num_threads = 4;
  config.tracer = &tracer;
  Unwrap(Anonymize(d, loss, config));
  // Lane 0 is the coordinator and always present. How many pool workers
  // actually claim chunks is scheduling-dependent (on a single-core box the
  // coordinator regularly drains every chunk itself, and zero-work stints
  // are suppressed), so worker lanes are validated only when they appear:
  // every span on a lane >= 1 must be a "worker" stint that claimed chunks.
  ASSERT_GE(tracer.num_lanes(), 1u);
  bool saw_sweep = false;
  for (const SpanEvent& event : tracer.lane_events(0)) {
    if (std::string(event.category) == "sweep") saw_sweep = true;
  }
  EXPECT_TRUE(saw_sweep);
  for (size_t lane = 1; lane < tracer.num_lanes(); ++lane) {
    for (const SpanEvent& event : tracer.lane_events(lane)) {
      EXPECT_STREQ(event.category, "worker") << "lane " << lane;
      EXPECT_GT(event.items, 0u) << "lane " << lane;
      EXPECT_EQ(event.lane, lane);
    }
  }
}

// --- Chrome trace export schema. ---------------------------------------

TEST(TraceExportTest, ChromeTraceJsonIsWellFormedAndCarriesThePhases) {
  const auto scheme = SmallScheme();
  const Dataset d = SmallRandomDataset(*scheme, 120, 3);
  const PrecomputedLoss loss(scheme, d, EntropyMeasure());
  Tracer tracer;
  AnonymizerConfig config;
  config.k = 4;
  config.method = AnonymizationMethod::kAgglomerative;
  config.num_threads = 2;
  config.tracer = &tracer;
  Unwrap(Anonymize(d, loss, config));

  const std::string json = ChromeTraceJson(tracer);
  EXPECT_TRUE(serve::Json::Parse(json).ok()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"coordinator\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("pipeline/agglomerative"), std::string::npos);
  EXPECT_NE(json.find("agglomerative/heap-drain"), std::string::npos);
  EXPECT_NE(json.find("\"steps_begin\""), std::string::npos);
  EXPECT_EQ(json.find("kanonDroppedSpans"), std::string::npos);
}

TEST(TraceExportTest, SpanNamesAndCategoriesAreEscaped) {
  Tracer tracer;
  { PhaseSpan span(&tracer, "say \"hi\"\\x", "c\"t"); }
  const std::string json = ChromeTraceJson(tracer);
  Result<serve::Json> parsed = serve::Json::Parse(json);
  ASSERT_TRUE(parsed.ok()) << json;
  const serve::Json* span = nullptr;
  for (const serve::Json& event : parsed->Find("traceEvents")->array_items()) {
    if (event.GetString("ph", "") == "X") span = &event;
  }
  ASSERT_NE(span, nullptr) << json;
  EXPECT_EQ(span->GetString("name", ""), "say \"hi\"\\x");
  EXPECT_EQ(span->GetString("cat", ""), "c\"t");
}

TEST(TraceExportTest, MetricsJsonIsWellFormed) {
  const auto scheme = SmallScheme();
  const Dataset d = SmallRandomDataset(*scheme, 100, 5);
  const PrecomputedLoss loss(scheme, d, EntropyMeasure());
  MetricsRegistry metrics;
  AnonymizerConfig config;
  config.k = 4;
  config.method = AnonymizationMethod::kKKGreedyExpansion;
  config.metrics = &metrics;
  Unwrap(Anonymize(d, loss, config));
  const std::string json = metrics.ToJson(true);
  EXPECT_TRUE(serve::Json::Parse(json).ok()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"engine.closure_hits\""), std::string::npos);
  EXPECT_NE(json.find("\"run.loss\""), std::string::npos);
  EXPECT_NE(json.find("\"cluster.size\""), std::string::npos);
  EXPECT_NE(json.find("\"le\""), std::string::npos);
}

// --- Disabled mode: no allocation, no recording. -----------------------

TEST(TelemetryOffTest, NullTracerSpansAllocateNothing) {
#ifdef KANON_TEST_SANITIZED
  GTEST_SKIP() << "allocation counting is disabled under sanitizers";
#else
  ASSERT_EQ(CurrentTracer(), nullptr);
  const size_t before = g_allocation_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    PhaseSpan span(CurrentTracer(), "telemetry-off-probe");
    span.set_items(static_cast<uint64_t>(i));
  }
  EXPECT_EQ(g_allocation_count.load(std::memory_order_relaxed), before);
#endif
}

}  // namespace
}  // namespace kanon
