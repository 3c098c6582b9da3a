// Observability acceptance for kanond: the /metrics endpoint and the
// --stats-json shutdown snapshot. The metrics payload must be well-formed
// JSON (checked with the strict wire parser, Json::Parse; the encoder's
// literal-byte tests in common_test are the independent check), expose the
// documented serve.* counter/gauge/histogram names, and behave
// monotonically across a scripted request sequence.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>

#include "serve_test_util.h"
#include "test_util.h"

namespace kanon {
namespace {

using serve::Client;
using serve::Json;
using testing::ReadFileOrDie;
using testing::ServeAnonymize;
using testing::SyntheticCsv;
using testing::TestServer;

/// Fetches the raw bytes of a metrics response (pre-decode), so the
/// validator sees exactly what went over the wire.
std::string RawMetricsFrame(Client& client) {
  Status sent = client.SendFrame("{\"id\":9999,\"method\":\"metrics\"}");
  KANON_CHECK(sent.ok(), sent.ToString());
  Result<std::string> raw = client.ReadResponseFrame();
  KANON_CHECK(raw.ok(), raw.status().ToString());
  return *raw;
}

Json MetricsSnapshot(Client& client) {
  return testing::Unwrap(client.Call("metrics", Json::Object()));
}

TEST(ServeMetricsTest, EndpointSchemaAndMonotoneCountersAcrossSequence) {
  TestServer server;
  Client client = server.Connect();
  const std::string csv = SyntheticCsv(20);

  // --- Scripted sequence, part 1: ping + one full job + one verify.
  testing::Unwrap(client.Call("ping", Json::Object()));
  Json publish = Json::Object();
  publish.Set("publish_as", Json::Str("observed"));
  ASSERT_FALSE(ServeAnonymize(client, csv, 2, std::move(publish)).empty());
  Json verify_params = Json::Object();
  verify_params.Set("table", Json::Str("observed"));
  verify_params.Set("k", Json::Number(int64_t{2}));
  testing::Unwrap(client.Call("verify", std::move(verify_params)));

  // The raw wire payload is well-formed JSON by an independent parser.
  const std::string raw = RawMetricsFrame(client);
  EXPECT_TRUE(Json::Parse(raw).ok()) << raw;

  Json first = MetricsSnapshot(client);
  const Json* counters = first.Find("counters");
  const Json* gauges = first.Find("gauges");
  const Json* histograms = first.Find("histograms");
  ASSERT_NE(counters, nullptr) << first.Dump();
  ASSERT_NE(gauges, nullptr) << first.Dump();
  ASSERT_NE(histograms, nullptr) << first.Dump();

  // The documented serve.* surface is present under the right sections.
  for (const char* name :
       {"serve.jobs_accepted", "serve.jobs_rejected", "serve.jobs_completed",
        "serve.jobs_failed", "serve.jobs_degraded", "serve.jobs_cancelled",
        "serve.scheme_cache_hits", "serve.scheme_cache_misses",
        "serve.connections", "serve.requests", "serve.request_errors"}) {
    EXPECT_NE(counters->Find(name), nullptr) << "missing counter " << name;
  }
  for (const char* name :
       {"serve.queue_depth", "serve.jobs_running", "serve.connections_open"}) {
    EXPECT_NE(gauges->Find(name), nullptr) << "missing gauge " << name;
  }
  for (const char* name : {"serve.job_seconds", "serve.request_seconds"}) {
    EXPECT_NE(histograms->Find(name), nullptr) << "missing histogram " << name;
  }

  EXPECT_EQ(counters->GetInt("serve.jobs_accepted", -1), 1);
  EXPECT_EQ(counters->GetInt("serve.jobs_completed", -1), 1);
  EXPECT_EQ(counters->GetInt("serve.jobs_failed", -1), 0);
  EXPECT_GE(counters->GetInt("serve.requests", -1), 5);
  // Steady state between jobs: nothing queued, nothing running.
  EXPECT_EQ(gauges->GetDouble("serve.queue_depth", -1.0), 0.0);
  EXPECT_EQ(gauges->GetDouble("serve.jobs_running", -1.0), 0.0);

  // --- Scripted sequence, part 2: a second identical job must move every
  // relevant counter forward (monotone), including the scheme cache.
  ASSERT_FALSE(ServeAnonymize(client, csv, 2, Json::Object()).empty());
  Json second = MetricsSnapshot(client);
  const Json* counters2 = second.Find("counters");
  ASSERT_NE(counters2, nullptr);
  EXPECT_EQ(counters2->GetInt("serve.jobs_accepted", -1), 2);
  EXPECT_EQ(counters2->GetInt("serve.jobs_completed", -1), 2);
  EXPECT_GT(counters2->GetInt("serve.requests", -1),
            counters->GetInt("serve.requests", -1));
  EXPECT_GE(counters2->GetInt("serve.scheme_cache_hits", -1), 1);
  // Monotonicity sweep: no counter may ever move backwards.
  for (const char* name :
       {"serve.jobs_accepted", "serve.jobs_completed", "serve.requests",
        "serve.connections", "serve.request_errors", "engine.merges"}) {
    EXPECT_GE(counters2->GetInt(name, -1), counters->GetInt(name, -1))
        << name << " went backwards";
  }

  // --- Shutdown via the wire (no signal), then the --stats-json snapshot.
  Json bye = testing::Unwrap(client.CallRaw("shutdown", Json::Object()));
  EXPECT_TRUE(bye.GetBool("ok", false)) << bye.Dump();
  client.Close();
  EXPECT_EQ(server.Wait(), 0) << server.Log();

  const std::string stats = ReadFileOrDie(server.stats_json_path());
  EXPECT_TRUE(Json::Parse(stats).ok()) << stats;
  EXPECT_NE(stats.find("serve.jobs_accepted"), std::string::npos);
  EXPECT_NE(stats.find("serve.request_seconds"), std::string::npos);
}

/// A miniature Prometheus text-format parser: validates the 0.0.4 grammar
/// line by line (HELP/TYPE comments, `name[{labels}] value` samples, legal
/// name charset, numeric values) and returns every sample keyed by its
/// full series name (labels included). Grammar violations fail the test.
void ParseExposition(const std::string& text,
                     std::map<std::string, double>* out) {
  std::map<std::string, double>& samples = *out;
  std::map<std::string, std::string> types;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    if (line.rfind("# HELP ", 0) == 0) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream fields(line.substr(7));
      std::string family, type;
      ASSERT_TRUE(static_cast<bool>(fields >> family >> type)) << line;
      ASSERT_TRUE(type == "counter" || type == "gauge" ||
                  type == "histogram" || type == "summary")
          << line;
      ASSERT_EQ(types.count(family), 0u) << "duplicate TYPE for " << family;
      types[family] = type;
      continue;
    }
    ASSERT_NE(line[0], '#') << "unknown comment form: " << line;
    // Sample: name[{labels}] value
    size_t i = 0;
    ASSERT_TRUE(std::isalpha(static_cast<unsigned char>(line[0])) ||
                line[0] == '_' || line[0] == ':')
        << line;
    while (i < line.size() &&
           (std::isalnum(static_cast<unsigned char>(line[i])) ||
            line[i] == '_' || line[i] == ':')) {
      ++i;
    }
    const std::string name = line.substr(0, i);
    std::string series = name;
    if (i < line.size() && line[i] == '{') {
      const size_t close = line.find('}', i);
      ASSERT_NE(close, std::string::npos) << line;
      const std::string labels = line.substr(i, close - i + 1);
      // Label bodies must be k="v" pairs; quotes must balance.
      ASSERT_EQ(std::count(labels.begin(), labels.end(), '"') % 2, 0) << line;
      ASSERT_NE(labels.find('='), std::string::npos) << line;
      series += labels;
      i = close + 1;
    }
    ASSERT_LT(i, line.size()) << line;
    ASSERT_EQ(line[i], ' ') << line;
    char* end = nullptr;
    const double value = std::strtod(line.c_str() + i + 1, &end);
    ASSERT_EQ(*end, '\0') << "trailing junk in: " << line;
    // A family with samples must have announced its TYPE. Histogram and
    // summary children (_bucket/_sum/_count, quantiles) belong to the
    // parent family.
    bool typed = types.count(name) != 0;
    for (const char* suffix : {"_total", "_bucket", "_sum", "_count"}) {
      const std::string s(suffix);
      if (!typed && name.size() > s.size() &&
          name.compare(name.size() - s.size(), s.size(), s) == 0) {
        typed = types.count(name.substr(0, name.size() - s.size())) != 0;
      }
    }
    if (!typed) typed = types.count(series.substr(0, series.find('{'))) != 0;
    EXPECT_TRUE(typed) << "sample without TYPE: " << line;
    samples[series] = value;
  }
  ASSERT_FALSE(samples.empty()) << "empty exposition";
}

TEST(ServeMetricsTest, PrometheusScrapeIsWellFormedAndMonotone) {
  TestServer server;
  Client client = server.Connect();
  ASSERT_FALSE(
      ServeAnonymize(client, SyntheticCsv(20), 2, Json::Object()).empty());
  const int prom_port = server.prom_port();

  const std::string health = testing::HttpGet(prom_port, "/healthz");
  EXPECT_NE(health.find("HTTP/1.0 200"), std::string::npos) << health;
  EXPECT_EQ(testing::HttpBody(health), "ok\n");

  const std::string scrape = testing::HttpGet(prom_port, "/metrics");
  EXPECT_NE(scrape.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(scrape.find("text/plain; version=0.0.4"), std::string::npos);
  std::map<std::string, double> first;
  ParseExposition(testing::HttpBody(scrape), &first);
  if (HasFatalFailure()) return;

  // The documented scrape surface: counters, the rolling-window summary
  // quantiles, uptime, and build identity.
  EXPECT_EQ(first.at("serve_jobs_completed_total"), 1.0);
  // submit + at least one poll + fetch.
  EXPECT_GE(first.at("serve_requests_total"), 3.0);
  ASSERT_EQ(first.count("serve_request_seconds_window{quantile=\"0.5\"}"), 1u);
  ASSERT_EQ(first.count("serve_request_seconds_window{quantile=\"0.95\"}"),
            1u);
  ASSERT_EQ(first.count("serve_request_seconds_window{quantile=\"0.99\"}"),
            1u);
  EXPECT_GE(first.at("serve_request_seconds_window_count"), 3.0);
  EXPECT_GE(first.at("serve_job_seconds_window_count"), 1.0);
  EXPECT_GT(first.at("serve_uptime_seconds"), 0.0);
  EXPECT_GE(first.at("serve_request_seconds_bucket{le=\"+Inf\"}"),
            first.at("serve_request_seconds_bucket{le=\"0.1\"}"));
  bool saw_build_info = false;
  for (const auto& [series, value] : first) {
    if (series.rfind("kanond_build_info{", 0) == 0) {
      saw_build_info = true;
      EXPECT_EQ(value, 1.0);
      EXPECT_NE(series.find("version=\""), std::string::npos) << series;
    }
  }
  EXPECT_TRUE(saw_build_info);

  // A second scrape after more traffic: counters are monotone, and the
  // scrape itself never perturbs job counters.
  testing::Unwrap(client.Call("ping", Json::Object()));
  std::map<std::string, double> second;
  ParseExposition(testing::HttpBody(testing::HttpGet(prom_port, "/metrics")),
                  &second);
  if (HasFatalFailure()) return;
  for (const auto& [series, value] : first) {
    if (series.find("_total") == std::string::npos) continue;
    ASSERT_EQ(second.count(series), 1u) << series << " vanished";
    EXPECT_GE(second.at(series), value) << series << " went backwards";
  }
  EXPECT_EQ(second.at("serve_jobs_completed_total"), 1.0);

  // Unknown paths 404; the daemon itself is unaffected.
  EXPECT_NE(testing::HttpGet(prom_port, "/nope").find("HTTP/1.0 404"),
            std::string::npos);
  testing::Unwrap(client.Call("ping", Json::Object()));

  Json bye = testing::Unwrap(client.CallRaw("shutdown", Json::Object()));
  EXPECT_TRUE(bye.GetBool("ok", false)) << bye.Dump();
  client.Close();
  EXPECT_EQ(server.Wait(), 0) << server.Log();
  // The exit snapshot carries the nondeterministic sections (rolling
  // windows, build info) the fingerprint export never does.
  const std::string stats = ReadFileOrDie(server.stats_json_path());
  EXPECT_NE(stats.find("serve.request_seconds_window"), std::string::npos);
  EXPECT_NE(stats.find("kanond_build_info"), std::string::npos);
  EXPECT_NE(stats.find("serve.uptime_seconds"), std::string::npos);
}

TEST(ServeMetricsTest, RejectionsAndErrorsAreCounted) {
  TestServer server;
  Client client = server.Connect();
  // serve.request_errors counts protocol- and dispatch-level failures
  // (unparsable frames, unknown methods) — method-level typed errors are
  // normal service answers and are deliberately not error-counted.
  (void)client.CallRaw("frobnicate", Json::Object());
  ASSERT_TRUE(client.SendFrame("{nope").ok());
  ASSERT_TRUE(client.ReadResponseFrame().ok());
  Json snapshot = MetricsSnapshot(client);
  const Json* counters = snapshot.Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_GE(counters->GetInt("serve.request_errors", -1), 2);
  EXPECT_EQ(counters->GetInt("serve.jobs_accepted", -1), 0);
  EXPECT_EQ(server.SignalAndWait(SIGTERM), 0) << server.Log();
}

}  // namespace
}  // namespace kanon
