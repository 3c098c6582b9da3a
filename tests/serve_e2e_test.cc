// End-to-end acceptance of the kanond service (docs/serving.md): a real
// daemon child process on an ephemeral port, driven over the wire, must
// produce tables BYTE-IDENTICAL to what kanon_cli computes for the same
// (input, spec, k, method) — the service is a serving layer over the exact
// same pipelines, not a reimplementation. On top of byte-identity, the
// read path (verify/attack against published tables) must answer the
// paper's Definition 4.1/4.4 checks and the Section IV-A match-reduction
// attack, and the scheme cache must actually hit on resubmission.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "kanon/algo/anonymizer.h"
#include "kanon/data/csv.h"
#include "kanon/datasets/art.h"
#include "kanon/generalization/generalized_csv.h"
#include "kanon/generalization/scheme_spec.h"
#include "kanon/loss/entropy_measure.h"
#include "serve_test_util.h"
#include "test_util.h"

namespace kanon {
namespace {

using serve::Client;
using serve::Json;
using testing::CliAnonymize;
using testing::ReadFileOrDie;
using testing::ServeAnonymize;
using testing::SubmitJob;
using testing::SyntheticCsv;
using testing::TestServer;

// One run request in the vocabulary both tools read: param names as the
// wire spells them, values as text.
struct RunRow {
  size_t k;
  std::vector<std::pair<std::string, std::string>> fields;
  int cli_exit = 0;  // 3 for a degraded run.
};

// The row as kanon_cli flags: dashed names, --attr-weights=2,1.
std::vector<std::string> RowFlags(const RunRow& row) {
  std::vector<std::string> flags;
  for (const auto& [param, value] : row.fields) {
    std::string flag = param;
    std::replace(flag.begin(), flag.end(), '_', '-');
    flags.push_back("--" + flag + "=" + value);
  }
  return flags;
}

// The row as submit params: counts are numbers, weights a JSON array.
Json RowParams(const RunRow& row) {
  Json params = Json::Object();
  for (const auto& [param, value] : row.fields) {
    if (param == "max_steps" || param == "timeout_ms") {
      params.Set(param, Json::Number(int64_t{std::stoll(value)}));
    } else if (param == "attr_weights") {
      Json weights = Json::Array();
      std::istringstream list(value);
      for (std::string w; std::getline(list, w, ',');) {
        weights.Push(Json::Number(std::stod(w)));
      }
      params.Set(param, std::move(weights));
    } else {
      params.Set(param, Json::Str(value));
    }
  }
  return params;
}

// ART n=200 as CSV text, and its hierarchies as spec text: rows on which
// distances (10) and (11) publish different tables.
std::pair<std::string, std::string> ArtCsvAndSpec() {
  const Workload art = testing::Unwrap(MakeArtWorkload(200, 1));
  std::ostringstream csv;
  KANON_CHECK(WriteCsv(art.dataset, csv).ok(), "cannot write ART csv");
  return {csv.str(), FormatSchemeSpec(*art.scheme)};
}

// kanon_cli and kanond read one run vocabulary: every method, distance and
// measure, weights and a step budget publish the same bytes from both.
TEST(ServeE2eTest, EveryRunRequestByteIdenticalToCli) {
  TestServer server;
  Client client = server.Connect();
  const auto [csv, spec] = ArtCsvAndSpec();
  std::vector<RunRow> rows = {{5, {}}, {2, {}}};
  for (const char* method : {"agglomerative", "modified", "forest", "kk-nn",
                             "kk-greedy", "global", "full-domain"}) {
    rows.push_back({5, {{"method", method}}});
  }
  for (const char* distance : {"1", "2", "3", "4", "nc"}) {
    rows.push_back({5, {{"distance", distance}}});
    rows.push_back({5, {{"method", "modified"}, {"distance", distance}}});
  }
  for (const char* measure : {"EM", "LM", "TM", "SUP"}) {
    rows.push_back({5, {{"measure", measure}}});
  }
  rows.push_back({5, {{"attr_weights", "4,1,1,1,1,2"}}});
  rows.push_back({5,
                  {{"method", "kk-greedy"},
                   {"measure", "LM"},
                   {"attr_weights", "1,0,2,1,1,1"}}});
  rows.push_back({5, {{"max_steps", "1"}}, 3});
  rows.push_back({5, {{"method", "global"}, {"max_steps", "1"}}, 3});
  for (const RunRow& row : rows) {
    const std::vector<std::string> flags = RowFlags(row);
    std::string trace = "k=" + std::to_string(row.k);
    for (const std::string& flag : flags) trace += " " + flag;
    SCOPED_TRACE(trace);
    Json params = RowParams(row);
    params.Set("spec", Json::Str(spec));
    const std::string from_serve =
        ServeAnonymize(client, csv, row.k, std::move(params));
    const std::string from_cli =
        CliAnonymize(server.dir(), csv, spec, row.k, flags, row.cli_exit);
    EXPECT_EQ(from_serve, from_cli);
    EXPECT_FALSE(from_serve.empty());
  }

  // The library's defaults are the tools' defaults: kanon_cli --k=5 with no
  // other run flag publishes what Anonymize does with AnonymizerConfig{}
  // plus k=5 under EM.
  const Dataset dataset = testing::Unwrap(ReadCsvInferSchemaText(csv));
  std::istringstream spec_text(spec);
  const auto scheme = std::make_shared<const GeneralizationScheme>(
      testing::Unwrap(ParseSchemeSpec(dataset.schema(), spec_text)));
  const PrecomputedLoss loss(scheme, dataset, EntropyMeasure());
  AnonymizerConfig config;
  config.k = 5;
  std::ostringstream from_library;
  ASSERT_TRUE(WriteGeneralizedCsv(
                  testing::Unwrap(Anonymize(dataset, loss, config)).table,
                  from_library)
                  .ok());
  EXPECT_EQ(CliAnonymize(server.dir(), csv, spec, 5, {}), from_library.str());
}

TEST(ServeE2eTest, KkGreedyWithHierarchySpecByteIdenticalToCli) {
  TestServer server;
  Client client = server.Connect();
  const std::string csv = ReadFileOrDie(std::string(KANON_TESTDATA_DIR) +
                                        "/demo.csv");
  const std::string spec = ReadFileOrDie(std::string(KANON_TESTDATA_DIR) +
                                         "/demo.spec");
  Json params = Json::Object();
  params.Set("spec", Json::Str(spec));
  params.Set("method", Json::Str("kk-greedy"));
  const std::string from_serve = ServeAnonymize(client, csv, 2, params);
  const std::string from_cli =
      CliAnonymize(server.dir(), csv, spec, 2, {"--method=kk-greedy"});
  EXPECT_EQ(from_serve, from_cli);
}

TEST(ServeE2eTest, PollReportsTerminalOutcomeFields) {
  TestServer server;
  Client client = server.Connect();
  const uint64_t job_id =
      SubmitJob(client, SyntheticCsv(24), 2, Json::Object());
  Json final_state = testing::Unwrap(client.WaitJob(job_id));
  EXPECT_EQ(final_state.GetString("state", ""), "done");
  EXPECT_EQ(final_state.GetInt("job_id", -1),
            static_cast<int64_t>(job_id));
  EXPECT_EQ(final_state.GetInt("rows", -1), 24);
  EXPECT_GT(final_state.GetDouble("loss", -1.0), 0.0);
  EXPECT_FALSE(final_state.GetBool("degraded", true));
  EXPECT_EQ(final_state.GetString("stop_reason", ""), "none");
  EXPECT_GT(final_state.GetInt("iterations_completed", -1), 0);
}

TEST(ServeE2eTest, PublishedTableAnswersVerifyAndAttack) {
  TestServer server;
  Client client = server.Connect();
  Json submit_params = Json::Object();
  submit_params.Set("publish_as", Json::Str("synth"));
  const std::string table =
      ServeAnonymize(client, SyntheticCsv(36), 3, std::move(submit_params));
  ASSERT_FALSE(table.empty());

  // Definition 4.1 and the (k,1) side of 4.4 hold for an agglomerative
  // k=3 table; (1,k) holds as well (suppression-only hierarchies).
  for (const char* notion : {"k-anonymity", "k1", "1k", "kk"}) {
    SCOPED_TRACE(notion);
    Json params = Json::Object();
    params.Set("table", Json::Str("synth"));
    params.Set("k", Json::Number(int64_t{3}));
    params.Set("notion", Json::Str(notion));
    Json verdict = testing::Unwrap(client.Call("verify", std::move(params)));
    EXPECT_TRUE(verdict.GetBool("satisfied", false)) << verdict.Dump();
  }
  // An absurd k must be refused-by-witness, not refused-by-error.
  Json params = Json::Object();
  params.Set("table", Json::Str("synth"));
  params.Set("k", Json::Number(int64_t{1000}));
  Json verdict = testing::Unwrap(client.Call("verify", std::move(params)));
  EXPECT_FALSE(verdict.GetBool("satisfied", true));
  EXPECT_FALSE(verdict.GetString("witness", "").empty());

  // The second adversary of Section IV-A: no record may be pinned below k
  // matches on a table the service itself anonymized at k=3.
  Json attack_params = Json::Object();
  attack_params.Set("table", Json::Str("synth"));
  attack_params.Set("k", Json::Number(int64_t{3}));
  Json attack =
      testing::Unwrap(client.Call("attack", std::move(attack_params)));
  EXPECT_GE(attack.GetInt("min_matches", 0), 3);
  EXPECT_EQ(attack.GetInt("breached", -1), 0);
  EXPECT_EQ(attack.GetInt("reidentified", -1), 0);
}

TEST(ServeE2eTest, RegisteredCliOutputVerifiesOverTheWire) {
  TestServer server;
  Client client = server.Connect();
  const std::string csv = SyntheticCsv(30);
  const std::string generalized =
      CliAnonymize(server.dir(), csv, "", 2, {});
  Json params = Json::Object();
  params.Set("name", Json::Str("cli-made"));
  params.Set("csv", Json::Str(csv));
  params.Set("generalized_csv", Json::Str(generalized));
  Json registered =
      testing::Unwrap(client.Call("register_table", std::move(params)));
  EXPECT_EQ(registered.GetInt("rows", -1), 30);

  Json verify_params = Json::Object();
  verify_params.Set("table", Json::Str("cli-made"));
  verify_params.Set("k", Json::Number(int64_t{2}));
  Json verdict =
      testing::Unwrap(client.Call("verify", std::move(verify_params)));
  EXPECT_TRUE(verdict.GetBool("satisfied", false)) << verdict.Dump();
}

// Nothing on the wire removes a published table, so a full store must say
// what it still accepts: its bound, and re-registration of a known name.
// A job publishing into the full store still finishes; only the publish
// step reports the refusal.
TEST(ServeE2eTest, FullTableStoreAcceptsOnlyReRegistrations) {
  TestServer server({{"--tables=2"}, {}});
  Client client = server.Connect();
  const std::string csv = SyntheticCsv(30);
  const std::string generalized =
      CliAnonymize(server.dir(), csv, "", 2, {});
  const auto register_params = [&](const char* name) {
    Json params = Json::Object();
    params.Set("name", Json::Str(name));
    params.Set("csv", Json::Str(csv));
    params.Set("generalized_csv", Json::Str(generalized));
    return params;
  };
  testing::Unwrap(client.Call("register_table", register_params("first")));
  testing::Unwrap(client.Call("register_table", register_params("second")));

  Json refused = testing::Unwrap(
      client.CallRaw("register_table", register_params("third")));
  const Json* error = refused.Find("error");
  ASSERT_NE(error, nullptr) << refused.Dump();
  EXPECT_EQ(error->GetString("code", ""), "overloaded");
  const std::string message = error->GetString("message", "");
  EXPECT_NE(message.find("at most 2 tables"), std::string::npos) << message;
  EXPECT_NE(message.find("re-registering an existing name"),
            std::string::npos)
      << message;

  Json replaced = testing::Unwrap(
      client.Call("register_table", register_params("first")));
  EXPECT_EQ(replaced.GetInt("tables", -1), 2);

  Json submit_params = Json::Object();
  submit_params.Set("publish_as", Json::Str("fourth"));
  const uint64_t job_id = SubmitJob(client, csv, 2, std::move(submit_params));
  Json final_state = testing::Unwrap(client.WaitJob(job_id));
  EXPECT_EQ(final_state.GetString("state", ""), "done") << final_state.Dump();
  EXPECT_NE(final_state.GetString("error", "").find("publish failed"),
            std::string::npos)
      << final_state.Dump();
}

TEST(ServeE2eTest, CaptureTraceRoundTripsAChromeTrace) {
  TestServer server;
  Client client = server.Connect();
  const std::string csv = SyntheticCsv(32);

  // A traced job and an untraced one, back to back: tracing must not
  // change the output bytes.
  Json traced_params = Json::Object();
  traced_params.Set("capture_trace", Json::Bool(true));
  const std::string traced_out =
      ServeAnonymize(client, csv, 2, std::move(traced_params));
  const std::string untraced_out =
      ServeAnonymize(client, csv, 2, Json::Object());
  EXPECT_EQ(traced_out, untraced_out);
  EXPECT_EQ(traced_out, CliAnonymize(server.dir(), csv, "", 2, {}));

  // fetch_trace on the traced job: well-formed Chrome trace JSON carrying
  // the engine's phase spans.
  Json params = Json::Object();
  params.Set("job_id", Json::Number(int64_t{1}));
  Json fetched = testing::Unwrap(client.Call("fetch_trace", params));
  const std::string trace = fetched.GetString("trace", "");
  ASSERT_FALSE(trace.empty());
  EXPECT_TRUE(Json::Parse(trace).ok()) << trace.substr(0, 400);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"coordinator\""), std::string::npos);
  EXPECT_NE(trace.find("pipeline/agglomerative"), std::string::npos);
  // Refetching is idempotent (the LRU keeps it hot).
  Json again = testing::Unwrap(client.Call("fetch_trace", params));
  EXPECT_EQ(again.GetString("trace", ""), trace);

  // The untraced job answers with a typed error, not a crash or an empty
  // blob; so does an unknown id.
  Json untraced = Json::Object();
  untraced.Set("job_id", Json::Number(int64_t{2}));
  Result<Json> refused = client.Call("fetch_trace", std::move(untraced));
  EXPECT_FALSE(refused.ok());
  Json unknown = Json::Object();
  unknown.Set("job_id", Json::Number(int64_t{99}));
  EXPECT_FALSE(client.Call("fetch_trace", std::move(unknown)).ok());

  // The flight recorder saw the whole lifecycle, queryable live.
  Json flight =
      testing::Unwrap(client.Call("flight_recorder", Json::Object()));
  const Json* events = flight.Find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_GT(flight.GetInt("total_recorded", 0), 0);
  bool saw_admitted = false;
  bool saw_done = false;
  for (const Json& event : events->array_items()) {
    const std::string name = event.GetString("event", "");
    if (name == "job.admitted") saw_admitted = true;
    if (name == "job.done") saw_done = true;
  }
  EXPECT_TRUE(saw_admitted);
  EXPECT_TRUE(saw_done);
}

TEST(ServeE2eTest, TraceIsFetchableAsSoonAsPollSaysDone) {
  // The daemon stores a job's trace before it publishes the terminal state,
  // so a fetch_trace sent the moment a poll says `done` never finds the
  // trace missing. Each job is polled without pause to hit that moment.
  TestServer server;
  Client client = server.Connect();
  for (size_t i = 0; i < 10; ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    Json traced = Json::Object();
    traced.Set("capture_trace", Json::Bool(true));
    const uint64_t job_id =
        SubmitJob(client, SyntheticCsv(16 + i), 2, std::move(traced));
    Json state =
        testing::Unwrap(client.WaitJob(job_id, /*poll_interval_ms=*/0));
    ASSERT_EQ(state.GetString("state", ""), "done");
    Json params = Json::Object();
    params.Set("job_id", Json::Number(static_cast<int64_t>(job_id)));
    Result<Json> fetched = client.Call("fetch_trace", std::move(params));
    ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
    EXPECT_FALSE(fetched->GetString("trace", "").empty());
  }
}

TEST(ServeE2eTest, FailedVerificationFailsTheJobAndPublishesNothing) {
  // No engine emits a table that violates its notion, so the serve.verify
  // failpoint stands in for a violation: the job must end `failed`, with
  // nothing fetchable, nothing registered and the failure flight-recorded.
  TestServer server({{}, {{"KANON_FAILPOINTS", "serve.verify"}}});
  Client client = server.Connect();
  Json submit_params = Json::Object();
  submit_params.Set("publish_as", Json::Str("unverified"));
  const uint64_t job_id =
      SubmitJob(client, SyntheticCsv(24), 2, std::move(submit_params));
  Json final_state = testing::Unwrap(client.WaitJob(job_id));
  EXPECT_EQ(final_state.GetString("state", ""), "failed")
      << final_state.Dump();
  EXPECT_NE(final_state.GetString("error", "").find("'serve.verify'"),
            std::string::npos)
      << final_state.Dump();

  Json fetch = Json::Object();
  fetch.Set("job_id", Json::Number(static_cast<int64_t>(job_id)));
  EXPECT_FALSE(client.Call("fetch", std::move(fetch)).ok());
  Json verify = Json::Object();
  verify.Set("table", Json::Str("unverified"));
  verify.Set("k", Json::Number(int64_t{2}));
  Json response = testing::Unwrap(client.CallRaw("verify", std::move(verify)));
  const Json* error = response.Find("error");
  ASSERT_NE(error, nullptr) << response.Dump();
  EXPECT_EQ(error->GetString("code", ""), "not_found");

  Json metrics = testing::Unwrap(client.Call("metrics", Json::Object()));
  const Json* counters = metrics.Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->GetInt("serve.jobs_failed", -1), 1);
  EXPECT_EQ(counters->GetInt("serve.jobs_completed", -1), 0);

  Json flight =
      testing::Unwrap(client.Call("flight_recorder", Json::Object()));
  const Json* events = flight.Find("events");
  ASSERT_NE(events, nullptr);
  bool saw_failed = false;
  for (const Json& event : events->array_items()) {
    saw_failed |= event.GetString("event", "") == "job.failed";
  }
  EXPECT_TRUE(saw_failed);
}

TEST(ServeE2eTest, ResubmissionHitsSchemeCache) {
  TestServer server;
  Client client = server.Connect();
  const std::string csv = SyntheticCsv(20);
  const std::string first = ServeAnonymize(client, csv, 2, Json::Object());
  const std::string second = ServeAnonymize(client, csv, 2, Json::Object());
  EXPECT_EQ(first, second);  // Cached hot state must not change results.
  Json metrics = testing::Unwrap(client.Call("metrics", Json::Object()));
  const Json* counters = metrics.Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_GE(counters->GetInt("serve.scheme_cache_hits", -1), 1);
  EXPECT_EQ(counters->GetInt("serve.jobs_completed", -1), 2);
}

}  // namespace
}  // namespace kanon
