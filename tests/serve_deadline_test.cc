// Deadline and shutdown semantics for kanond. The serving layer inherits
// the CLI's degradation contract: a job that hits its step budget or
// deadline does NOT fail — it finalizes a valid-but-lossier table, is
// reported `done` with degraded=true, and names the stage where work was
// cut short. SIGTERM is a drain, not a kill: in-flight jobs run to their
// terminal state, already-open connections may still poll and fetch, new
// submissions bounce with the typed `shutting_down` error, and the process
// exits 0 once everything settles.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <string>
#include <vector>

#include "serve_test_util.h"
#include "test_util.h"

namespace kanon {
namespace {

using serve::Client;
using serve::Json;
using testing::CliAnonymize;
using testing::SubmitJob;
using testing::SyntheticCsv;
using testing::TestServer;

TEST(ServeDeadlineTest, StepBudgetDegradesWithCliSemantics) {
  TestServer server;
  Client client = server.Connect();
  const std::string csv = SyntheticCsv(40);

  Json params = Json::Object();
  params.Set("max_steps", Json::Number(int64_t{1}));
  const uint64_t job_id = SubmitJob(client, csv, 2, std::move(params));
  Json final_state = testing::Unwrap(client.WaitJob(job_id));

  // Degraded is still done — the contract the CLI signals with exit 3.
  EXPECT_EQ(final_state.GetString("state", ""), "done");
  EXPECT_TRUE(final_state.GetBool("degraded", false)) << final_state.Dump();
  EXPECT_EQ(final_state.GetString("stop_reason", ""), "step-budget");
  EXPECT_FALSE(final_state.GetString("degraded_stage", "").empty())
      << final_state.Dump();

  // The degraded table itself must match what the CLI produces for the
  // same budget (kanon_cli exits 3 for degraded-but-valid output).
  Json fetch_params = Json::Object();
  fetch_params.Set("job_id", Json::Number(static_cast<int64_t>(job_id)));
  Json fetched = testing::Unwrap(client.Call("fetch", std::move(fetch_params)));
  const std::string from_cli = CliAnonymize(server.dir(), csv, "", 2,
                                            {"--max-steps=1"},
                                            /*expected_exit=*/3);
  EXPECT_EQ(fetched.GetString("csv", ""), from_cli);

  // The structured log told the whole story: every lifecycle event for
  // this job, each a parseable JSON line carrying the job_id correlation
  // field, including the job.degraded warning with the stop reason.
  bool saw_admitted = false;
  bool saw_started = false;
  bool saw_done = false;
  bool saw_degraded = false;
  const std::string id_field =
      "\"job_id\":" + std::to_string(job_id);
  for (const std::string& line : server.LogLines()) {
    ASSERT_TRUE(Json::Parse(line).ok()) << line;
    if (line.find(id_field) == std::string::npos) continue;
    const size_t event = line.find("\"event\":\"");
    ASSERT_NE(event, std::string::npos) << line;
    if (line.find("\"event\":\"job.admitted\"") != std::string::npos) {
      saw_admitted = true;
      EXPECT_NE(line.find("\"rows\":40"), std::string::npos) << line;
      EXPECT_NE(line.find("\"k\":2"), std::string::npos) << line;
    }
    if (line.find("\"event\":\"job.started\"") != std::string::npos) {
      saw_started = true;
    }
    if (line.find("\"event\":\"job.done\"") != std::string::npos) {
      saw_done = true;
      EXPECT_NE(line.find("\"degraded\":true"), std::string::npos) << line;
    }
    if (line.find("\"event\":\"job.degraded\"") != std::string::npos) {
      saw_degraded = true;
      EXPECT_NE(line.find("\"level\":\"warn\""), std::string::npos) << line;
      EXPECT_NE(line.find("step-budget"), std::string::npos) << line;
    }
  }
  EXPECT_TRUE(saw_admitted);
  EXPECT_TRUE(saw_started);
  EXPECT_TRUE(saw_done);
  EXPECT_TRUE(saw_degraded);
}

TEST(ServeDeadlineTest, TinyTimeoutDegradesWithDeadlineStopReason) {
  // debug_sleep_ms burns wall-clock inside the job's RunContext before the
  // pipeline starts, so a 10ms deadline is reliably expired by the first
  // checkpoint — no dependence on machine speed.
  TestServer server({{"--test-hooks"}, {}});
  Client client = server.Connect();

  Json params = Json::Object();
  params.Set("timeout_ms", Json::Number(int64_t{10}));
  params.Set("debug_sleep_ms", Json::Number(int64_t{100}));
  const uint64_t job_id =
      SubmitJob(client, SyntheticCsv(32), 2, std::move(params));
  Json final_state = testing::Unwrap(client.WaitJob(job_id));

  EXPECT_EQ(final_state.GetString("state", ""), "done");
  EXPECT_TRUE(final_state.GetBool("degraded", false)) << final_state.Dump();
  EXPECT_EQ(final_state.GetString("stop_reason", ""), "deadline");
  EXPECT_FALSE(final_state.GetString("degraded_stage", "").empty())
      << final_state.Dump();

  // Degraded still means valid: the table must fetch and parse as CSV with
  // the full row count.
  Json fetch_params = Json::Object();
  fetch_params.Set("job_id", Json::Number(static_cast<int64_t>(job_id)));
  Json fetched = testing::Unwrap(client.Call("fetch", std::move(fetch_params)));
  EXPECT_FALSE(fetched.GetString("csv", "").empty());
}

TEST(ServeDeadlineTest, SigtermDrainsInFlightJobBeforeExit) {
  TestServer server({{"--workers=1", "--test-hooks"}, {}});
  Client client = server.Connect();

  // Pin the worker with a job that sleeps ~1.5s, then deliver SIGTERM while
  // it is demonstrably in flight.
  Json params = Json::Object();
  params.Set("debug_sleep_ms", Json::Number(int64_t{1500}));
  const uint64_t in_flight =
      SubmitJob(client, SyntheticCsv(16), 2, std::move(params));
  for (int i = 0; i < 1500; ++i) {
    Json poll = Json::Object();
    poll.Set("job_id", Json::Number(static_cast<int64_t>(in_flight)));
    Json snapshot = testing::Unwrap(client.Call("poll", std::move(poll)));
    if (snapshot.GetString("state", "") == "running") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(::kill(server.pid(), SIGTERM), 0);

  // The already-open connection keeps working during the drain: a new
  // submission is refused with the typed shutting_down error. kill(2) only
  // queues the signal, so allow a few retries for delivery; any job that
  // slips in before it lands is cancelled to keep accounting clean.
  bool refused_typed = false;
  for (int attempt = 0; attempt < 100 && !refused_typed; ++attempt) {
    Json submit_params = Json::Object();
    submit_params.Set("csv", Json::Str(SyntheticCsv(8)));
    submit_params.Set("k", Json::Number(int64_t{2}));
    Json response =
        testing::Unwrap(client.CallRaw("submit", std::move(submit_params)));
    if (!response.GetBool("ok", true)) {
      const Json* error = response.Find("error");
      ASSERT_NE(error, nullptr) << response.Dump();
      EXPECT_EQ(error->GetString("code", ""), "shutting_down");
      refused_typed = true;
      break;
    }
    Json cancel = Json::Object();
    cancel.Set("job_id",
               Json::Number(response.Find("result")->GetInt("job_id", 0)));
    testing::Unwrap(client.Call("cancel", std::move(cancel)));
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(refused_typed) << "submit was never refused during the drain";

  // ...and the in-flight job still reaches `done` and yields its table.
  Json final_state = testing::Unwrap(client.WaitJob(in_flight));
  EXPECT_EQ(final_state.GetString("state", ""), "done") << final_state.Dump();
  Json fetch_params = Json::Object();
  fetch_params.Set("job_id", Json::Number(static_cast<int64_t>(in_flight)));
  Json fetched = testing::Unwrap(client.Call("fetch", std::move(fetch_params)));
  EXPECT_FALSE(fetched.GetString("csv", "").empty());

  client.Close();
  EXPECT_EQ(server.Wait(), 0) << server.Log();
}

}  // namespace
}  // namespace kanon
