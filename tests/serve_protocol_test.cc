// Protocol-robustness acceptance for kanond: a hostile or broken peer can
// at worst get a typed error or its own connection dropped — never a
// crash, never a desynced frame stream, never a wedged server. Each case
// sends one flavor of malformed input from the corpus, asserts the typed
// reply (or the drop), and then proves the server is still healthy by
// completing a fresh ping on a new connection. The injected-fault cases
// arm the serve.* failpoints through the registry's environment interface,
// exactly as the CSV/spec parser robustness suite does for ingestion.
#include <gtest/gtest.h>

#include <cmath>
#include <csignal>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "serve_test_util.h"
#include "test_util.h"

namespace kanon {
namespace {

using serve::Client;
using serve::Json;
using testing::SyntheticCsv;
using testing::TestServer;

/// The server must still answer after the abuse.
void ExpectServerAlive(TestServer& server) {
  Client client = server.Connect();
  Json pong = testing::Unwrap(client.Call("ping", Json::Object()));
  EXPECT_TRUE(pong.GetBool("pong", false));
}

/// Sends a frame and expects a typed error response with `code`.
void ExpectTypedError(Client& client, const std::string& payload,
                      const std::string& code) {
  ASSERT_TRUE(client.SendFrame(payload).ok());
  Result<std::string> raw = client.ReadResponseFrame();
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  Json response = testing::Unwrap(Json::Parse(*raw));
  EXPECT_FALSE(response.GetBool("ok", true));
  const Json* error = response.Find("error");
  ASSERT_NE(error, nullptr) << response.Dump();
  EXPECT_EQ(error->GetString("code", ""), code) << response.Dump();
}

TEST(ServeProtocolTest, MalformedFrameCorpus) {
  TestServer server;

  {  // Truncated length prefix, then disconnect: dropped, no reply.
    Client client = server.Connect();
    ASSERT_TRUE(client.SendBytes(std::string("\x00\x01", 2)).ok());
    client.Close();
  }
  ExpectServerAlive(server);

  {  // Mid-frame disconnect: prefix announces 100 bytes, 10 arrive.
    Client client = server.Connect();
    std::string partial("\x00\x00\x00\x64", 4);
    partial += "0123456789";
    ASSERT_TRUE(client.SendBytes(partial).ok());
    client.Close();
  }
  ExpectServerAlive(server);

  {  // Oversized announced length: typed frame_too_large, then the drop.
    Client client = server.Connect();
    ASSERT_TRUE(client.SendBytes(std::string("\xff\xff\xff\xff", 4)).ok());
    Result<std::string> raw = client.ReadResponseFrame();
    ASSERT_TRUE(raw.ok()) << raw.status().ToString();
    Json response = testing::Unwrap(Json::Parse(*raw));
    const Json* error = response.Find("error");
    ASSERT_NE(error, nullptr);
    EXPECT_EQ(error->GetString("code", ""), "frame_too_large");
    // The connection is done: the next read sees EOF, not garbage.
    EXPECT_FALSE(client.ReadResponseFrame().ok());
  }
  ExpectServerAlive(server);

  {  // Payload-level malformations: typed errors, connection stays usable.
    Client client = server.Connect();
    ExpectTypedError(client, "", "parse_error");           // Zero-length.
    ExpectTypedError(client, "{nope", "parse_error");      // Invalid JSON.
    ExpectTypedError(client, "[1,2,3]", "invalid_request");  // Non-object.
    ExpectTypedError(client, "{\"id\":1}", "invalid_request");  // No method.
    ExpectTypedError(client, "{\"id\":1,\"method\":7}",
                     "invalid_request");  // Non-string method.
    ExpectTypedError(client, "{\"method\":\"frobnicate\"}",
                     "unknown_method");
    // Depth bomb: 80 nested arrays exceeds Json::kMaxDepth.
    std::string bomb = "{\"id\":1,\"method\":\"ping\",\"params\":";
    for (int i = 0; i < 80; ++i) bomb += "[";
    for (int i = 0; i < 80; ++i) bomb += "]";
    bomb += "}";
    ExpectTypedError(client, bomb, "parse_error");
    // After all that, the same connection still serves a real request.
    Json pong = testing::Unwrap(client.Call("ping", Json::Object()));
    EXPECT_TRUE(pong.GetBool("pong", false));
  }

  {  // Deterministic garbage corpus (xorshift bytes, no \x00 prefix luck).
    uint64_t state = 0x9e3779b97f4a7c15ull;
    for (int round = 0; round < 8; ++round) {
      Client client = server.Connect();
      std::string garbage;
      for (int i = 0; i < 64; ++i) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        garbage.push_back(static_cast<char>(state & 0xff));
      }
      ASSERT_TRUE(client.SendBytes(garbage).ok());
      client.Close();
    }
  }
  ExpectServerAlive(server);

  EXPECT_EQ(server.SignalAndWait(SIGTERM), 0) << server.Log();
}

// A number no int64 holds clamps to the nearest end of the range instead of
// an undefined cast, and never reads as missing (only NaN does).
TEST(ServeProtocolTest, GetIntClampsOutOfRangeNumbers) {
  const Json doc = testing::Unwrap(Json::Parse(
      "{\"huge\":1e300,\"tiny\":-1e300,\"edge\":9223372036854775808,"
      "\"min\":-9223372036854775808,\"ok\":42}"));
  EXPECT_EQ(doc.GetInt("huge", 7), INT64_MAX);
  EXPECT_EQ(doc.GetInt("tiny", 7), INT64_MIN);
  EXPECT_EQ(doc.GetInt("edge", 7), INT64_MAX);
  EXPECT_EQ(doc.GetInt("min", 7), INT64_MIN);
  EXPECT_EQ(doc.GetInt("ok", 7), 42);
  Json nan = Json::Object();
  nan.Set("v", Json::Number(std::nan("")));
  EXPECT_EQ(nan.GetInt("v", 7), 7);
}

TEST(ServeProtocolTest, MethodLevelParamErrorsAreTyped) {
  TestServer server;
  Client client = server.Connect();

  // submit without csv.
  Json bad_submit = testing::Unwrap(client.CallRaw("submit", Json::Object()));
  EXPECT_EQ(bad_submit.Find("error")->GetString("code", ""),
            "invalid_params");
  // submit with an unparsable table.
  Json params = Json::Object();
  params.Set("csv", Json::Str("a,b\n1"));  // Ragged row.
  Json ragged = testing::Unwrap(client.CallRaw("submit", std::move(params)));
  EXPECT_EQ(ragged.Find("error")->GetString("code", ""), "invalid_params");
  // submit with an unknown method / measure.
  params = Json::Object();
  params.Set("csv", Json::Str(SyntheticCsv(8)));
  params.Set("method", Json::Str("simulated-annealing"));
  Json bad_method =
      testing::Unwrap(client.CallRaw("submit", std::move(params)));
  EXPECT_EQ(bad_method.Find("error")->GetString("code", ""),
            "invalid_params");
  // submit with attr_weights spelled as kanon_cli's flag value, not an
  // array: refused, never run unweighted.
  params = Json::Object();
  params.Set("csv", Json::Str(SyntheticCsv(8)));
  params.Set("attr_weights", Json::Str("2,1"));
  Json bad_weights =
      testing::Unwrap(client.CallRaw("submit", std::move(params)));
  EXPECT_EQ(bad_weights.Find("error")->GetString("code", ""),
            "invalid_params");
  // poll with a string job id; poll/fetch of an unknown job.
  params = Json::Object();
  params.Set("job_id", Json::Str("one"));
  Json bad_poll = testing::Unwrap(client.CallRaw("poll", std::move(params)));
  EXPECT_EQ(bad_poll.Find("error")->GetString("code", ""), "invalid_params");
  params = Json::Object();
  params.Set("job_id", Json::Number(int64_t{999}));
  Json missing = testing::Unwrap(client.CallRaw("fetch", std::move(params)));
  EXPECT_EQ(missing.Find("error")->GetString("code", ""), "not_found");
  // verify against a table that was never published.
  params = Json::Object();
  params.Set("table", Json::Str("ghost"));
  params.Set("k", Json::Number(int64_t{2}));
  Json ghost = testing::Unwrap(client.CallRaw("verify", std::move(params)));
  EXPECT_EQ(ghost.Find("error")->GetString("code", ""), "not_found");
  // Integer params far outside the int64 range clamp to its ends, never a
  // wrapped or undefined cast and never the param's default.
  ExpectTypedError(client,
                   "{\"id\":7,\"method\":\"poll\",\"params\":{\"job_id\":1e300}}",
                   "not_found");
  ExpectTypedError(
      client, "{\"id\":8,\"method\":\"fetch\",\"params\":{\"job_id\":-1e300}}",
      "invalid_params");
  // A k of 1e300 must not run as the default k=5: it is refused, as is any
  // k larger than the table.
  for (const double k : {1e300, -1e300, 9.0}) {
    params = Json::Object();
    params.Set("csv", Json::Str(SyntheticCsv(8)));
    params.Set("k", Json::Number(k));
    Json bad_k = testing::Unwrap(client.CallRaw("submit", std::move(params)));
    EXPECT_EQ(bad_k.Find("error")->GetString("code", ""), "invalid_params")
        << "k=" << k << ": " << bad_k.Dump();
  }
  // The run request's rules are kanon_cli's: a negative budget, a k of 0
  // and a count or name of the wrong JSON type are refused, never run as
  // no budget or the default.
  const std::vector<std::pair<const char*, Json>> bad_fields = {
      {"timeout_ms", Json::Number(int64_t{-1})},
      {"max_steps", Json::Number(int64_t{-1})},
      {"max_steps", Json::Number(-1e300)},
      {"k", Json::Number(int64_t{0})},
      {"k", Json::Str("3")},
      {"distance", Json::Number(int64_t{3})},
  };
  for (const auto& [field, value] : bad_fields) {
    params = Json::Object();
    params.Set("csv", Json::Str(SyntheticCsv(8)));
    params.Set(field, value);
    Json bad = testing::Unwrap(client.CallRaw("submit", std::move(params)));
    EXPECT_EQ(bad.Find("error")->GetString("code", ""), "invalid_params")
        << field << "=" << value.Dump() << ": " << bad.Dump();
    EXPECT_NE(bad.Find("error")->GetString("message", "").find(field),
              std::string::npos)
        << bad.Dump();
  }

  EXPECT_EQ(server.SignalAndWait(SIGTERM), 0) << server.Log();
}

// Every param of a JSON type other than its own is refused, never read as
// absent: `"spec": 5` would run suppression-only hierarchies and
// `"notion": 3` would verify k-anonymity.
TEST(ServeProtocolTest, WronglyTypedParamsAreRefused) {
  TestServer server;
  Client client = server.Connect();
  const std::string csv = SyntheticCsv(8);
  const auto table_params = [&csv](const char* name) {
    Json params = Json::Object();
    params.Set("name", Json::Str(name));
    params.Set("csv", Json::Str(csv));
    params.Set("generalized_csv", Json::Str(csv));  // The identity table.
    return params;
  };
  testing::Unwrap(client.Call("register_table", table_params("raw")));
  Json submit = Json::Object();
  submit.Set("csv", Json::Str(csv));
  Json read = Json::Object();
  read.Set("table", Json::Str("raw"));
  read.Set("k", Json::Number(int64_t{2}));
  Json job = Json::Object();
  job.Set("job_id", Json::Number(int64_t{1}));

  struct Case {
    const char* method;
    const Json& params;  // Valid params; `param` is replaced.
    const char* param;
    Json value;
  };
  const Json registration = table_params("again");
  const std::vector<Case> cases = {
      {"submit", submit, "spec", Json::Number(int64_t{5})},
      {"submit", submit, "publish_as", Json::Number(int64_t{3})},
      {"submit", submit, "capture_trace", Json::Str("yes")},
      {"submit", submit, "debug_sleep_ms", Json::Str("10")},
      {"register_table", registration, "name", Json::Number(int64_t{1})},
      {"register_table", registration, "spec", Json::Bool(true)},
      {"verify", read, "table", Json::Number(int64_t{5})},
      {"verify", read, "k", Json::Str("2")},
      {"verify", read, "notion", Json::Number(int64_t{3})},
      {"attack", read, "table", Json::Number(int64_t{5})},
      {"poll", job, "job_id", Json::Str("1")},
      {"fetch", job, "job_id", Json::Bool(true)},
      {"cancel", job, "job_id", Json::Array()},
  };
  for (const Case& c : cases) {
    Json params = c.params;
    params.Set(c.param, c.value);
    const std::string sent = params.Dump();
    Json bad = testing::Unwrap(client.CallRaw(c.method, std::move(params)));
    const Json* error = bad.Find("error");
    ASSERT_NE(error, nullptr) << c.method << " " << sent << ": " << bad.Dump();
    EXPECT_EQ(error->GetString("code", ""), "invalid_params")
        << c.method << " " << sent << ": " << bad.Dump();
    EXPECT_NE(error->GetString("message", "").find(c.param),
              std::string::npos)
        << bad.Dump();
  }

  EXPECT_EQ(server.SignalAndWait(SIGTERM), 0) << server.Log();
}

TEST(ServeProtocolTest, OutOfRangeAttrWeightsFailTheJobNotTheDaemon) {
  // Σw overflows to +inf for the first list and r/Σw for the second; either
  // used to reach the engine as NaN or zero cost rows. The job must end
  // `failed` with the weight validation's message, and the same connection
  // must keep working.
  TestServer server;
  Client client = server.Connect();
  for (const std::vector<double>& list :
       {std::vector<double>{1e308, 1e308, 1e308},
        std::vector<double>{1e-320, 0.0, 0.0}}) {
    Json weights = Json::Array();
    for (double w : list) weights.Push(Json::Number(w));
    Json params = Json::Object();
    params.Set("csv", Json::Str(SyntheticCsv(8)));
    params.Set("k", Json::Number(int64_t{2}));
    params.Set("attr_weights", std::move(weights));
    Json submitted = testing::Unwrap(client.Call("submit", std::move(params)));
    const Json final_state = testing::Unwrap(
        client.WaitJob(static_cast<uint64_t>(submitted.GetInt("job_id", 0))));
    EXPECT_EQ(final_state.GetString("state", ""), "failed")
        << final_state.Dump();
    EXPECT_EQ(final_state.GetString("error", ""),
              "InvalidArgument: attribute weights out of range: their sum "
              "and the attribute count divided by it must both be finite")
        << final_state.Dump();
    Json pong = testing::Unwrap(client.Call("ping", Json::Object()));
    EXPECT_TRUE(pong.GetBool("pong", false));
  }
  EXPECT_EQ(server.SignalAndWait(SIGTERM), 0) << server.Log();
}

TEST(ServeProtocolTest, ArmedDispatchFailpointYieldsTypedInternalError) {
  TestServer server({{}, {{"KANON_FAILPOINTS", "serve.dispatch"}}});
  Client client = server.Connect();
  for (int i = 0; i < 3; ++i) {
    Json response = testing::Unwrap(client.CallRaw("ping", Json::Object()));
    EXPECT_FALSE(response.GetBool("ok", true));
    const Json* error = response.Find("error");
    ASSERT_NE(error, nullptr);
    EXPECT_EQ(error->GetString("code", ""), "internal");
  }
  // Injected dispatch faults must not take the process down.
  EXPECT_EQ(server.SignalAndWait(SIGTERM), 0) << server.Log();
}

TEST(ServeProtocolTest, ArmedCrashFailpointDumpsTheFlightRecorder) {
  // The one deliberate exception to "never a crash": serve.crash rehearses
  // a fatal bug. The process must die by SIGABRT — and the crash handler
  // must leave a parseable flight-recorder dump behind, ending with the
  // serve.crash event and the crash.signal marker.
  TestServer server({{}, {{"KANON_FAILPOINTS", "serve.crash"}}});
  Client client = server.Connect();
  (void)client.SendFrame("{\"id\":1,\"method\":\"ping\"}");
  EXPECT_FALSE(client.ReadResponseFrame().ok());  // Died mid-dispatch.
  EXPECT_EQ(server.Wait(), 128 + SIGABRT) << server.Log();

  const std::string dump = testing::ReadFileOrDie(server.flight_dump_path());
  ASSERT_FALSE(dump.empty());
  std::istringstream lines(dump);
  std::string line;
  bool saw_crash_event = false;
  bool saw_signal = false;
  while (std::getline(lines, line)) {
    EXPECT_TRUE(Json::Parse(line).ok()) << line;
    if (line.find("\"event\":\"serve.crash\"") != std::string::npos) {
      saw_crash_event = true;
    }
    if (line.find("\"event\":\"crash.signal\"") != std::string::npos) {
      saw_signal = true;
      EXPECT_NE(line.find("\"signal\":6"), std::string::npos) << line;
    }
  }
  EXPECT_TRUE(saw_crash_event) << dump;
  EXPECT_TRUE(saw_signal) << dump;
}

TEST(ServeProtocolTest, ArmedReadFailpointDropsConnectionNotProcess) {
  // Skip the first two reads, then every read on the wire fails as if the
  // socket broke mid-frame: the connection drops, the process survives.
  TestServer server({{}, {{"KANON_FAILPOINTS", "serve.read_frame=2"}}});
  Client client = server.Connect();
  testing::Unwrap(client.Call("ping", Json::Object()));
  testing::Unwrap(client.Call("ping", Json::Object()));
  // The third server-side read fails at the injection site, so the server
  // may sever the connection before (or while) this lands — the send's own
  // outcome is racy, but the response can never arrive.
  (void)client.SendFrame("{\"method\":\"ping\"}");
  EXPECT_FALSE(client.ReadResponseFrame().ok());  // Dropped, not answered.
  EXPECT_EQ(server.SignalAndWait(SIGTERM), 0) << server.Log();
}

}  // namespace
}  // namespace kanon
