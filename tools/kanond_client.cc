// kanond_client: command-line client for the kanond service (docs/serving.md).
//
// Exit codes: 0 success, 1 usage/transport error, 2 typed server error,
// 3 the awaited job finished in the `failed` state. Usage errors (flags,
// unreadable input files) are found before connecting, so 2 always means
// the server refused.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <variant>
#include <vector>

#include "kanon/algo/anonymizer.h"
#include "kanon/common/flags.h"
#include "kanon/serve/client.h"
#include "kanon/serve/json.h"
#include "kanon/shard/shard_io.h"

namespace {

using kanon::FlagParser;
using kanon::Result;
using kanon::RunField;
using kanon::RunFieldFromFlags;
using kanon::RunFieldValue;
using kanon::RunFields;
using kanon::Status;
using kanon::serve::Client;
using kanon::serve::Json;
using kanon::shard::ReadFileToString;

void PrintUsage() {
  std::fprintf(stderr, R"(kanond_client: client for the kanond service

Usage: kanond_client --port=N [--host=127.0.0.1] <command> [flags]

Commands:
  ping
  submit   --csv=FILE [--spec=FILE] [--k=N] [--method=NAME] [--distance=D]
           [--measure=M] [--attr-weights=w1,w2,...] [--timeout-ms=N]
           [--max-steps=N] [--publish-as=NAME] [--capture-trace] [--wait]
  poll     --job=N
  wait     --job=N [--wait-timeout-ms=N]
  fetch    --job=N [--output=FILE]      (CSV to stdout without --output)
  trace    --job=N [--output=FILE]      (Chrome/Perfetto trace JSON of a
                                         job submitted with --capture-trace;
                                         stdout without --output)
  flight   [--output=FILE]              (the daemon's live flight-recorder
                                         ring as JSON lines)
  cancel   --job=N
  register --name=NAME --csv=FILE --generalized=FILE [--spec=FILE]
  verify   --table=NAME --k=N [--notion=k-anonymity|1k|k1|kk|global-1k]
  attack   --table=NAME --k=N
  metrics
  shutdown

Every command prints the server's JSON result on stdout (except fetch,
which emits the raw CSV).
)");
}

/// Builds submit params from flags; an error on a bad flag or an unreadable
/// file.
Result<Json> SubmitParams(const FlagParser& flags) {
  const std::string csv_path = flags.GetString("csv", "");
  if (csv_path.empty()) {
    return Status::InvalidArgument("submit requires --csv=FILE");
  }
  Json params = Json::Object();
  KANON_ASSIGN_OR_RETURN(std::string csv, ReadFileToString(csv_path));
  params.Set("csv", Json::Str(std::move(csv)));
  const std::string spec_path = flags.GetString("spec", "");
  if (!spec_path.empty()) {
    KANON_ASSIGN_OR_RETURN(std::string spec, ReadFileToString(spec_path));
    params.Set("spec", Json::Str(std::move(spec)));
  }
  // The run request's fields, forwarded as the daemon reads them; a field
  // the flags leave out takes the daemon's default, which is kanon_cli's.
  for (const RunField& field : RunFields()) {
    KANON_ASSIGN_OR_RETURN(RunFieldValue value,
                           RunFieldFromFlags(flags, field));
    if (const int64_t* count = std::get_if<int64_t>(&value)) {
      params.Set(field.param, Json::Number(*count));
    } else if (const std::string* name = std::get_if<std::string>(&value)) {
      params.Set(field.param, Json::Str(*name));
    } else if (const auto* numbers = std::get_if<std::vector<double>>(&value)) {
      Json list = Json::Array();
      for (double x : *numbers) list.Push(Json::Number(x));
      params.Set(field.param, std::move(list));
    }
  }
  if (flags.Has("debug-sleep-ms")) {
    params.Set("debug_sleep_ms",
               Json::Number(flags.GetInt("debug-sleep-ms", 0)));
  }
  if (flags.Has("publish-as")) {
    params.Set("publish_as", Json::Str(flags.GetString("publish-as", "")));
  }
  if (flags.GetBool("capture-trace", false)) {
    params.Set("capture_trace", Json::Bool(true));
  }
  return params;
}

/// Builds register_table params from flags; an error on an unreadable file.
Result<Json> RegisterParams(const FlagParser& flags) {
  Json params = Json::Object();
  params.Set("name", Json::Str(flags.GetString("name", "")));
  KANON_ASSIGN_OR_RETURN(std::string csv,
                         ReadFileToString(flags.GetString("csv", "")));
  params.Set("csv", Json::Str(std::move(csv)));
  KANON_ASSIGN_OR_RETURN(std::string generalized,
                         ReadFileToString(flags.GetString("generalized", "")));
  params.Set("generalized_csv", Json::Str(std::move(generalized)));
  const std::string spec_path = flags.GetString("spec", "");
  if (!spec_path.empty()) {
    KANON_ASSIGN_OR_RETURN(std::string spec, ReadFileToString(spec_path));
    params.Set("spec", Json::Str(std::move(spec)));
  }
  return params;
}

Json JobParams(const FlagParser& flags) {
  Json params = Json::Object();
  params.Set("job_id", Json::Number(flags.GetInt("job", 0)));
  return params;
}

/// A usage or transport error: exit 1.
int Fail(const Status& status) {
  std::fprintf(stderr, "kanond_client: %s\n", status.ToString().c_str());
  return 1;
}

/// Writes `data` to --output, or stdout when the flag is absent.
int EmitRaw(const FlagParser& flags, const std::string& data) {
  const std::string output = flags.GetString("output", "");
  if (output.empty()) {
    std::fwrite(data.data(), 1, data.size(), stdout);
    return 0;
  }
  std::ofstream out(output, std::ios::binary);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  if (!out) return Fail(Status::IOError("cannot write " + output));
  return 0;
}

/// Prints the result (or typed error) of one call; returns the exit code.
int Finish(const Result<Json>& response) {
  if (!response.ok()) {
    // Client::Call turns typed server errors into Internal("<code>: ...").
    std::fprintf(stderr, "kanond_client: %s\n",
                 response.status().ToString().c_str());
    return response.status().code() == kanon::StatusCode::kInternal ? 2 : 1;
  }
  std::printf("%s\n", response.value().Dump().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) return Fail(parsed);
  // Every integer flag is a count: a malformed one is a usage error.
  if (Status s = flags.CheckCounts({"port", "recv-timeout-ms",
                                    "wait-timeout-ms", "job", "k",
                                    "timeout-ms", "max-steps",
                                    "debug-sleep-ms"});
      !s.ok()) {
    return Fail(s);
  }
  if (flags.GetBool("help", false) || flags.positional().size() != 1) {
    PrintUsage();
    return flags.GetBool("help", false) ? 0 : 1;
  }
  const std::string command = flags.positional()[0];
  const std::string host = flags.GetString("host", "127.0.0.1");
  const int port = static_cast<int>(flags.GetInt("port", 0));
  if (port <= 0) {
    std::fprintf(stderr, "kanond_client: --port=N is required\n");
    return 1;
  }
  const int recv_timeout_ms =
      static_cast<int>(flags.GetInt("recv-timeout-ms", 120000));
  // The params read from flags and files, built before connecting.
  Json params = Json::Object();
  if (command == "submit" || command == "register") {
    Result<Json> built =
        command == "submit" ? SubmitParams(flags) : RegisterParams(flags);
    if (!built.ok()) return Fail(built.status());
    params = std::move(built).value();
  }

  Result<Client> connected = Client::Connect(host, port, recv_timeout_ms);
  if (!connected.ok()) return Fail(connected.status());
  Client client = std::move(connected).value();

  if (command == "ping" || command == "metrics" || command == "shutdown") {
    return Finish(client.Call(command, Json::Object()));
  }
  if (command == "submit") {
    Result<Json> result = client.Call("submit", std::move(params));
    if (!result.ok() || !flags.GetBool("wait", false)) return Finish(result);
    const uint64_t job_id =
        static_cast<uint64_t>(result.value().GetInt("job_id", 0));
    Result<Json> final_state = client.WaitJob(
        job_id, /*poll_interval_ms=*/20,
        static_cast<int>(flags.GetInt("wait-timeout-ms", 120000)));
    const int code = Finish(final_state);
    if (code != 0) return code;
    return final_state.value().GetString("state", "") == "done" ? 0 : 3;
  }
  if (command == "poll" || command == "cancel") {
    return Finish(client.Call(command, JobParams(flags)));
  }
  if (command == "wait") {
    Result<Json> final_state = client.WaitJob(
        static_cast<uint64_t>(flags.GetInt("job", 0)),
        /*poll_interval_ms=*/20,
        static_cast<int>(flags.GetInt("wait-timeout-ms", 120000)));
    const int code = Finish(final_state);
    if (code != 0) return code;
    return final_state.value().GetString("state", "") == "done" ? 0 : 3;
  }
  if (command == "fetch") {
    Result<Json> result = client.Call("fetch", JobParams(flags));
    if (!result.ok()) return Finish(result);
    return EmitRaw(flags, result.value().GetString("csv", ""));
  }
  if (command == "trace") {
    Result<Json> result = client.Call("fetch_trace", JobParams(flags));
    if (!result.ok()) return Finish(result);
    return EmitRaw(flags, result.value().GetString("trace", ""));
  }
  if (command == "flight") {
    Result<Json> result = client.Call("flight_recorder", Json::Object());
    if (!result.ok()) return Finish(result);
    // One JSON object per line, like the dump-file format, so the same
    // tooling reads both.
    const Json* events = result.value().Find("events");
    std::string lines;
    if (events != nullptr && events->is_array()) {
      for (const Json& event : events->array_items()) {
        lines += event.Dump();
        lines += '\n';
      }
    }
    return EmitRaw(flags, lines);
  }
  if (command == "register") {
    return Finish(client.Call("register_table", std::move(params)));
  }
  if (command == "verify" || command == "attack") {
    params.Set("table", Json::Str(flags.GetString("table", "")));
    params.Set("k", Json::Number(flags.GetInt("k", 0)));
    if (command == "verify" && flags.Has("notion")) {
      params.Set("notion", Json::Str(flags.GetString("notion", "")));
    }
    return Finish(client.Call(command, std::move(params)));
  }
  std::fprintf(stderr, "kanond_client: unknown command '%s'\n",
               command.c_str());
  PrintUsage();
  return 1;
}
