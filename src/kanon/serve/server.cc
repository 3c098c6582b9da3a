#include "kanon/serve/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "kanon/anonymity/attack.h"
#include "kanon/anonymity/verify.h"
#include "kanon/common/failpoint.h"
#include "kanon/generalization/generalized_csv.h"

namespace kanon {
namespace serve {
namespace {

/// Largest id list an attack/verify response embeds; the full counts are
/// always present, so truncation loses detail, not information.
constexpr size_t kMaxReportedIds = 256;

ErrorCode CodeForStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kNotFound:
      return ErrorCode::kNotFound;
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
    case StatusCode::kFailedPrecondition:
      return ErrorCode::kInvalidParams;
    default:
      return ErrorCode::kInternal;
  }
}

/// Fetches a required positive integer param; a kNone error code on success.
bool GetJobId(const Json& params, uint64_t* out, std::string* error) {
  const int64_t id = params.GetInt("job_id", 0);
  if (id < 1) {
    *error = "params.job_id (positive integer) is required";
    return false;
  }
  *out = static_cast<uint64_t>(id);
  return true;
}

/// A submit param as ReadRunRequest reads it. A count clamps to the int64
/// range (Json::GetInt). A param of another kind is refused rather than read
/// as absent, so neither `"k": "3"` nor `"attr_weights": "2,1"` runs as the
/// default.
Result<RunFieldValue> ParamValue(const Json& params, const RunField& field) {
  const Json* value = params.Find(field.param);
  if (value == nullptr) return RunFieldValue();
  const std::string refused =
      std::string("params.") + field.param + " must be ";
  switch (field.kind) {
    case RunField::Kind::kCount:
      if (value->is_number()) {
        return RunFieldValue(params.GetInt(field.param, 0));
      }
      return Status::InvalidArgument(refused + "a number");
    case RunField::Kind::kName:
      if (value->is_string()) return RunFieldValue(value->string_value());
      return Status::InvalidArgument(refused + "a string");
    case RunField::Kind::kNumbers: {
      std::vector<double> numbers;
      for (const Json& item : value->array_items()) {
        if (item.is_number()) numbers.push_back(item.number_value());
      }
      if (value->is_array() && numbers.size() == value->array_items().size()) {
        return RunFieldValue(std::move(numbers));
      }
      return Status::InvalidArgument(refused + "an array of numbers");
    }
  }
  return Status::Internal("unreachable run field kind");
}

Json SnapshotToJson(const JobSnapshot& snapshot) {
  Json out = Json::Object();
  out.Set("job_id", Json::Number(static_cast<int64_t>(snapshot.id)));
  out.Set("state", Json::Str(JobStateName(snapshot.state)));
  out.Set("progress_stage", Json::Str(snapshot.progress_stage));
  out.Set("progress_steps",
          Json::Number(static_cast<int64_t>(snapshot.progress_steps)));
  out.Set("rows", Json::Number(static_cast<int64_t>(snapshot.rows)));
  if (snapshot.state == JobState::kDone) {
    out.Set("loss", Json::Number(snapshot.loss));
    out.Set("elapsed_seconds", Json::Number(snapshot.elapsed_seconds));
    out.Set("degraded", Json::Bool(snapshot.degraded));
    out.Set("degraded_stage", Json::Str(snapshot.degraded_stage));
    out.Set("stop_reason", Json::Str(snapshot.stop_reason));
    out.Set("iterations_completed",
            Json::Number(static_cast<int64_t>(snapshot.iterations_completed)));
    out.Set("records_suppressed",
            Json::Number(static_cast<int64_t>(snapshot.records_suppressed)));
  }
  if (!snapshot.error.empty()) out.Set("error", Json::Str(snapshot.error));
  return out;
}

Json IdList(const std::vector<uint32_t>& ids) {
  Json out = Json::Array();
  const size_t n = std::min(ids.size(), kMaxReportedIds);
  for (size_t i = 0; i < n; ++i) {
    out.Push(Json::Number(static_cast<int64_t>(ids[i])));
  }
  return out;
}

}  // namespace

Server::Server(const ServerOptions& options, RunContext* server_context,
               MetricsRegistry* metrics)
    : options_(options),
      server_context_(server_context),
      metrics_(metrics),
      tables_(options.table_store_capacity),
      schemes_(options.scheme_cache_capacity, metrics),
      jobs_(std::make_unique<JobManager>(options.jobs, server_context, metrics,
                                         &tables_, options.logger,
                                         options.flight)),
      logger_(options.logger),
      flight_(options.flight),
      start_time_(std::chrono::steady_clock::now()) {
  if (metrics_ != nullptr) {
    connections_ = metrics_->GetCounter("serve.connections");
    requests_ = metrics_->GetCounter("serve.requests");
    request_errors_ = metrics_->GetCounter("serve.request_errors");
    connections_open_ =
        metrics_->GetGauge("serve.connections_open", /*deterministic=*/false);
    uptime_seconds_ =
        metrics_->GetGauge("serve.uptime_seconds", /*deterministic=*/false);
    request_seconds_ = metrics_->GetHistogram(
        "serve.request_seconds", {0.0001, 0.001, 0.01, 0.1, 1.0, 10.0},
        /*deterministic=*/false);
    request_seconds_window_ = metrics_->GetRollingHistogram(
        "serve.request_seconds_window",
        {0.0001, 0.001, 0.01, 0.1, 1.0, 10.0});
  }
}

void Server::RefreshUptime() {
  if (uptime_seconds_ != nullptr) {
    uptime_seconds_->Set(std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start_time_)
                             .count());
  }
}

Server::~Server() {
  RequestShutdown();
  jobs_->Shutdown();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  SeverConnections();
  ReapConnections(/*join_all=*/true);
}

Status Server::Start() {
  KANON_ASSIGN_OR_RETURN(TcpListener listener,
                         ListenTcp(options_.bind_address, options_.port, 64));
  listen_fd_ = listener.fd;
  port_ = listener.port;
  return Status::OK();
}

Status Server::Run() {
  if (listen_fd_ < 0) {
    return Status::FailedPrecondition("Start() was not called");
  }
  while (!shutdown_requested()) {
    pollfd pfd;
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    // A bounded poll so the shutdown flag (set from a signal handler) is
    // observed within ~100ms even on an idle server.
    const int ready = ::poll(&pfd, 1, 100);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("poll: ") + std::strerror(errno));
    }
    if (ready > 0 && (pfd.revents & POLLIN) != 0) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd >= 0) {
        if (connections_ != nullptr) connections_->Add();
        auto conn = std::make_unique<Connection>();
        conn->fd = fd;
        Connection* raw = conn.get();
        std::lock_guard<std::mutex> lock(conns_mu_);
        conns_.push_back(std::move(conn));
        raw->thread = std::thread([this, raw] { ServeConnection(raw); });
        if (connections_open_ != nullptr) {
          connections_open_->Set(static_cast<double>(conns_.size()));
        }
      }
    }
    ReapConnections(/*join_all=*/false);
  }

  // Drain. Order matters: stop accepting first, then stop admitting, then
  // run everything already admitted to completion. Existing connections
  // keep being served throughout (their threads are independent), so a
  // client can poll an in-flight job across the SIGTERM and still fetch
  // its result.
  ::close(listen_fd_);
  listen_fd_ = -1;
  jobs_->BeginDrain();
  jobs_->Shutdown();

  const auto grace_deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.drain_grace_ms);
  for (;;) {
    ReapConnections(/*join_all=*/false);
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      if (conns_.empty()) break;
    }
    if (std::chrono::steady_clock::now() >= grace_deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  SeverConnections();
  ReapConnections(/*join_all=*/true);
  return Status::OK();
}

void Server::ServeConnection(Connection* conn) {
  for (;;) {
    Result<std::string> payload = ReadFrame(conn->fd, options_.max_frame_bytes);
    if (!payload.ok()) {
      if (payload.status().code() == StatusCode::kInvalidArgument) {
        // Oversized announced length: the payload cannot be skipped, so the
        // connection is done for — but a typed reply still fits first.
        WriteFrame(conn->fd,
                   ErrorResponse(Json::Null(), ErrorCode::kFrameTooLarge,
                                 payload.status().message()));
        if (request_errors_ != nullptr) request_errors_->Add();
      }
      break;  // Clean EOF, truncation, or socket error: drop silently.
    }
    const auto start = std::chrono::steady_clock::now();
    const uint64_t request_id =
        next_request_id_.fetch_add(1, std::memory_order_relaxed);
    bool close_connection = false;
    const std::string response =
        DispatchFrame(*payload, request_id, &close_connection);
    if (requests_ != nullptr) requests_->Add();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    if (request_seconds_ != nullptr) request_seconds_->Observe(seconds);
    if (request_seconds_window_ != nullptr) {
      request_seconds_window_->Observe(seconds);
    }
    KANON_LOG_EVENT(logger_, flight_, LogLevel::kDebug, "request.done",
                    LogField::U64("request_id", request_id),
                    LogField::Dbl("seconds", seconds),
                    LogField::U64("response_bytes", response.size()));
    if (!WriteFrame(conn->fd, response).ok()) break;
    if (close_connection) break;
  }
  // The fd is NOT closed here: the reaper closes it after joining this
  // thread, so a concurrent SeverConnections() cannot race a recycled fd.
  conn->done.store(true, std::memory_order_release);
}

std::string Server::DispatchFrame(const std::string& payload,
                                  uint64_t request_id,
                                  bool* close_connection) {
  ErrorCode code = ErrorCode::kParseError;
  Result<Request> request = DecodeRequest(payload, &code);
  if (!request.ok()) {
    if (request_errors_ != nullptr) request_errors_->Add();
    KANON_LOG_EVENT(logger_, flight_, LogLevel::kWarn, "request.invalid",
                    LogField::U64("request_id", request_id),
                    LogField::Str("code", ErrorCodeName(code)));
    return ErrorResponse(Json::Null(), code, request.status().message());
  }
  return Dispatch(*request, request_id, close_connection);
}

std::string Server::Dispatch(const Request& request, uint64_t request_id,
                             bool* close_connection) {
  KANON_LOG_EVENT(logger_, flight_, LogLevel::kDebug, "request",
                  LogField::U64("request_id", request_id),
                  LogField::Str("method", request.method));
  {
    // Crash-rehearsal hook: an armed serve.crash failpoint flight-records
    // the hit and dies by abort, exactly like a real fatal bug would —
    // the path the flight-recorder dump test drives end to end.
    const Status crash = failpoint::Check("serve.crash");
    if (!crash.ok()) {
      KANON_LOG_EVENT(logger_, flight_, LogLevel::kError, "serve.crash",
                      LogField::U64("request_id", request_id),
                      LogField::Str("method", request.method));
      std::abort();
    }
  }
  {
    // Robustness-test hook: an armed serve.dispatch failpoint turns into a
    // typed internal error, proving injected dispatch faults cannot crash
    // or desync the connection.
    const Status injected = failpoint::Check("serve.dispatch");
    if (!injected.ok()) {
      if (request_errors_ != nullptr) request_errors_->Add();
      KANON_LOG_EVENT(logger_, flight_, LogLevel::kWarn, "serve.failpoint",
                      LogField::U64("request_id", request_id),
                      LogField::Str("name", "serve.dispatch"));
      return ErrorResponse(request.id, ErrorCode::kInternal,
                           injected.ToString());
    }
  }
  if (request.method == "ping") {
    Json result = Json::Object();
    result.Set("pong", Json::Bool(true));
    result.Set("draining", Json::Bool(jobs_->draining()));
    return OkResponse(request.id, std::move(result));
  }
  if (request.method == "submit") return HandleSubmit(request, request_id);
  if (request.method == "poll") return HandlePoll(request);
  if (request.method == "fetch") return HandleFetch(request);
  if (request.method == "fetch_trace") return HandleFetchTrace(request);
  if (request.method == "flight_recorder") return HandleFlightRecorder(request);
  if (request.method == "cancel") return HandleCancel(request);
  if (request.method == "register_table") return HandleRegisterTable(request);
  if (request.method == "verify") return HandleVerify(request);
  if (request.method == "attack") return HandleAttack(request);
  if (request.method == "metrics") return HandleMetrics(request);
  if (request.method == "shutdown") {
    RequestShutdown();
    *close_connection = true;
    Json result = Json::Object();
    result.Set("draining", Json::Bool(true));
    return OkResponse(request.id, std::move(result));
  }
  if (request_errors_ != nullptr) request_errors_->Add();
  return ErrorResponse(request.id, ErrorCode::kUnknownMethod,
                       "unknown method '" + request.method + "'");
}

std::string Server::HandleSubmit(const Request& request, uint64_t request_id) {
  // Admission stops the instant shutdown is requested (the signal handler
  // stores the flag synchronously) — not 100ms later when the accept loop
  // notices and begins the drain proper.
  if (shutdown_requested()) {
    return ErrorResponse(request.id, ErrorCode::kShuttingDown,
                         "server is draining; no new work is admitted");
  }
  const Json& params = request.params;
  const Json* csv = params.Find("csv");
  if (csv == nullptr || !csv->is_string()) {
    return ErrorResponse(request.id, ErrorCode::kInvalidParams,
                         "params.csv (string) is required");
  }
  Result<ParsedTable> parsed = ParseCsvAndSpec(
      csv->string_value(), params.GetString("spec", ""), schemes_);
  if (!parsed.ok()) {
    return ErrorResponse(request.id, ErrorCode::kInvalidParams,
                         parsed.status().ToString());
  }
  JobRequest job(std::move(parsed->dataset));
  job.scheme = std::move(parsed->scheme);

  Result<RunRequest> run = ReadRunRequest(
      [&params](const RunField& field) { return ParamValue(params, field); });
  if (!run.ok()) {
    return ErrorResponse(request.id, ErrorCode::kInvalidParams,
                         run.status().message());
  }
  // No method can group n rows into classes of more than n, so a larger k
  // (`"k": 1e300` clamps to INT64_MAX) is refused here, not run.
  if (run->config.k > job.dataset.num_rows()) {
    return ErrorResponse(request.id, ErrorCode::kInvalidParams,
                         "params.k must not exceed the table's " +
                             std::to_string(job.dataset.num_rows()) +
                             " rows");
  }
  job.run = std::move(run).value();
  job.debug_sleep_ms = params.GetInt("debug_sleep_ms", 0);
  job.publish_as = params.GetString("publish_as", "");
  job.capture_trace = params.GetBool("capture_trace", false);

  SubmitDenied denied = SubmitDenied::kNone;
  Result<uint64_t> job_id = jobs_->Submit(std::move(job), &denied);
  if (!job_id.ok()) {
    const ErrorCode code = denied == SubmitDenied::kOverloaded
                               ? ErrorCode::kOverloaded
                               : denied == SubmitDenied::kDraining
                                     ? ErrorCode::kShuttingDown
                                     : ErrorCode::kInternal;
    return ErrorResponse(request.id, code, job_id.status().message());
  }
  // The request_id -> job_id edge: the one record that lets an operator
  // walk from a connection's request log into the job's lifecycle log.
  KANON_LOG_EVENT(logger_, flight_, LogLevel::kInfo, "request.submit",
                  LogField::U64("request_id", request_id),
                  LogField::U64("job_id", *job_id));
  Json result = Json::Object();
  result.Set("job_id", Json::Number(static_cast<int64_t>(*job_id)));
  result.Set("queue_depth",
             Json::Number(static_cast<int64_t>(jobs_->queue_depth())));
  return OkResponse(request.id, std::move(result));
}

std::string Server::HandlePoll(const Request& request) {
  uint64_t job_id = 0;
  std::string error;
  if (!GetJobId(request.params, &job_id, &error)) {
    return ErrorResponse(request.id, ErrorCode::kInvalidParams, error);
  }
  JobSnapshot snapshot;
  if (!jobs_->Snapshot(job_id, &snapshot)) {
    return ErrorResponse(request.id, ErrorCode::kNotFound,
                         "no job " + std::to_string(job_id));
  }
  return OkResponse(request.id, SnapshotToJson(snapshot));
}

std::string Server::HandleFetch(const Request& request) {
  uint64_t job_id = 0;
  std::string error;
  if (!GetJobId(request.params, &job_id, &error)) {
    return ErrorResponse(request.id, ErrorCode::kInvalidParams, error);
  }
  Result<std::string> csv = jobs_->FetchCsv(job_id);
  if (!csv.ok()) {
    return ErrorResponse(request.id, CodeForStatus(csv.status()),
                         csv.status().message());
  }
  Json result = Json::Object();
  result.Set("job_id", Json::Number(static_cast<int64_t>(job_id)));
  result.Set("csv", Json::Str(std::move(*csv)));
  return OkResponse(request.id, std::move(result));
}

std::string Server::HandleCancel(const Request& request) {
  uint64_t job_id = 0;
  std::string error;
  if (!GetJobId(request.params, &job_id, &error)) {
    return ErrorResponse(request.id, ErrorCode::kInvalidParams, error);
  }
  if (!jobs_->Cancel(job_id)) {
    return ErrorResponse(request.id, ErrorCode::kNotFound,
                         "no job " + std::to_string(job_id));
  }
  Json result = Json::Object();
  result.Set("job_id", Json::Number(static_cast<int64_t>(job_id)));
  result.Set("cancelled", Json::Bool(true));
  return OkResponse(request.id, std::move(result));
}

std::string Server::HandleRegisterTable(const Request& request) {
  const Json& params = request.params;
  const std::string name = params.GetString("name", "");
  if (name.empty()) {
    return ErrorResponse(request.id, ErrorCode::kInvalidParams,
                         "params.name (non-empty string) is required");
  }
  const Json* csv = params.Find("csv");
  const Json* generalized = params.Find("generalized_csv");
  if (csv == nullptr || !csv->is_string() || generalized == nullptr ||
      !generalized->is_string()) {
    return ErrorResponse(
        request.id, ErrorCode::kInvalidParams,
        "params.csv and params.generalized_csv (strings) are required");
  }
  Result<ParsedTable> parsed = ParseCsvAndSpec(
      csv->string_value(), params.GetString("spec", ""), schemes_);
  if (!parsed.ok()) {
    return ErrorResponse(request.id, ErrorCode::kInvalidParams,
                         parsed.status().ToString());
  }
  std::istringstream generalized_stream(generalized->string_value());
  Result<GeneralizedTable> table =
      ReadGeneralizedCsv(parsed->scheme, generalized_stream);
  if (!table.ok()) {
    return ErrorResponse(request.id, ErrorCode::kInvalidParams,
                         table.status().ToString());
  }
  const size_t rows = parsed->dataset.num_rows();
  const Status registered = tables_.Register(
      name, std::make_shared<PublishedTable>(parsed->scheme,
                                             std::move(parsed->dataset),
                                             std::move(*table)));
  if (!registered.ok()) {
    // A full store is the read path's admission bound — same typed error
    // as the job queue's.
    return ErrorResponse(request.id, ErrorCode::kOverloaded,
                         registered.message());
  }
  Json result = Json::Object();
  result.Set("name", Json::Str(name));
  result.Set("rows", Json::Number(static_cast<int64_t>(rows)));
  result.Set("tables", Json::Number(static_cast<int64_t>(tables_.size())));
  return OkResponse(request.id, std::move(result));
}

std::string Server::HandleVerify(const Request& request) {
  const Json& params = request.params;
  const std::string name = params.GetString("table", "");
  const std::shared_ptr<const PublishedTable> published = tables_.Find(name);
  if (published == nullptr) {
    return ErrorResponse(request.id, ErrorCode::kNotFound,
                         "no published table '" + name + "'");
  }
  const int64_t k = params.GetInt("k", 0);
  if (k < 1) {
    return ErrorResponse(request.id, ErrorCode::kInvalidParams,
                         "params.k must be a positive integer");
  }
  Result<AnonymityNotion> notion =
      ParseNotionShortName(params.GetString("notion", "k-anonymity"));
  if (!notion.ok()) {
    return ErrorResponse(request.id, ErrorCode::kInvalidParams,
                         notion.status().message());
  }
  Result<NotionWitness> witness =
      WitnessNotion(*notion, published->dataset, published->table,
                    static_cast<size_t>(k));
  if (!witness.ok()) {
    return ErrorResponse(request.id, CodeForStatus(witness.status()),
                         witness.status().ToString());
  }
  Json result = Json::Object();
  result.Set("table", Json::Str(name));
  result.Set("notion", Json::Str(AnonymityNotionName(*notion)));
  result.Set("k", Json::Number(k));
  result.Set("satisfied", Json::Bool(witness->satisfied));
  if (!witness->satisfied) {
    result.Set("witness",
               Json::Str(witness->ToString(static_cast<size_t>(k))));
    result.Set("row", Json::Number(static_cast<int64_t>(witness->row)));
    result.Set("observed",
               Json::Number(static_cast<int64_t>(witness->observed)));
  }
  return OkResponse(request.id, std::move(result));
}

std::string Server::HandleAttack(const Request& request) {
  const Json& params = request.params;
  const std::string name = params.GetString("table", "");
  const std::shared_ptr<const PublishedTable> published = tables_.Find(name);
  if (published == nullptr) {
    return ErrorResponse(request.id, ErrorCode::kNotFound,
                         "no published table '" + name + "'");
  }
  const int64_t k = params.GetInt("k", 0);
  if (k < 1) {
    return ErrorResponse(request.id, ErrorCode::kInvalidParams,
                         "params.k must be a positive integer");
  }
  const AttackResult attack = MatchReductionAttack(
      published->dataset, published->table, static_cast<size_t>(k));
  Json result = Json::Object();
  result.Set("table", Json::Str(name));
  result.Set("k", Json::Number(k));
  result.Set("rows", Json::Number(static_cast<int64_t>(
                         published->dataset.num_rows())));
  result.Set("min_neighbors",
             Json::Number(static_cast<int64_t>(attack.min_neighbors())));
  result.Set("min_matches",
             Json::Number(static_cast<int64_t>(attack.min_matches())));
  result.Set("breached", Json::Number(static_cast<int64_t>(
                             attack.breached_records.size())));
  result.Set("reidentified", Json::Number(static_cast<int64_t>(
                                 attack.reidentified_records.size())));
  result.Set("breached_records", IdList(attack.breached_records));
  result.Set("reidentified_records", IdList(attack.reidentified_records));
  return OkResponse(request.id, std::move(result));
}

std::string Server::HandleFetchTrace(const Request& request) {
  uint64_t job_id = 0;
  std::string error;
  if (!GetJobId(request.params, &job_id, &error)) {
    return ErrorResponse(request.id, ErrorCode::kInvalidParams, error);
  }
  Result<std::string> trace = jobs_->FetchTrace(job_id);
  if (!trace.ok()) {
    return ErrorResponse(request.id, CodeForStatus(trace.status()),
                         trace.status().message());
  }
  Json result = Json::Object();
  result.Set("job_id", Json::Number(static_cast<int64_t>(job_id)));
  result.Set("trace", Json::Str(std::move(*trace)));
  return OkResponse(request.id, std::move(result));
}

std::string Server::HandleFlightRecorder(const Request& request) {
  Json events = Json::Array();
  size_t capacity = 0;
  uint64_t total = 0;
  if (flight_ != nullptr) {
    capacity = flight_->capacity();
    total = flight_->total_recorded();
    for (const std::string& line : flight_->Snapshot()) {
      // Every recorded line is rendered JSON, but a live endpoint should
      // not trust that: an unparseable line is returned as a raw string
      // rather than poisoning the whole response.
      Result<Json> parsed = Json::Parse(line);
      events.Push(parsed.ok() ? std::move(*parsed) : Json::Str(line));
    }
  }
  Json result = Json::Object();
  result.Set("events", std::move(events));
  result.Set("capacity", Json::Number(static_cast<int64_t>(capacity)));
  result.Set("total_recorded", Json::Number(static_cast<int64_t>(total)));
  return OkResponse(request.id, std::move(result));
}

std::string Server::HandleMetrics(const Request& request) {
  if (metrics_ == nullptr) {
    return OkResponse(request.id, Json::Object());
  }
  RefreshUptime();
  Result<Json> parsed = Json::Parse(metrics_->ToJson(true));
  if (!parsed.ok()) {
    return ErrorResponse(request.id, ErrorCode::kInternal,
                         parsed.status().ToString());
  }
  return OkResponse(request.id, std::move(*parsed));
}

void Server::ReapConnections(bool join_all) {
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (auto it = conns_.begin(); it != conns_.end();) {
    Connection* conn = it->get();
    if (join_all || conn->done.load(std::memory_order_acquire)) {
      if (conn->thread.joinable()) conn->thread.join();
      if (conn->fd >= 0) ::close(conn->fd);
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
  if (connections_open_ != nullptr) {
    connections_open_->Set(static_cast<double>(conns_.size()));
  }
}

void Server::SeverConnections() {
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (const auto& conn : conns_) {
    if (!conn->done.load(std::memory_order_acquire) && conn->fd >= 0) {
      ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
}

}  // namespace serve
}  // namespace kanon
