#include "kanon/serve/job_manager.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <thread>

#include "kanon/anonymity/verify.h"
#include "kanon/common/failpoint.h"
#include "kanon/generalization/generalized_csv.h"
#include "kanon/telemetry/trace_export.h"

namespace kanon {
namespace serve {
namespace {

/// Completed capture_trace renderings kept for fetch_trace (LRU).
constexpr size_t kTraceCacheCapacity = 8;

/// Checks `table` against the notion the request's method promises (Defs
/// 4.1, 4.4 and 4.6): the check kanon_cli makes before it writes a table.
/// A violation is an error carrying the witness text.
Status VerifyPromise(const JobRequest& request, const GeneralizedTable& table) {
  KANON_FAILPOINT("serve.verify");
  const size_t k = request.run.config.k;
  KANON_ASSIGN_OR_RETURN(
      NotionWitness witness,
      WitnessNotion(PromisedNotion(request.run.config.method), request.dataset,
                    table, k));
  if (!witness.satisfied) return Status::Internal(witness.ToString(k));
  return Status::OK();
}

}  // namespace

const char* JobStateName(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
  }
  return "unknown";
}

/// Internal job record. The manager's mutex orders queue membership and
/// state transitions; the job's own mutex guards the fields `poll` reads,
/// so a running job's progress updates never contend with the queue.
struct JobManager::Job {
  explicit Job(uint64_t id_in, JobRequest request_in)
      : id(id_in), request(std::move(request_in)) {}

  const uint64_t id;
  JobRequest request;
  std::shared_ptr<CancellationToken> cancel;

  mutable std::mutex mu;
  JobState state = JobState::kQueued;
  std::string progress_stage;
  size_t progress_steps = 0;
  JobSnapshot outcome;  // Filled when the job reaches kDone/kFailed.
  std::string table_csv;
};

JobManager::JobManager(const JobManagerOptions& options,
                       RunContext* server_context, MetricsRegistry* metrics,
                       TableStore* store, Logger* logger,
                       FlightRecorder* flight)
    : options_(options),
      server_context_(server_context),
      metrics_(metrics),
      store_(store),
      logger_(logger),
      flight_(flight) {
  if (metrics_ != nullptr) {
    jobs_accepted_ = metrics_->GetCounter("serve.jobs_accepted");
    jobs_rejected_ = metrics_->GetCounter("serve.jobs_rejected");
    jobs_completed_ = metrics_->GetCounter("serve.jobs_completed");
    jobs_failed_ = metrics_->GetCounter("serve.jobs_failed");
    jobs_degraded_ = metrics_->GetCounter("serve.jobs_degraded");
    jobs_deadline_expired_ =
        metrics_->GetCounter("serve.jobs_deadline_expired");
    jobs_cancelled_ = metrics_->GetCounter("serve.jobs_cancelled");
    queue_depth_gauge_ =
        metrics_->GetGauge("serve.queue_depth", /*deterministic=*/false);
    jobs_running_gauge_ =
        metrics_->GetGauge("serve.jobs_running", /*deterministic=*/false);
    job_seconds_ = metrics_->GetHistogram(
        "serve.job_seconds", {0.001, 0.01, 0.1, 1.0, 10.0, 60.0},
        /*deterministic=*/false);
    job_seconds_window_ = metrics_->GetRollingHistogram(
        "serve.job_seconds_window", {0.001, 0.01, 0.1, 1.0, 10.0, 60.0});
  }
  const size_t workers = std::max<size_t>(1, options_.workers);
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

JobManager::~JobManager() { Shutdown(); }

Result<uint64_t> JobManager::Submit(JobRequest request, SubmitDenied* denied) {
  std::lock_guard<std::mutex> lock(mu_);
  if (draining_) {
    *denied = SubmitDenied::kDraining;
    if (jobs_rejected_ != nullptr) jobs_rejected_->Add();
    KANON_LOG_EVENT(logger_, flight_, LogLevel::kWarn,
                    "job.rejected", LogField::Str("reason", "draining"));
    return Status::FailedPrecondition("server is draining");
  }
  if (queue_.size() >= options_.queue_bound) {
    *denied = SubmitDenied::kOverloaded;
    if (jobs_rejected_ != nullptr) jobs_rejected_->Add();
    KANON_LOG_EVENT(logger_, flight_, LogLevel::kWarn,
                    "job.rejected", LogField::Str("reason", "overloaded"),
                    LogField::U64("queue_depth", queue_.size()));
    return Status::FailedPrecondition(
        "job queue is full (" + std::to_string(queue_.size()) + " of " +
        std::to_string(options_.queue_bound) + " slots)");
  }
  *denied = SubmitDenied::kNone;
  const uint64_t id = next_id_++;
  auto job = std::make_shared<Job>(id, std::move(request));
  // The token exists from admission on (a queued job must be cancellable)
  // and chains to the server's root token, so a server-level cancel stops
  // every job while cancelling one job touches nothing else.
  std::shared_ptr<const CancellationToken> parent;
  if (server_context_ != nullptr) parent = server_context_->cancel_token();
  job->cancel = std::make_shared<CancellationToken>(std::move(parent));
  job->outcome.id = id;
  job->outcome.rows = job->request.dataset.num_rows();
  jobs_.emplace(id, job);
  queue_.push_back(std::move(job));
  if (jobs_accepted_ != nullptr) jobs_accepted_->Add();
  if (queue_depth_gauge_ != nullptr) {
    queue_depth_gauge_->Set(static_cast<double>(queue_.size()));
  }
  {
    const Job& admitted = *jobs_.at(id);
    const AnonymizerConfig& config = admitted.request.run.config;
    KANON_LOG_EVENT(
        logger_, flight_, LogLevel::kInfo, "job.admitted",
        LogField::U64("job_id", id),
        LogField::U64("rows", admitted.request.dataset.num_rows()),
        LogField::U64("k", config.k),
        LogField::Str("method", AnonymizationMethodName(config.method)),
        LogField::U64("queue_depth", queue_.size()),
        LogField::Bool("capture_trace", admitted.request.capture_trace));
  }
  work_available_.notify_one();
  return id;
}

void JobManager::WorkerLoop() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_available_.wait(lock,
                           [this] { return draining_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (draining_) return;
        continue;
      }
      job = queue_.front();
      queue_.pop_front();
      ++running_;
      if (queue_depth_gauge_ != nullptr) {
        queue_depth_gauge_->Set(static_cast<double>(queue_.size()));
      }
      if (jobs_running_gauge_ != nullptr) {
        jobs_running_gauge_->Set(static_cast<double>(running_));
      }
    }
    RunJob(job.get());
    {
      std::lock_guard<std::mutex> lock(mu_);
      --running_;
      if (jobs_running_gauge_ != nullptr) {
        jobs_running_gauge_->Set(static_cast<double>(running_));
      }
    }
    job_finished_.notify_all();
  }
}

void JobManager::RunJob(Job* job) {
  JobRequest& request = job->request;
  {
    std::lock_guard<std::mutex> lock(job->mu);
    job->state = JobState::kRunning;
  }
  KANON_LOG_EVENT(logger_, flight_, LogLevel::kInfo,
                  "job.started", LogField::U64("job_id", job->id));

  // Per-job trace capture. The Tracer is constructed here, on the worker
  // thread, because construction binds lane 0 — the deterministic
  // coordinator lane — to the constructing thread, and this thread is the
  // one that runs the pipeline.
  std::unique_ptr<Tracer> tracer;
  if (request.capture_trace) tracer = std::make_unique<Tracer>();

  // Execution controls: fork the server's root budget (linked cancellation,
  // child deadline/steps can never exceed what the server has left), then
  // intersect with the per-request bounds.
  RunContext ctx;
  if (server_context_ != nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    ctx = server_context_->Fork(1.0);
  }
  ctx.set_cancel_token(job->cancel);
  int64_t timeout_ms = request.run.timeout_ms;
  if (timeout_ms <= 0) timeout_ms = options_.default_timeout_ms;
  if (timeout_ms > 0) {
    const double limit = static_cast<double>(timeout_ms) / 1000.0;
    ctx.ArmDeadline(std::min(limit, ctx.RemainingSeconds()));
  }
  if (request.run.max_steps > 0) {
    const size_t steps = static_cast<size_t>(request.run.max_steps);
    if (steps < ctx.RemainingSteps()) ctx.set_step_budget(steps);
  }
  ctx.set_progress_observer(
      [this, job](const RunProgress& progress) {
        bool stage_changed = false;
        {
          std::lock_guard<std::mutex> lock(job->mu);
          stage_changed = job->progress_stage != progress.stage;
          job->progress_stage = progress.stage;
          job->progress_steps = progress.steps;
        }
        // Stage transitions (not every checkpoint — the observer fires
        // every 64 steps) go to the flight recorder: they are exactly
        // what a post-mortem needs to place the crash inside the run.
        if (stage_changed) {
          KANON_LOG_EVENT(logger_, flight_, LogLevel::kDebug, "job.stage",
                          LogField::U64("job_id", job->id),
                          LogField::Str("stage", progress.stage),
                          LogField::U64("steps", progress.steps));
        }
      },
      /*interval_steps=*/64);

  // Test hook: occupy the worker slot, cancellably, before running — how
  // the concurrency suite makes "queue full" a deterministic state.
  if (options_.enable_test_hooks && request.debug_sleep_ms > 0) {
    // Elapsed time is compared in milliseconds: now + debug_sleep_ms would
    // overflow the clock for a clamped INT64_MAX.
    const auto start = std::chrono::steady_clock::now();
    while (std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - start)
                   .count() < request.debug_sleep_ms &&
           ctx.StopRequested() == StopReason::kNone) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  // A copy, so the job record never holds pointers to this frame's context
  // and tracer.
  AnonymizerConfig config = request.run.config;
  config.num_threads = options_.job_threads;
  config.run_context = &ctx;
  config.metrics = metrics_;  // Service-wide engine.*/run.* aggregates.
  config.tracer = tracer.get();

  const PrecomputedLoss loss(request.scheme, request.dataset,
                             *request.run.measure, options_.job_threads);
  Result<AnonymizationResult> result = Anonymize(request.dataset, loss, config);

  // From here on the run is finished, so reading the tracer is safe. The
  // trace is cached for every terminal state (the trace of a failed job is
  // precisely the one worth retrieving), and before that state is
  // published, so a client that polls `done` can fetch it at once.
  if (tracer != nullptr) StoreTrace(job->id, ChromeTraceJson(*tracer));
  if (!result.ok()) return FailJob(job, result.status());
  // Verified before anything leaves the job: a violating table is neither
  // fetchable nor published.
  if (Status verified = VerifyPromise(request, result->table); !verified.ok()) {
    return FailJob(job, verified);
  }
  std::ostringstream csv;
  if (Status written = WriteGeneralizedCsv(result->table, csv);
      !written.ok()) {
    return FailJob(job, written);
  }

  if (!request.publish_as.empty() && store_ != nullptr) {
    // Publishing moves the dataset and table into the read-path store; the
    // job keeps only the serialized CSV. A full store is not a job failure
    // — the result is still fetchable — so it only logs as one would.
    Status published = store_->Register(
        request.publish_as,
        std::make_shared<PublishedTable>(request.scheme,
                                         std::move(request.dataset),
                                         result->table));
    if (!published.ok()) {
      std::lock_guard<std::mutex> lock(job->mu);
      job->outcome.error = "publish failed: " + published.ToString();
    }
  }

  {
    std::lock_guard<std::mutex> lock(job->mu);
    job->state = JobState::kDone;
    job->table_csv = csv.str();
    JobSnapshot& out = job->outcome;
    out.state = JobState::kDone;
    out.loss = result->loss;
    out.elapsed_seconds = result->elapsed_seconds;
    out.degraded = result->degraded;
    out.degraded_stage = result->degraded_stage;
    out.stop_reason = StopReasonName(result->stop_reason);
    out.iterations_completed = result->iterations_completed;
    out.records_suppressed = result->records_suppressed;
  }
  if (jobs_completed_ != nullptr) jobs_completed_->Add();
  if (result->degraded && jobs_degraded_ != nullptr) jobs_degraded_->Add();
  if (result->stop_reason == StopReason::kDeadline &&
      jobs_deadline_expired_ != nullptr) {
    jobs_deadline_expired_->Add();
  }
  if (result->stop_reason == StopReason::kCancelled &&
      jobs_cancelled_ != nullptr) {
    jobs_cancelled_->Add();
  }
  if (job_seconds_ != nullptr) job_seconds_->Observe(result->elapsed_seconds);
  if (job_seconds_window_ != nullptr) {
    job_seconds_window_->Observe(result->elapsed_seconds);
  }
  KANON_LOG_EVENT(logger_, flight_, LogLevel::kInfo,
                  "job.done", LogField::U64("job_id", job->id),
                  LogField::Dbl("seconds", result->elapsed_seconds),
                  LogField::Dbl("loss", result->loss),
                  LogField::Bool("degraded", result->degraded),
                  LogField::Str("stop_reason",
                                StopReasonName(result->stop_reason)));
  if (result->degraded) {
    KANON_LOG_EVENT(logger_, flight_, LogLevel::kWarn,
                    "job.degraded", LogField::U64("job_id", job->id),
                    LogField::Str("stage", result->degraded_stage),
                    LogField::Str("stop_reason",
                                  StopReasonName(result->stop_reason)));
  }
}

void JobManager::FailJob(Job* job, const Status& status) {
  {
    std::lock_guard<std::mutex> lock(job->mu);
    job->state = JobState::kFailed;
    job->outcome.state = JobState::kFailed;
    job->outcome.error = status.ToString();
  }
  if (jobs_failed_ != nullptr) jobs_failed_->Add();
  KANON_LOG_EVENT(logger_, flight_, LogLevel::kError, "job.failed",
                  LogField::U64("job_id", job->id),
                  LogField::Str("error", status.ToString()));
}

void JobManager::StoreTrace(uint64_t job_id, std::string trace_json) {
  std::lock_guard<std::mutex> lock(trace_mu_);
  if (trace_cache_.size() >= kTraceCacheCapacity &&
      !trace_cache_.empty()) {
    trace_cache_.pop_front();
  }
  trace_cache_.push_back(TraceEntry{
      job_id, std::make_shared<const std::string>(std::move(trace_json))});
}

Result<std::string> JobManager::FetchTrace(uint64_t id) const {
  std::shared_ptr<Job> job;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) {
      return Status::NotFound("no job " + std::to_string(id));
    }
    job = it->second;
  }
  {
    std::lock_guard<std::mutex> lock(job->mu);
    if (!job->request.capture_trace) {
      return Status::FailedPrecondition(
          "job " + std::to_string(id) +
          " did not capture a trace; submit with capture_trace");
    }
    if (job->state != JobState::kDone && job->state != JobState::kFailed) {
      return Status::FailedPrecondition(
          std::string("job is still ") + JobStateName(job->state));
    }
  }
  std::lock_guard<std::mutex> lock(trace_mu_);
  for (auto it = trace_cache_.begin(); it != trace_cache_.end(); ++it) {
    if (it->job_id == id) {
      // Refresh recency so repeatedly inspected traces survive churn.
      trace_cache_.splice(trace_cache_.end(), trace_cache_, it);
      return std::string(*trace_cache_.back().trace_json);
    }
  }
  return Status::NotFound("trace for job " + std::to_string(id) +
                          " was evicted (trace cache holds " +
                          std::to_string(kTraceCacheCapacity) +
                          ")");
}

bool JobManager::Snapshot(uint64_t id, JobSnapshot* out) const {
  std::shared_ptr<Job> job;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return false;
    job = it->second;
  }
  std::lock_guard<std::mutex> lock(job->mu);
  *out = job->outcome;
  out->id = id;
  out->state = job->state;
  out->progress_stage = job->progress_stage;
  out->progress_steps = job->progress_steps;
  return true;
}

Result<std::string> JobManager::FetchCsv(uint64_t id) const {
  std::shared_ptr<Job> job;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) {
      return Status::NotFound("no job " + std::to_string(id));
    }
    job = it->second;
  }
  std::lock_guard<std::mutex> lock(job->mu);
  if (job->state == JobState::kFailed) {
    return Status::FailedPrecondition("job failed: " + job->outcome.error);
  }
  if (job->state != JobState::kDone) {
    return Status::FailedPrecondition(
        std::string("job is still ") + JobStateName(job->state));
  }
  return job->table_csv;
}

bool JobManager::Cancel(uint64_t id) {
  std::shared_ptr<Job> job;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return false;
    job = it->second;
  }
  job->cancel->Cancel();
  return true;
}

void JobManager::BeginDrain() {
  std::lock_guard<std::mutex> lock(mu_);
  draining_ = true;
  work_available_.notify_all();
}

bool JobManager::draining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_;
}

void JobManager::Shutdown() {
  BeginDrain();
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (workers_joined_) return;
    workers_joined_ = true;
  }
  for (std::thread& worker : workers_) worker.join();
}

size_t JobManager::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

}  // namespace serve
}  // namespace kanon
