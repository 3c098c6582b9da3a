#include "kanon/serve/job_manager.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <thread>

#include "kanon/generalization/generalized_csv.h"
#include "kanon/serve/params.h"
#include "kanon/telemetry/trace_export.h"

namespace kanon {
namespace serve {

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
                       TableStore* store)
    : options_(options),
      server_context_(server_context),
      metrics_(metrics),
      store_(store) {
  if (metrics_ != nullptr) {
    jobs_accepted_ = metrics_->GetCounter("serve.jobs_accepted");
    jobs_rejected_ = metrics_->GetCounter("serve.jobs_rejected");
    jobs_completed_ = metrics_->GetCounter("serve.jobs_completed");
    jobs_failed_ = metrics_->GetCounter("serve.jobs_failed");
    jobs_degraded_ = metrics_->GetCounter("serve.jobs_degraded");
    jobs_deadline_expired_ =
        metrics_->GetCounter("serve.jobs_deadline_expired");
    jobs_cancelled_ = metrics_->GetCounter("serve.jobs_cancelled");
    loss_cache_hits_ = metrics_->GetCounter("serve.loss_cache_hits");
    loss_cache_misses_ = metrics_->GetCounter("serve.loss_cache_misses");
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
    KANON_LOG_EVENT(options_.logger, options_.flight, LogLevel::kWarn,
                    "job.rejected", LogField::Str("reason", "draining"));
    return Status::FailedPrecondition("server is draining");
  }
  if (queue_.size() >= options_.queue_bound) {
    *denied = SubmitDenied::kOverloaded;
    if (jobs_rejected_ != nullptr) jobs_rejected_->Add();
    KANON_LOG_EVENT(options_.logger, options_.flight, LogLevel::kWarn,
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
    KANON_LOG_EVENT(
        options_.logger, options_.flight, LogLevel::kInfo, "job.admitted",
        LogField::U64("job_id", id),
        LogField::U64("rows", admitted.request.dataset.num_rows()),
        LogField::U64("k", admitted.request.k),
        LogField::Str("method",
                      AnonymizationMethodName(admitted.request.method)),
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

std::shared_ptr<const PrecomputedLoss> JobManager::LossFor(
    const JobRequest& request) {
  // Key the memo on scheme *identity* (the SchemeCache interns schemes, so
  // equal spec+schema shapes share a pointer), the exact cell contents, and
  // the measure. A miss can never alias: a different scheme object hashes
  // differently even when semantically equal, which only costs a rebuild.
  const GeneralizationScheme* scheme_ptr = request.scheme.get();
  uint64_t key = Fnv1a(&scheme_ptr, sizeof(scheme_ptr));
  key = Fnv1a(request.measure_name.data(), request.measure_name.size(), key);
  key ^= DatasetFingerprint(request.dataset);
  {
    std::lock_guard<std::mutex> lock(loss_mu_);
    for (const LossEntry& entry : loss_cache_) {
      if (entry.key == key) {
        if (loss_cache_hits_ != nullptr) loss_cache_hits_->Add();
        return entry.loss;
      }
    }
  }
  if (loss_cache_misses_ != nullptr) loss_cache_misses_->Add();
  Result<std::unique_ptr<LossMeasure>> measure =
      MakeMeasure(request.measure_name);
  if (!measure.ok()) return nullptr;
  auto loss = std::make_shared<const PrecomputedLoss>(
      request.scheme, request.dataset, *measure.value(),
      options_.job_threads);
  std::lock_guard<std::mutex> lock(loss_mu_);
  if (loss_cache_.size() >= options_.loss_cache_capacity &&
      !loss_cache_.empty()) {
    loss_cache_.pop_front();
  }
  loss_cache_.push_back(LossEntry{key, loss});
  return loss;
}

void JobManager::RunJob(Job* job) {
  {
    std::lock_guard<std::mutex> lock(job->mu);
    job->state = JobState::kRunning;
  }
  KANON_LOG_EVENT(options_.logger, options_.flight, LogLevel::kInfo,
                  "job.started", LogField::U64("job_id", job->id));

  // Per-job trace capture. The Tracer is constructed here, on the worker
  // thread, because construction binds lane 0 — the deterministic
  // coordinator lane — to the constructing thread, and this thread is the
  // one that runs the pipeline.
  std::unique_ptr<Tracer> tracer;
  if (job->request.capture_trace) tracer = std::make_unique<Tracer>();

  // Execution controls: fork the server's root budget (linked cancellation,
  // child deadline/steps can never exceed what the server has left), then
  // intersect with the per-request bounds.
  RunContext ctx;
  if (server_context_ != nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    ctx = server_context_->Fork(1.0);
  }
  ctx.set_cancel_token(job->cancel);
  int64_t timeout_ms = job->request.timeout_ms;
  if (timeout_ms <= 0) timeout_ms = options_.default_timeout_ms;
  if (timeout_ms > 0) {
    const double limit = static_cast<double>(timeout_ms) / 1000.0;
    ctx.ArmDeadline(std::min(limit, ctx.RemainingSeconds()));
  }
  if (job->request.max_steps > 0) {
    const size_t steps = static_cast<size_t>(job->request.max_steps);
    if (steps < ctx.RemainingSteps()) ctx.set_step_budget(steps);
  }
  Logger* const logger = options_.logger;
  FlightRecorder* const flight = options_.flight;
  ctx.set_progress_observer(
      [job, logger, flight](const RunProgress& progress) {
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
          KANON_LOG_EVENT(logger, flight, LogLevel::kDebug, "job.stage",
                          LogField::U64("job_id", job->id),
                          LogField::Str("stage", progress.stage),
                          LogField::U64("steps", progress.steps));
        }
      },
      /*interval_steps=*/64);

  // Test hook: occupy the worker slot, cancellably, before running — how
  // the concurrency suite makes "queue full" a deterministic state.
  if (options_.enable_test_hooks && job->request.debug_sleep_ms > 0) {
    // Elapsed time is compared in milliseconds: now + debug_sleep_ms would
    // overflow the clock for a clamped INT64_MAX.
    const auto start = std::chrono::steady_clock::now();
    while (std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - start)
                   .count() < job->request.debug_sleep_ms &&
           ctx.StopRequested() == StopReason::kNone) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  AnonymizerConfig config;
  config.k = job->request.k;
  config.method = job->request.method;
  config.distance = job->request.distance;
  config.attr_weights = job->request.attr_weights;
  config.num_threads = options_.job_threads;
  config.run_context = &ctx;
  config.metrics = metrics_;  // Service-wide engine.*/run.* aggregates.
  config.tracer = tracer.get();

  const std::shared_ptr<const PrecomputedLoss> loss =
      LossFor(job->request);
  Result<AnonymizationResult> result =
      loss == nullptr
          ? Result<AnonymizationResult>(Status::InvalidArgument(
                "unknown measure '" + job->request.measure_name + "'"))
          : Anonymize(job->request.dataset, *loss, config);

  // From here on the run is finished, so reading the tracer is safe. The
  // trace is cached for every terminal state (the trace of a failed job is
  // precisely the one worth retrieving), and before that state is
  // published, so a client that polls `done` can fetch it at once.
  if (tracer != nullptr) StoreTrace(job->id, ChromeTraceJson(*tracer));
  if (!result.ok()) {
    {
      std::lock_guard<std::mutex> lock(job->mu);
      job->state = JobState::kFailed;
      job->outcome.state = JobState::kFailed;
      job->outcome.error = result.status().ToString();
    }
    if (jobs_failed_ != nullptr) jobs_failed_->Add();
    KANON_LOG_EVENT(options_.logger, options_.flight, LogLevel::kError,
                    "job.failed", LogField::U64("job_id", job->id),
                    LogField::Str("error", result.status().ToString()));
    return;
  }

  std::ostringstream csv;
  const Status csv_status = WriteGeneralizedCsv(result->table, csv);
  if (!csv_status.ok()) {
    {
      std::lock_guard<std::mutex> lock(job->mu);
      job->state = JobState::kFailed;
      job->outcome.state = JobState::kFailed;
      job->outcome.error = csv_status.ToString();
    }
    if (jobs_failed_ != nullptr) jobs_failed_->Add();
    KANON_LOG_EVENT(options_.logger, options_.flight, LogLevel::kError,
                    "job.failed", LogField::U64("job_id", job->id),
                    LogField::Str("error", csv_status.ToString()));
    return;
  }

  if (!job->request.publish_as.empty() && store_ != nullptr) {
    // Publishing moves the dataset and table into the read-path store; the
    // job keeps only the serialized CSV. A full store is not a job failure
    // — the result is still fetchable — so it only logs as one would.
    Status published = store_->Register(
        job->request.publish_as,
        std::make_shared<PublishedTable>(job->request.scheme,
                                         std::move(job->request.dataset),
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
  KANON_LOG_EVENT(options_.logger, options_.flight, LogLevel::kInfo,
                  "job.done", LogField::U64("job_id", job->id),
                  LogField::Dbl("seconds", result->elapsed_seconds),
                  LogField::Dbl("loss", result->loss),
                  LogField::Bool("degraded", result->degraded),
                  LogField::Str("stop_reason",
                                StopReasonName(result->stop_reason)));
  if (result->degraded) {
    KANON_LOG_EVENT(options_.logger, options_.flight, LogLevel::kWarn,
                    "job.degraded", LogField::U64("job_id", job->id),
                    LogField::Str("stage", result->degraded_stage),
                    LogField::Str("stop_reason",
                                  StopReasonName(result->stop_reason)));
  }
}

void JobManager::StoreTrace(uint64_t job_id, std::string trace_json) {
  std::lock_guard<std::mutex> lock(trace_mu_);
  if (trace_cache_.size() >= options_.trace_cache_capacity &&
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
                          std::to_string(options_.trace_cache_capacity) +
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

bool JobManager::AllTerminal() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.empty() && running_ == 0;
}

size_t JobManager::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

}  // namespace serve
}  // namespace kanon
