#ifndef KANON_SERVE_JOB_MANAGER_H_
#define KANON_SERVE_JOB_MANAGER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "kanon/algo/anonymizer.h"
#include "kanon/common/result.h"
#include "kanon/common/run_context.h"
#include "kanon/data/dataset.h"
#include "kanon/generalization/scheme.h"
#include "kanon/serve/table_store.h"
#include "kanon/telemetry/flight_recorder.h"
#include "kanon/telemetry/log.h"
#include "kanon/telemetry/metrics.h"
#include "kanon/telemetry/tracer.h"

namespace kanon {
namespace serve {

/// One queued anonymize-table job, as decoded from a `submit` request.
struct JobRequest {
  Dataset dataset;
  std::shared_ptr<const GeneralizationScheme> scheme;
  /// The run the request asks for, as ReadRunRequest read it from the
  /// submit params. The worker runs a copy of its config that adds only the
  /// threads, the RunContext and the telemetry sinks; its budgets are
  /// intersected with whatever is left on the server's root RunContext.
  RunRequest run;
  /// Milliseconds the worker idles (cancellably) before running — a test
  /// hook for pinning a worker slot; only honored when the manager was
  /// built with `enable_test_hooks`.
  int64_t debug_sleep_ms = 0;
  /// When non-empty, a successful result is registered in the table store
  /// under this name, making it queryable by `verify`/`attack`.
  std::string publish_as;
  /// Attach a per-job Tracer; once the job is terminal, `fetch_trace`
  /// returns its Chrome-trace JSON (bounded LRU — old traces evict).
  bool capture_trace = false;

  explicit JobRequest(Dataset dataset_in) : dataset(std::move(dataset_in)) {}
};

enum class JobState { kQueued, kRunning, kDone, kFailed };
const char* JobStateName(JobState state);

/// What `poll` reports: one consistent copy of a job's externally visible
/// state, taken under the job's lock.
struct JobSnapshot {
  uint64_t id = 0;
  JobState state = JobState::kQueued;
  /// Live progress (meaningful while kRunning): the stage the run last
  /// checkpointed in and how many checkpoints it has passed.
  std::string progress_stage;
  size_t progress_steps = 0;
  /// Outcome (meaningful once kDone) — mirrors AnonymizationResult and the
  /// CLI's reporting vocabulary exactly (StopReasonName etc.).
  double loss = 0.0;
  double elapsed_seconds = 0.0;
  bool degraded = false;
  std::string degraded_stage;
  std::string stop_reason = "none";
  size_t iterations_completed = 0;
  size_t records_suppressed = 0;
  size_t rows = 0;
  /// Why the job failed (meaningful once kFailed).
  std::string error;
};

/// Why Submit() refused a job.
enum class SubmitDenied {
  kNone,
  kOverloaded,  // The bounded queue is full — the typed admission error.
  kDraining,    // The server is shutting down.
};

struct JobManagerOptions {
  size_t workers = 1;
  /// Jobs allowed to *wait* (running jobs are not counted). One more
  /// submission past this bound is denied kOverloaded.
  size_t queue_bound = 8;
  /// config.num_threads each job runs with.
  int job_threads = 1;
  /// Default per-job wall-clock budget when a request names none (0 = none).
  int64_t default_timeout_ms = 0;
  /// Honor JobRequest::debug_sleep_ms (tests only; kanond --test-hooks).
  bool enable_test_hooks = false;
};

/// The service's execution core: a bounded FIFO of jobs drained by a fixed
/// worker pool. Each job runs the existing Anonymize() pipelines under a
/// RunContext forked from the server's root context (linked cancellation,
/// budget intersection), publishes progress through the RunContext
/// observer, and lands its outcome — including the serialized CSV — in an
/// in-memory job record that `poll`/`fetch` read. A result is verified
/// against the notion its method promises before it is serialized or
/// published.
class JobManager {
 public:
  /// `server_context` (not owned, may be null) is the root every job forks
  /// from; `metrics` (not owned, may be null) receives the serve.* catalog;
  /// `store` (not owned, may be null) receives publish_as results;
  /// `logger` and `flight` (not owned, may be null) receive one record per
  /// job lifecycle event.
  JobManager(const JobManagerOptions& options, RunContext* server_context,
             MetricsRegistry* metrics, TableStore* store, Logger* logger,
             FlightRecorder* flight);
  ~JobManager();

  JobManager(const JobManager&) = delete;
  JobManager& operator=(const JobManager&) = delete;

  /// Admits or denies a job. On denial `*denied` says which typed error to
  /// return; on success it is kNone and the job id is returned.
  Result<uint64_t> Submit(JobRequest request, SubmitDenied* denied);

  /// False when the id is unknown.
  bool Snapshot(uint64_t id, JobSnapshot* out) const;

  /// The serialized generalized table of a completed job.
  Result<std::string> FetchCsv(uint64_t id) const;

  /// The Chrome-trace JSON of a terminal job submitted with
  /// capture_trace. kNotFound for unknown ids and evicted traces,
  /// kFailedPrecondition while the job still runs or when it never
  /// captured one.
  Result<std::string> FetchTrace(uint64_t id) const;

  /// Cancels a queued or running job (cooperative: the pipeline finalizes
  /// a degraded-but-valid table). False when the id is unknown.
  bool Cancel(uint64_t id);

  /// Stops admitting; queued and running jobs still complete.
  void BeginDrain();
  bool draining() const;

  /// BeginDrain + run every already-admitted job to completion + join the
  /// workers. Idempotent; called by the destructor.
  void Shutdown();

  size_t queue_depth() const;

 private:
  struct Job;

  void WorkerLoop();
  void RunJob(Job* job);
  /// The one exit of a job that fails: state, error, counter and log.
  void FailJob(Job* job, const Status& status);

  const JobManagerOptions options_;
  RunContext* const server_context_;
  MetricsRegistry* const metrics_;
  TableStore* const store_;
  Logger* const logger_;
  FlightRecorder* const flight_;

  // serve.* metrics, registered once (null when metrics_ is null).
  Counter* jobs_accepted_ = nullptr;
  Counter* jobs_rejected_ = nullptr;
  Counter* jobs_completed_ = nullptr;
  Counter* jobs_failed_ = nullptr;
  Counter* jobs_degraded_ = nullptr;
  Counter* jobs_deadline_expired_ = nullptr;
  Counter* jobs_cancelled_ = nullptr;
  Gauge* queue_depth_gauge_ = nullptr;
  Gauge* jobs_running_gauge_ = nullptr;
  Histogram* job_seconds_ = nullptr;
  RollingHistogram* job_seconds_window_ = nullptr;

  mutable std::mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable job_finished_;
  std::deque<std::shared_ptr<Job>> queue_;
  std::map<uint64_t, std::shared_ptr<Job>> jobs_;
  uint64_t next_id_ = 1;
  size_t running_ = 0;
  bool draining_ = false;
  bool workers_joined_ = false;
  std::vector<std::thread> workers_;

  // Rendered capture_trace results: job id -> Chrome-trace JSON, most
  // recently used at the back; lookups refresh recency, inserts evict
  // from the front.
  struct TraceEntry {
    uint64_t job_id;
    std::shared_ptr<const std::string> trace_json;
  };
  mutable std::mutex trace_mu_;
  mutable std::list<TraceEntry> trace_cache_;
  void StoreTrace(uint64_t job_id, std::string trace_json);
};

}  // namespace serve
}  // namespace kanon

#endif  // KANON_SERVE_JOB_MANAGER_H_
