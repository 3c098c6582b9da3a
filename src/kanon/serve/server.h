#ifndef KANON_SERVE_SERVER_H_
#define KANON_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "kanon/common/run_context.h"
#include "kanon/common/status.h"
#include "kanon/serve/framing.h"
#include "kanon/serve/job_manager.h"
#include "kanon/serve/params.h"
#include "kanon/serve/protocol.h"
#include "kanon/serve/table_store.h"
#include "kanon/telemetry/metrics.h"

namespace kanon {
namespace serve {

struct ServerOptions {
  /// Loopback by default: kanond has no authentication layer.
  std::string bind_address = "127.0.0.1";
  /// 0 = ephemeral; read the bound port back via Server::port().
  int port = 0;
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Distinct published tables the read path admits (verify/attack targets).
  size_t table_store_capacity = 32;
  /// Distinct (spec, schema) shapes whose parsed hierarchies stay interned.
  size_t scheme_cache_capacity = 16;
  /// After drain completes, how long existing connections may linger (e.g.
  /// to fetch a result that finished during drain) before being severed.
  int64_t drain_grace_ms = 5000;
  /// Observability sinks (not owned, may be null), shared with the
  /// JobManager.
  Logger* logger = nullptr;
  FlightRecorder* flight = nullptr;
  JobManagerOptions jobs;
};

/// The kanond service core: a blocking TCP server speaking length-prefixed
/// JSON frames (docs/serving.md). One OS thread per connection (the
/// protocol is request/response, connections are few and long-lived), one
/// bounded JobManager pool for the write path, and lock-free reads of the
/// shared hot state (scheme cache, published tables) for the
/// fast query path.
///
/// Lifecycle: Start() binds and listens; Run() serves until
/// RequestShutdown() (async-signal-safe, called from SIGTERM/SIGINT
/// handlers or the `shutdown` method), then drains: stop accepting, run
/// every admitted job to completion, give connections `drain_grace_ms` to
/// collect results, sever stragglers, join everything, return.
class Server {
 public:
  /// `server_context` (not owned, may be null) is the root RunContext every
  /// job forks from — arm a deadline on it to give the whole server a
  /// budget. `metrics` (not owned, may be null) receives the serve.*
  /// catalog and each job's engine.*/run.* publications.
  Server(const ServerOptions& options, RunContext* server_context,
         MetricsRegistry* metrics);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and listens. After this, port() is the actual bound port.
  Status Start();
  int port() const { return port_; }

  /// Serves until shutdown, then drains. Blocks; returns once drained.
  Status Run();

  /// Only stores an atomic flag — safe from signal handlers and any thread.
  void RequestShutdown() {
    shutdown_requested_.store(true, std::memory_order_relaxed);
  }
  bool shutdown_requested() const {
    return shutdown_requested_.load(std::memory_order_relaxed);
  }

  JobManager& jobs() { return *jobs_; }
  TableStore& tables() { return tables_; }

  /// Recomputes the serve.uptime_seconds gauge. Called on every metrics
  /// render (protocol method, Prometheus scrape, exit snapshot) so the
  /// gauge is fresh without a background ticker.
  void RefreshUptime();

 private:
  struct Connection {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void ServeConnection(Connection* conn);
  /// Decodes and dispatches one frame; returns the serialized response.
  /// Sets *close_connection when the connection must drop after replying.
  /// `request_id` is the server-assigned correlation id carried by every
  /// log record this request emits.
  std::string DispatchFrame(const std::string& payload, uint64_t request_id,
                            bool* close_connection);
  std::string Dispatch(const Request& request, uint64_t request_id,
                       bool* close_connection);

  std::string HandleSubmit(const Request& request, uint64_t request_id);
  std::string HandlePoll(const Request& request);
  std::string HandleFetch(const Request& request);
  std::string HandleCancel(const Request& request);
  std::string HandleRegisterTable(const Request& request);
  std::string HandleVerify(const Request& request);
  std::string HandleAttack(const Request& request);
  std::string HandleMetrics(const Request& request);
  std::string HandleFetchTrace(const Request& request);
  std::string HandleFlightRecorder(const Request& request);

  /// Joins finished connection threads (all of them when `join_all`) and
  /// closes their fds. Fds are only closed here, after the join, so a
  /// concurrent force-shutdown can never hit a recycled descriptor.
  void ReapConnections(bool join_all);
  /// Severs every still-open connection (shutdown(2), unblocking reads).
  void SeverConnections();

  const ServerOptions options_;
  RunContext* const server_context_;
  MetricsRegistry* const metrics_;
  TableStore tables_;
  SchemeCache schemes_;
  std::unique_ptr<JobManager> jobs_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> shutdown_requested_{false};

  Counter* connections_ = nullptr;
  Counter* requests_ = nullptr;
  Counter* request_errors_ = nullptr;
  Gauge* connections_open_ = nullptr;
  Gauge* uptime_seconds_ = nullptr;
  Histogram* request_seconds_ = nullptr;
  RollingHistogram* request_seconds_window_ = nullptr;

  Logger* const logger_;
  FlightRecorder* const flight_;
  const std::chrono::steady_clock::time_point start_time_;
  std::atomic<uint64_t> next_request_id_{1};

  std::mutex conns_mu_;
  std::list<std::unique_ptr<Connection>> conns_;
};

}  // namespace serve
}  // namespace kanon

#endif  // KANON_SERVE_SERVER_H_
