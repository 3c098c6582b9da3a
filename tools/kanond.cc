// kanond: the k-anonymization service daemon (docs/serving.md).
//
// Parsed generalization hierarchies and published tables stay resident
// across requests, while the bounded job queue and worker pool run the
// existing pipelines under per-request deadlines forked from the server's
// own budget and verify each table before it is published. SIGTERM (or
// the `shutdown` method) drains gracefully: every admitted job completes,
// connected clients get a grace window to collect results, then the process
// exits 0.

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#include "kanon/common/flags.h"
#include "kanon/common/run_context.h"
#include "kanon/serve/http_exporter.h"
#include "kanon/serve/server.h"
#include "kanon/shard/shard_io.h"
#include "kanon/telemetry/flight_recorder.h"
#include "kanon/telemetry/log.h"
#include "kanon/telemetry/metrics.h"

#ifndef KANON_VERSION
#define KANON_VERSION "0.0.0"
#endif
#ifndef KANON_GIT_DESCRIBE
#define KANON_GIT_DESCRIBE "unknown"
#endif

namespace {

kanon::serve::Server* g_server = nullptr;

// Only an atomic store happens here — async-signal-safe by construction.
void HandleSignal(int /*signum*/) {
  if (g_server != nullptr) g_server->RequestShutdown();
}

void PrintUsage() {
  std::fprintf(stderr, R"(kanond: k-anonymization service daemon

Usage: kanond [flags]
  --port=N              TCP port (default 0 = ephemeral; see --port-file)
  --bind=ADDR           Bind address (default 127.0.0.1)
  --port-file=PATH      Write the bound port here (atomically) once listening
  --workers=N           Job worker threads (default 1)
  --queue-depth=N       Jobs allowed to wait; beyond this submissions get a
                        typed `overloaded` error (default 8)
  --job-threads=N       Engine threads per job (default 1)
  --default-timeout-ms=N  Per-job wall-clock budget when a request names
                        none (default 0 = unbounded)
  --budget-seconds=X    Wall-clock budget for the whole server; jobs fork
                        from it and degrade when it runs out (default off)
  --max-frame-mb=N      Largest accepted request frame (default 64)
  --tables=N            Published-table store capacity (default 32)
  --scheme-cache=N      Interned hierarchy shapes kept hot (default 16)
  --drain-grace-ms=N    How long connections may linger after drain to
                        collect results (default 5000)
  --stats-json=PATH     Write the full metrics JSON here after drain
  --test-hooks          Honor debug_sleep_ms job params (tests only)

Observability:
  --log-json=TARGET     Structured JSON-lines log: a file path, or `stderr`
                        (default off)
  --log-level=LEVEL     debug|info|warn|error (default info)
  --log-rate-limit=N    Max log records/sec; excess is dropped and counted
                        in a `log.rate_limited` summary (default 0 = off)
  --prom-port=N         Serve `GET /metrics` (Prometheus text) and
                        `GET /healthz` on this HTTP port (0 = ephemeral;
                        flag absent = exporter off)
  --prom-port-file=PATH Write the bound exporter port here (atomically)
  --flight-capacity=N   Flight-recorder ring size in events (default 512)
  --flight-dump=PATH    On a fatal signal, dump the flight-recorder ring
                        here before dying (default off)
)");
}

}  // namespace

int main(int argc, char** argv) {
  kanon::FlagParser flags;
  kanon::Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "kanond: %s\n", parsed.ToString().c_str());
    return 1;
  }
  if (flags.GetBool("help", false)) {
    PrintUsage();
    return 0;
  }

  // Every integer flag is a count and every other number finite: a
  // malformed one is a usage error, and the reads below neither abort nor
  // wrap.
  kanon::Status checked = flags.CheckCounts(
      {"port", "max-frame-mb", "tables", "scheme-cache", "drain-grace-ms",
       "workers", "queue-depth", "job-threads", "default-timeout-ms",
       "flight-capacity", "prom-port"});
  if (checked.ok()) {
    checked = flags.CheckNumbers({"budget-seconds", "log-rate-limit"});
  }
  if (!checked.ok()) {
    std::fprintf(stderr, "kanond: %s\n", checked.ToString().c_str());
    return 2;
  }

  kanon::serve::ServerOptions options;
  options.bind_address = flags.GetString("bind", "127.0.0.1");
  options.port = static_cast<int>(flags.GetInt("port", 0));
  options.max_frame_bytes =
      static_cast<size_t>(flags.GetInt("max-frame-mb", 64)) << 20;
  options.table_store_capacity =
      static_cast<size_t>(flags.GetInt("tables", 32));
  options.scheme_cache_capacity =
      static_cast<size_t>(flags.GetInt("scheme-cache", 16));
  options.drain_grace_ms = flags.GetInt("drain-grace-ms", 5000);
  options.jobs.workers = static_cast<size_t>(flags.GetInt("workers", 1));
  options.jobs.queue_bound =
      static_cast<size_t>(flags.GetInt("queue-depth", 8));
  options.jobs.job_threads =
      static_cast<int>(flags.GetInt("job-threads", 1));
  options.jobs.default_timeout_ms = flags.GetInt("default-timeout-ms", 0);
  options.jobs.enable_test_hooks = flags.GetBool("test-hooks", false);

  // Observability plane: structured log, crash flight recorder, Prometheus
  // exporter. All optional; a daemon started without the flags pays only
  // null-pointer branches.
  std::unique_ptr<kanon::Logger> logger;
  const std::string log_target = flags.GetString("log-json", "");
  if (!log_target.empty()) {
    kanon::Logger::Options log_options;
    const std::string level_name = flags.GetString("log-level", "info");
    if (!kanon::ParseLogLevel(level_name, &log_options.min_level)) {
      std::fprintf(stderr, "kanond: unknown --log-level '%s'\n",
                   level_name.c_str());
      return 1;
    }
    log_options.rate_limit_per_sec = flags.GetDouble("log-rate-limit", 0.0);
    kanon::Result<std::unique_ptr<kanon::Logger>> opened =
        kanon::Logger::Open(log_target, log_options);
    if (!opened.ok()) {
      std::fprintf(stderr, "kanond: %s\n", opened.status().ToString().c_str());
      return 1;
    }
    logger = std::move(*opened);
  }
  options.logger = logger.get();

  kanon::FlightRecorder flight(
      static_cast<size_t>(flags.GetInt("flight-capacity", 512)));
  options.flight = &flight;
  const std::string flight_dump = flags.GetString("flight-dump", "");
  if (!flight_dump.empty()) {
    kanon::FlightRecorder::InstallCrashHandler(&flight, flight_dump);
  }

  kanon::MetricsRegistry metrics;
  metrics.SetInfo("kanond_build_info", {{"version", KANON_VERSION},
                                        {"git", KANON_GIT_DESCRIBE}});
  kanon::RunContext server_context;
  const double budget_seconds = flags.GetDouble("budget-seconds", 0.0);
  if (budget_seconds > 0.0) server_context.ArmDeadline(budget_seconds);

  kanon::serve::Server server(options, &server_context, &metrics);
  kanon::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "kanond: %s\n", started.ToString().c_str());
    return 1;
  }

  g_server = &server;
  std::signal(SIGPIPE, SIG_IGN);
  struct sigaction action = {};
  action.sa_handler = HandleSignal;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);

  // The scrape listener starts — and its port file lands — before the main
  // port file below, so a fixture that polls for the main port may assume
  // the exporter is already serving.
  std::unique_ptr<kanon::serve::HttpExporter> exporter;
  if (flags.Has("prom-port")) {
    kanon::serve::HttpExporterOptions prom;
    prom.bind_address = options.bind_address;
    prom.port = static_cast<int>(flags.GetInt("prom-port", 0));
    prom.metrics = &metrics;
    prom.flight = &flight;
    prom.before_scrape = [&server] { server.RefreshUptime(); };
    exporter = std::make_unique<kanon::serve::HttpExporter>(std::move(prom));
    kanon::Status prom_started = exporter->Start();
    if (!prom_started.ok()) {
      std::fprintf(stderr, "kanond: %s\n", prom_started.ToString().c_str());
      return 1;
    }
    const std::string prom_port_file = flags.GetString("prom-port-file", "");
    if (!prom_port_file.empty()) {
      kanon::Status wrote = kanon::shard::WriteFileAtomic(
          prom_port_file, std::to_string(exporter->port()) + "\n");
      if (!wrote.ok()) {
        std::fprintf(stderr, "kanond: %s\n", wrote.ToString().c_str());
        return 1;
      }
    }
    std::fprintf(stderr, "kanond: metrics exporter on %s:%d\n",
                 options.bind_address.c_str(), exporter->port());
  }

  const std::string port_file = flags.GetString("port-file", "");
  if (!port_file.empty()) {
    // Atomic so a fixture polling the file never reads a half-written port.
    kanon::Status wrote = kanon::shard::WriteFileAtomic(
        port_file, std::to_string(server.port()) + "\n");
    if (!wrote.ok()) {
      std::fprintf(stderr, "kanond: %s\n", wrote.ToString().c_str());
      return 1;
    }
  }
  std::fprintf(stderr, "kanond: listening on %s:%d (workers=%zu queue=%zu)\n",
               options.bind_address.c_str(), server.port(),
               options.jobs.workers, options.jobs.queue_bound);
  KANON_LOG_EVENT(logger.get(), &flight, kanon::LogLevel::kInfo,
                  "daemon.started",
                  kanon::LogField::Int("port", server.port()),
                  kanon::LogField::U64("workers", options.jobs.workers),
                  kanon::LogField::Str("version", KANON_VERSION),
                  kanon::LogField::Str("git", KANON_GIT_DESCRIBE));

  kanon::Status ran = server.Run();
  g_server = nullptr;
  if (exporter != nullptr) exporter->Stop();
  if (!ran.ok()) {
    std::fprintf(stderr, "kanond: %s\n", ran.ToString().c_str());
    return 1;
  }

  const std::string stats_json = flags.GetString("stats-json", "");
  if (!stats_json.empty()) {
    server.RefreshUptime();
    kanon::Status wrote =
        kanon::shard::WriteFileAtomic(stats_json, metrics.ToJson(true));
    if (!wrote.ok()) {
      std::fprintf(stderr, "kanond: %s\n", wrote.ToString().c_str());
      return 1;
    }
  }
  KANON_LOG_EVENT(logger.get(), &flight, kanon::LogLevel::kInfo,
                  "daemon.drained");
  std::fprintf(stderr, "kanond: drained, exiting\n");
  return 0;
}
