#include "kanon/telemetry/log.h"

#include <cerrno>
#include <chrono>
#include <cstring>

#include "kanon/common/json_text.h"
#include "kanon/telemetry/flight_recorder.h"

namespace kanon {

namespace {

double MonotonicSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
  }
  return "unknown";
}

bool ParseLogLevel(const std::string& text, LogLevel* out) {
  if (text == "debug") {
    *out = LogLevel::kDebug;
  } else if (text == "info") {
    *out = LogLevel::kInfo;
  } else if (text == "warn" || text == "warning") {
    *out = LogLevel::kWarn;
  } else if (text == "error") {
    *out = LogLevel::kError;
  } else {
    return false;
  }
  return true;
}

LogField LogField::Str(const char* key, std::string value) {
  LogField f;
  f.key = key;
  f.kind = Kind::kStr;
  f.str = std::move(value);
  return f;
}

LogField LogField::Int(const char* key, int64_t value) {
  LogField f;
  f.key = key;
  f.kind = Kind::kInt;
  f.i64 = value;
  return f;
}

LogField LogField::U64(const char* key, uint64_t value) {
  LogField f;
  f.key = key;
  f.kind = Kind::kUint;
  f.u64 = value;
  return f;
}

LogField LogField::Dbl(const char* key, double value) {
  LogField f;
  f.key = key;
  f.kind = Kind::kDouble;
  f.f64 = value;
  return f;
}

LogField LogField::Bool(const char* key, bool value) {
  LogField f;
  f.key = key;
  f.kind = Kind::kBool;
  f.b = value;
  return f;
}

namespace log_internal {

double NowUnixSeconds() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

std::string RenderLine(double ts_unix, LogLevel level, std::string_view event,
                       const LogField* fields, size_t num_fields) {
  std::string out;
  out.reserve(96 + num_fields * 24);
  char ts[40];
  std::snprintf(ts, sizeof(ts), "%.3f", ts_unix);
  out.append("{\"ts\":");
  out.append(ts);
  out.append(",\"level\":\"");
  out.append(LogLevelName(level));
  out.append("\",\"event\":");
  AppendJsonString(&out, event);
  for (size_t i = 0; i < num_fields; ++i) {
    const LogField& f = fields[i];
    out.push_back(',');
    AppendJsonString(&out, f.key);
    out.push_back(':');
    switch (f.kind) {
      case LogField::Kind::kStr:
        AppendJsonString(&out, f.str);
        break;
      case LogField::Kind::kInt:
        out.append(std::to_string(f.i64));
        break;
      case LogField::Kind::kUint:
        out.append(std::to_string(f.u64));
        break;
      case LogField::Kind::kDouble:
        AppendJsonNumber(&out, f.f64);
        break;
      case LogField::Kind::kBool:
        out.append(f.b ? "true" : "false");
        break;
    }
  }
  out.push_back('}');
  return out;
}

}  // namespace log_internal

Result<std::unique_ptr<Logger>> Logger::Open(const std::string& target,
                                             const Options& options) {
  if (target == "stderr") {
    return std::unique_ptr<Logger>(new Logger(stderr, false, options));
  }
  std::FILE* stream = std::fopen(target.c_str(), "a");
  if (stream == nullptr) {
    return Status::IOError("cannot open log file '" + target +
                           "': " + std::strerror(errno));
  }
  return std::unique_ptr<Logger>(new Logger(stream, true, options));
}

Logger::Logger(std::FILE* stream, bool owns_stream, const Options& options)
    : options_(options),
      stream_(stream),
      owns_stream_(owns_stream),
      tokens_(options.burst > 0.0
                  ? options.burst
                  : std::max(16.0, 2.0 * options.rate_limit_per_sec)),
      last_refill_seconds_(MonotonicSeconds()) {}

Logger::~Logger() {
  if (owns_stream_ && stream_ != nullptr) std::fclose(stream_);
}

void Logger::Log(LogLevel level, std::string_view event,
                 std::initializer_list<LogField> fields) {
  if (!ShouldLog(level)) return;
  WriteLine(log_internal::RenderLine(log_internal::NowUnixSeconds(), level,
                                     event, fields.begin(), fields.size()));
}

void Logger::WriteLine(std::string_view line) {
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.rate_limit_per_sec > 0.0) {
    const double now = MonotonicSeconds();
    const double burst = options_.burst > 0.0
                             ? options_.burst
                             : std::max(16.0, 2.0 * options_.rate_limit_per_sec);
    tokens_ = std::min(
        burst, tokens_ + (now - last_refill_seconds_) *
                             options_.rate_limit_per_sec);
    last_refill_seconds_ = now;
    if (tokens_ < 1.0) {
      ++dropped_total_;
      ++dropped_pending_;
      return;
    }
    tokens_ -= 1.0;
    if (dropped_pending_ > 0) {
      // One summary record per storm, emitted when writing resumes.
      const std::string summary = log_internal::RenderLine(
          log_internal::NowUnixSeconds(), LogLevel::kWarn, "log.rate_limited",
          std::initializer_list<LogField>{
              LogField::U64("dropped", dropped_pending_)}
              .begin(),
          1);
      std::fwrite(summary.data(), 1, summary.size(), stream_);
      std::fputc('\n', stream_);
      dropped_pending_ = 0;
    }
  }
  std::fwrite(line.data(), 1, line.size(), stream_);
  std::fputc('\n', stream_);
  // Flushed per record: the log is a live debugging surface (tests and
  // operators tail it while the daemon runs), and record rates are
  // bounded by the limiter anyway.
  std::fflush(stream_);
}

uint64_t Logger::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_total_;
}

void LogEvent(Logger* logger, FlightRecorder* flight, LogLevel level,
              std::string_view event, std::initializer_list<LogField> fields) {
  const bool want_log = logger != nullptr && logger->ShouldLog(level);
  if (!want_log && flight == nullptr) return;
  const std::string line =
      log_internal::RenderLine(log_internal::NowUnixSeconds(), level, event,
                               fields.begin(), fields.size());
  if (flight != nullptr) flight->RecordLine(line);
  if (want_log) logger->WriteLine(line);
}

}  // namespace kanon
