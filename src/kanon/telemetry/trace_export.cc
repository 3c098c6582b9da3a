#include "kanon/telemetry/trace_export.h"

#include <cstdio>
#include <fstream>

#include "kanon/common/json_text.h"

namespace kanon {

namespace {

// Microsecond timestamps with sub-microsecond precision preserved: the
// trace format's fixed-point microseconds, not a general JSON number.
void AppendMicros(std::string* out, double us) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", us);
  out->append(buf);
}

Status WriteText(const std::string& text, const std::string& path,
                 const char* what) {
  if (path == "-") {
    std::fputs(text.c_str(), stdout);
    return Status::OK();
  }
  std::ofstream out(path);
  if (!out) {
    return Status::IOError(std::string("cannot open ") + what + " output: " +
                           path);
  }
  out << text;
  out.flush();
  if (!out) {
    return Status::IOError(std::string("short write to ") + what +
                           " output: " + path);
  }
  return Status::OK();
}

}  // namespace

std::string ChromeTraceJson(const Tracer& tracer) {
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  const size_t lanes = tracer.num_lanes();
  // Metadata: name the process and each lane's trace thread.
  out.append(
      "  {\"ph\": \"M\", \"pid\": 1, \"tid\": 0, "
      "\"name\": \"process_name\", \"args\": {\"name\": \"kanon\"}}");
  for (size_t lane = 0; lane < lanes; ++lane) {
    out.append(",\n  {\"ph\": \"M\", \"pid\": 1, \"tid\": " +
               std::to_string(lane) +
               ", \"name\": \"thread_name\", \"args\": {\"name\": \"" +
               (lane == 0 ? std::string("coordinator")
                          : "worker " + std::to_string(lane)) +
               "\"}}");
  }
  for (size_t lane = 0; lane < lanes; ++lane) {
    for (const SpanEvent& event : tracer.lane_events(lane)) {
      out.append(",\n  {\"ph\": \"X\", \"pid\": 1, \"tid\": " +
                 std::to_string(event.lane) + ", \"name\": ");
      AppendJsonString(&out, event.name);
      out.append(", \"cat\": ");
      AppendJsonString(&out, event.category);
      out.append(", \"ts\": ");
      AppendMicros(&out, event.wall_begin_us);
      out.append(", \"dur\": ");
      AppendMicros(&out, event.wall_end_us - event.wall_begin_us);
      out.append(", \"args\": {\"steps_begin\": " +
                 std::to_string(event.steps_begin) +
                 ", \"steps_end\": " + std::to_string(event.steps_end) +
                 ", \"items\": " + std::to_string(event.items) +
                 ", \"depth\": " + std::to_string(event.depth) + "}}");
    }
  }
  out.append("\n]");
  if (tracer.dropped_spans() > 0) {
    out.append(", \"kanonDroppedSpans\": " +
               std::to_string(tracer.dropped_spans()));
  }
  out.append("}\n");
  return out;
}

Status WriteChromeTrace(const Tracer& tracer, const std::string& path) {
  return WriteText(ChromeTraceJson(tracer), path, "trace");
}

Status WriteMetricsJson(const MetricsRegistry& metrics,
                        const std::string& path) {
  return WriteText(metrics.ToJson(/*include_nondeterministic=*/true), path,
                   "metrics");
}

}  // namespace kanon
