// kanon_bench: runs one workload of the end-to-end benchmark and prints
// every metric it measured as one JSON document on stdout (see README.md;
// run.py generates the inputs, builds this binary and picks the metrics
// BENCHMARK.json names).
//
//   kanon_bench --mode=batch --name=W --csv=IN.csv --spec=IN.spec
//               --method=agglomerative|global|full-domain|... --k=10
//               --seconds=S --work-dir=DIR [--trace-dir=DIR] [--smoke]
//   kanon_bench --mode=serve --name=W --inputs=DIR --kanond=PATH --k=10
//               --seconds=S --work-dir=DIR [--trace-dir=DIR] [--smoke]
//
// Batch mode repeats the calls kanon_cli's RealMain makes, in its order and
// with its defaults (measure EM, distance 4), and times each layer from
// outside, around the call into its public function. It publishes the table
// to DIR/W.out.csv. Serve mode spawns kanond and drives it through
// serve::Client from a closed loop of client threads. --smoke runs one timed
// repetition, or ten cycles per client.
//
// Exit codes: 0 every check passed, 1 a correctness check failed, 2 a usage
// error.
#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "kanon/algo/anonymizer.h"
#include "kanon/anonymity/verify.h"
#include "kanon/check/trial.h"
#include "kanon/common/flags.h"
#include "kanon/data/csv.h"
#include "kanon/generalization/generalized_csv.h"
#include "kanon/generalization/scheme_spec.h"
#include "kanon/graph/consistency_graph.h"
#include "kanon/graph/matchable_edges.h"
#include "kanon/loss/entropy_measure.h"
#include "kanon/serve/client.h"
#include "kanon/serve/json.h"
#include "kanon/serve/params.h"
#include "kanon/telemetry/trace_export.h"
#include "kanon/telemetry/tracer.h"

namespace kanon {
namespace {

using Clock = std::chrono::steady_clock;
using serve::Json;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

/// Every sample taken of every metric, summarized on output as the sample
/// count, median and quartiles.
class Samples {
 public:
  void Add(const std::string& name, const char* unit, double value) {
    Series& series = series_[name];
    series.unit = unit;
    series.values.push_back(value);
  }
  void AddAll(const std::string& name, const char* unit,
              const std::vector<double>& values) {
    for (double value : values) Add(name, unit, value);
  }

  Json ToJson() const {
    Json out = Json::Object();
    for (const auto& [name, series] : series_) {
      Json metric = Json::Object();
      metric.Set("unit", Json::Str(series.unit));
      metric.Set("n", Json::Number(static_cast<int64_t>(series.values.size())));
      metric.Set("median", Json::Number(Quantile(series.values, 0.5)));
      metric.Set("p25", Json::Number(Quantile(series.values, 0.25)));
      metric.Set("p75", Json::Number(Quantile(series.values, 0.75)));
      out.Set(name, std::move(metric));
    }
    return out;
  }

 private:
  struct Series {
    const char* unit = "";  // A literal.
    std::vector<double> values;
  };
  std::map<std::string, Series> series_;
};

/// What one workload run reports besides its metrics.
struct Outcome {
  size_t attempted = 0;
  size_t failed = 0;
  std::string digest;
  std::vector<std::string> errors;

  void Fail(const std::string& error) {
    ++failed;
    if (errors.size() < 8) errors.push_back(error);
  }

  void Absorb(const Outcome& other) {
    attempted += other.attempted;
    failed += other.failed;
    for (const std::string& error : other.errors) {
      if (errors.size() < 8) errors.push_back(error);
    }
  }
};

int Report(const std::string& name, const Samples& samples,
           const Outcome& outcome) {
  Json doc = Json::Object();
  doc.Set("workload", Json::Str(name));
  doc.Set("correct", Json::Bool(outcome.failed == 0));
  doc.Set("attempted", Json::Number(static_cast<int64_t>(outcome.attempted)));
  doc.Set("failed", Json::Number(static_cast<int64_t>(outcome.failed)));
  doc.Set("digest", Json::Str(outcome.digest));
  Json errors = Json::Array();
  for (const std::string& error : outcome.errors) errors.Push(Json::Str(error));
  doc.Set("errors", std::move(errors));
  doc.Set("metrics", samples.ToJson());
  std::printf("%s\n", doc.Dump().c_str());
  return outcome.failed == 0 ? 0 : 1;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream input(path, std::ios::binary);
  if (!input) return Status::IOError("cannot open " + path);
  std::ostringstream buffer;
  buffer << input.rdbuf();
  return buffer.str();
}

Status WriteFile(const std::string& path, const std::string& content) {
  std::ofstream output(path, std::ios::binary);
  output << content;
  output.flush();
  if (!output) return Status::IOError("cannot write " + path);
  return Status::OK();
}

std::string Hex(uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

uint64_t Digest(const std::string& bytes,
               uint64_t seed = 14695981039346656037ull) {
  return serve::Fnv1a(bytes.data(), bytes.size(), seed);
}

/// A fixed single-threaded loop that calls no kanon code, so no change to
/// the library can move it. Taken before and after each workload, it tells
/// host drift apart from a real change when two runs are compared. Median
/// of five trials, in milliseconds.
double HostRefMs() {
  static volatile uint32_t sink = 0;
  std::vector<uint32_t> table(1 << 16);
  std::vector<double> trials;
  for (int trial = 0; trial < 5; ++trial) {
    const Clock::time_point start = Clock::now();
    uint64_t x = 88172645463325252ull;
    for (int i = 0; i < 4000000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      table[x & 0xFFFF] += static_cast<uint32_t>(x >> 32);
    }
    sink = sink + table[x & 0xFFFF];
    trials.push_back(SecondsSince(start) * 1e3);
  }
  return Quantile(trials, 0.5);
}

// ---------------------------------------------------------------------------
// Batch: the kanon_cli path.

/// The six layers of a kanon_cli run, in call order. Each is timed around
/// the call into its public function; in the traced repetition it is also a
/// span under the layer names of ROADMAP item 1.
enum Layer { kIngest, kScheme, kLoss, kEngine, kVerify, kSerialize, kLayers };
constexpr const char* kLayerSpan[kLayers] = {
    "ingest/csv",       "scheme/build",  "loss/precompute",
    "engine/anonymize", "verify/notion", "output/serialize"};
constexpr const char* kLayerMetric[kLayers] = {
    "data.ingest_s",    "generalization.scheme_build_s",
    "loss.precompute_s", "algo.anonymize_s",
    "anonymity.verify_s", "generalization.serialize_s"};

/// Engine threads of the batch workloads. With 4 on a 4-core host the
/// run-to-run spread was 11.6%, with 2 it was 6.6% (README.md); tables are
/// byte-identical at every count.
int BatchThreads() {
  return std::clamp(static_cast<int>(std::thread::hardware_concurrency()), 1,
                    2);
}

/// setup_s comes from setup-only repetitions run back to back in this share
/// of --seconds, and at least kMinSetups of them, before the publish loop.
/// Taken inside a publish repetition, after seconds of engine work, it fell
/// into two modes about 40% apart on art-agglomerative-8k, and the median of
/// the nine repetitions of a run flipped between them.
constexpr double kSetupShare = 0.1;
constexpr int kMinSetups = 5;

struct BatchSpec {
  std::string csv;
  std::string spec;
  std::string output;
  AnonymizationMethod method = AnonymizationMethod::kAgglomerative;
  size_t k = 10;
  int threads = 1;
};

/// One repetition: the layer times and what it published.
struct Rep {
  Status status;
  double layer_s[kLayers] = {};
  double publish_s = 0.0;
  double loss = 0.0;
  EngineCounters counters;
  std::string table;
  /// The global (1,k) verifier's two graph steps, timed apart after the
  /// clock stops; only with `split_verify`.
  double consistency_graph_s = 0.0;
  double matchable_edges_s = 0.0;
};

/// kanon_cli's RealMain from ReadCsvInferSchemaFile to the written table,
/// or with `setup_only` to the loss table, where the engine would start.
/// `tracer` may be null; the engine's spans nest under engine/anonymize.
Rep RunRep(const BatchSpec& spec, Tracer* tracer, bool split_verify,
           bool setup_only = false) {
  Rep rep;
  auto fail = [&rep](Status status) {
    rep.status = std::move(status);
    return rep;
  };
  const Clock::time_point start = Clock::now();
  auto layer = [&](Layer id, auto&& call) {
    const Clock::time_point begin = Clock::now();
    {
      PhaseSpan span(tracer, kLayerSpan[id]);
      call();
    }
    rep.layer_s[id] = SecondsSince(begin);
  };

  Result<Dataset> dataset = Status::Internal("unset");
  layer(kIngest, [&] { dataset = ReadCsvInferSchemaFile(spec.csv); });
  if (!dataset.ok()) return fail(dataset.status());
  Result<GeneralizationScheme> scheme = Status::Internal("unset");
  layer(kScheme,
        [&] { scheme = ParseSchemeSpecFile(dataset->schema(), spec.spec); });
  if (!scheme.ok()) return fail(scheme.status());
  auto scheme_ptr =
      std::make_shared<const GeneralizationScheme>(std::move(scheme).value());
  std::optional<PrecomputedLoss> loss;
  layer(kLoss, [&] {
    loss.emplace(scheme_ptr, dataset.value(), EntropyMeasure(), spec.threads);
  });
  if (setup_only) return rep;

  AnonymizerConfig config;
  config.k = spec.k;
  config.method = spec.method;
  config.distance = DistanceFunction::kRatio;  // kanon_cli's --distance=4.
  config.num_threads = spec.threads;
  config.tracer = tracer;
  Result<AnonymizationResult> result = Status::Internal("unset");
  layer(kEngine, [&] { result = Anonymize(dataset.value(), *loss, config); });
  if (!result.ok()) return fail(result.status());
  if (result->degraded) {
    return fail(Status::Internal("run degraded in " + result->degraded_stage));
  }

  const AnonymityNotion notion = check::PromisedNotion(spec.method);
  Result<bool> verified = Status::Internal("unset");
  layer(kVerify, [&] {
    verified = SatisfiesNotion(notion, dataset.value(), result->table, spec.k);
  });
  if (!verified.ok()) return fail(verified.status());
  if (!verified.value()) {
    return fail(Status::Internal(std::string(AnonymityNotionName(notion)) +
                                 " violated"));
  }
  Status written;
  layer(kSerialize,
        [&] { written = WriteGeneralizedCsvFile(result->table, spec.output); });
  rep.publish_s = SecondsSince(start);
  if (!written.ok()) return fail(written);

  rep.loss = result->loss;
  rep.counters = result->counters;
  Result<std::string> table = ReadFile(spec.output);
  if (!table.ok()) return fail(table.status());
  rep.table = std::move(table).value();
  if (split_verify) {
    Clock::time_point begin = Clock::now();
    const BipartiteGraph graph =
        BuildConsistencyGraph(dataset.value(), result->table);
    rep.consistency_graph_s = SecondsSince(begin);
    begin = Clock::now();
    Result<MatchableEdgeSets> matchable = ComputeMatchableEdges(graph);
    rep.matchable_edges_s = SecondsSince(begin);
    if (!matchable.ok()) return fail(matchable.status());
  }
  return rep;
}

void AddCounters(Samples* samples, const EngineCounters& c, double jobs) {
  samples->Add("algo.merges", "count", static_cast<double>(c.merges) / jobs);
  samples->Add("algo.rescans", "count", static_cast<double>(c.rescans) / jobs);
  samples->Add("algo.heap_rebuilds", "count",
               static_cast<double>(c.heap_rebuilds) / jobs);
  samples->Add("algo.closure_hit_ratio", "ratio", c.closure_hit_rate());
  samples->Add("algo.upgrade_steps", "count",
               static_cast<double>(c.upgrade_steps) / jobs);
  samples->Add("algo.parallel_chunks", "count",
               static_cast<double>(c.parallel_chunks) / jobs);
}

/// Sums the lane-0 engine spans by name, as algo.phase.<name>_s with '/'
/// replaced by '.'; the bench's own six layer spans are left out.
void AddPhases(Samples* samples, const Tracer& tracer) {
  std::map<std::string, double> phases;
  for (const SpanEvent& event : tracer.lane_events(0)) {
    if (std::strcmp(event.category, "phase") != 0) continue;
    if (std::find_if(std::begin(kLayerSpan), std::end(kLayerSpan),
                     [&](const char* name) {
                       return std::strcmp(name, event.name) == 0;
                     }) != std::end(kLayerSpan)) {
      continue;
    }
    std::string name = event.name;
    std::replace(name.begin(), name.end(), '/', '.');
    phases[name] += (event.wall_end_us - event.wall_begin_us) * 1e-6;
  }
  for (const auto& [name, seconds] : phases) {
    samples->Add("algo.phase." + name + "_s", "s", seconds);
  }
}

int RunBatch(const FlagParser& flags) {
  const std::string name = flags.GetString("name", "batch");
  const std::string work_dir = flags.GetString("work-dir", ".");
  BatchSpec spec;
  spec.csv = flags.GetString("csv", "");
  spec.spec = flags.GetString("spec", "");
  spec.output = work_dir + "/" + name + ".out.csv";
  spec.k = static_cast<size_t>(flags.GetInt("k", 10));
  spec.threads = BatchThreads();
  Result<AnonymizationMethod> method =
      check::ParseMethodShortName(flags.GetString("method", "agglomerative"));
  if (spec.csv.empty() || spec.spec.empty() || !method.ok()) {
    std::fprintf(stderr, "kanon_bench: batch mode needs --csv, --spec and a"
                         " known --method\n");
    return 2;
  }
  spec.method = method.value();
  const double seconds = flags.GetDouble("seconds", 10.0);
  const bool smoke = flags.GetBool("smoke", false);
  const std::string trace_dir = flags.GetString("trace-dir", "");

  Samples samples;
  Outcome outcome;
  samples.Add("bench.host_ref_ms", "ms", HostRefMs());

  // The untimed warm-up publishes the table every timed repetition must
  // reproduce byte for byte.
  ++outcome.attempted;
  const Rep reference = RunRep(spec, nullptr, /*split_verify=*/false);
  if (!reference.status.ok()) {
    outcome.Fail("warm-up: " + reference.status.ToString());
    return Report(name, samples, outcome);
  }
  const uint64_t digest = Digest(reference.table);
  outcome.digest = Hex(digest);

  struct stat input = {};
  ::stat(spec.csv.c_str(), &input);
  const double input_mb = static_cast<double>(input.st_size) / (1 << 20);
  // The --seconds start with setup-only repetitions, back to back.
  const Clock::time_point start = Clock::now();
  int setups = 0;
  do {
    ++setups;
    ++outcome.attempted;
    const Rep rep = RunRep(spec, nullptr, /*split_verify=*/false,
                           /*setup_only=*/true);
    if (!rep.status.ok()) {
      outcome.Fail("setup: " + rep.status.ToString());
      continue;
    }
    samples.Add("setup_s", "s",
                rep.layer_s[kIngest] + rep.layer_s[kScheme] +
                    rep.layer_s[kLoss]);
  } while (!smoke && (setups < kMinSetups ||
                      SecondsSince(start) < kSetupShare * seconds));

  std::vector<double> publish_ms;
  do {
    ++outcome.attempted;
    const Rep rep = RunRep(spec, nullptr, /*split_verify=*/false);
    if (!rep.status.ok()) {
      outcome.Fail(rep.status.ToString());
      continue;
    }
    if (Digest(rep.table) != digest) {
      outcome.Fail("table differs from the warm-up's");
      continue;
    }
    double layers_s = 0.0;
    for (int id = 0; id < kLayers; ++id) {
      samples.Add(kLayerMetric[id], "s", rep.layer_s[id]);
      layers_s += rep.layer_s[id];
    }
    publish_ms.push_back(rep.publish_s * 1e3);
    samples.Add("bench.unaccounted_s", "s", rep.publish_s - layers_s);
    samples.Add("data.ingest_mb_per_s", "MiB/s",
                input_mb / rep.layer_s[kIngest]);
  } while (!smoke && SecondsSince(start) < seconds);
  samples.AddAll("publish_ms", "ms", publish_ms);
  samples.Add("info_loss", "Pi", reference.loss);
  samples.Add("generalization.output_mb", "MiB",
              static_cast<double>(reference.table.size()) / (1 << 20));
  AddCounters(&samples, reference.counters, 1.0);
  // Read before the traced repetition, whose tracer events and split
  // verifier graphs are not part of a kanon_cli run.
  rusage usage = {};
  ::getrusage(RUSAGE_SELF, &usage);
  samples.Add("peak_rss_mb", "MiB",
              static_cast<double>(usage.ru_maxrss) / 1024.0);  // KiB.

  if (!trace_dir.empty()) {
    ++outcome.attempted;
    Tracer tracer;
    const bool split = check::PromisedNotion(spec.method) ==
                       AnonymityNotion::kGlobalOneK;
    const Rep rep = RunRep(spec, &tracer, split);
    if (!rep.status.ok() || Digest(rep.table) != digest) {
      outcome.Fail("traced repetition: " + (rep.status.ok()
                                                ? std::string("table differs")
                                                : rep.status.ToString()));
    } else {
      AddPhases(&samples, tracer);
      if (split) {
        samples.Add("graph.consistency_graph_s", "s", rep.consistency_graph_s);
        samples.Add("graph.matchable_edges_s", "s", rep.matchable_edges_s);
      }
      if (!publish_ms.empty()) {
        samples.Add("telemetry.trace_overhead_ratio", "ratio",
                    rep.publish_s * 1e3 / Quantile(publish_ms, 0.5) - 1.0);
      }
      samples.Add("telemetry.dropped_spans", "count",
                  static_cast<double>(tracer.dropped_spans()));
      const std::string path = trace_dir + "/" + name + ".trace.json";
      if (Status s = WriteChromeTrace(tracer, path); !s.ok()) {
        outcome.Fail(s.ToString());
      }
    }
  }

  samples.Add("bench.host_ref_ms", "ms", HostRefMs());
  return Report(name, samples, outcome);
}

// ---------------------------------------------------------------------------
// Serve: a closed loop against a spawned kanond.

constexpr int kClients = 2;
constexpr int kVerifiesPerJob = 5;
constexpr int kSetups = 15;
/// publish_ms takes one sample per this many jobs, in completion order: the
/// serve analogue of a batch repetition. The spread of single jobs would
/// mostly show the mix of tables; the spread of these medians shows drift.
constexpr size_t kJobsPerSample = 100;
/// kanond keeps every finished job's table, so its RSS grows with the jobs
/// it served. Reading the peak at a fixed job count keeps a faster daemon,
/// which serves more jobs in the same time, from looking larger.
constexpr size_t kRssAtJobs = 500;

/// One seeded input table and the reference table kanon_cli's path
/// publishes for it, built in-process before any timing.
struct ServeTable {
  std::string csv;
  std::string spec;
  std::string reference;
  double loss = 0.0;
};

/// A kanond child on an ephemeral port. The destructor kills a daemon that
/// is still running, so no exit path leaves one behind.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::string& dir) : dir_(dir) {
    const std::string port_file = dir_ + "/kanond.port";
    ::unlink(port_file.c_str());
    const std::vector<std::string> argv = {
        binary,          "--port-file=" + port_file, "--workers=2",
        "--job-threads=1", "--queue-depth=8",        "--drain-grace-ms=2000"};
    std::vector<char*> cargv;
    for (const std::string& arg : argv) {
      cargv.push_back(const_cast<char*>(arg.c_str()));
    }
    cargv.push_back(nullptr);
    const std::string log = dir_ + "/kanond.log";
    pid_ = ::fork();
    if (pid_ == 0) {
      if (std::freopen(log.c_str(), "a", stderr) == nullptr) ::_exit(127);
      ::execv(cargv[0], cargv.data());
      ::_exit(127);
    }
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(30);
    while (pid_ > 0 && Clock::now() < deadline) {
      std::ifstream input(port_file);
      if (input >> port_ && port_ > 0) return;
      port_ = 0;
      if (::waitpid(pid_, nullptr, WNOHANG) != 0) {
        pid_ = -1;  // Died at startup (and is reaped).
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const { return port_; }

  Result<serve::Client> Connect() const {
    return serve::Client::Connect("127.0.0.1", port_,
                                  /*recv_timeout_ms=*/60000);
  }

  /// The daemon's peak resident set so far (VmHWM), in MiB.
  Result<double> PeakRssMb() const {
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    for (std::string line; std::getline(status, line);) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB.
      }
    }
    return Status::IOError("no VmHWM for kanond");
  }

  /// Sends `shutdown` and reaps the daemon. Callers close their own
  /// connections first so the drain ends at once.
  Status Stop() {
    KANON_ASSIGN_OR_RETURN(serve::Client client, Connect());
    KANON_RETURN_NOT_OK(client.Call("shutdown", Json::Object()).status());
    client.Close();
    int wstatus = 0;
    const pid_t reaped = ::waitpid(pid_, &wstatus, 0);
    pid_ = -1;
    if (reaped < 0 || !WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
      return Status::Internal("kanond did not exit cleanly; see " + dir_ +
                              "/kanond.log");
    }
    return Status::OK();
  }

 private:
  std::string dir_;
  pid_t pid_ = -1;
  int port_ = 0;
};

/// Per-client results of the closed loop, merged after the threads join.
struct LoopStats {
  std::vector<double> job_ms, submit_ms, fetch_ms, run_ms, path_ms;
  std::vector<Clock::time_point> done_at;  // Parallel to job_ms.
  std::vector<double> verify_ms, attack_ms;
  size_t jobs = 0;
  size_t polls = 0;
  /// The daemon-reported loss per table index (NaN until fetched).
  std::vector<double> table_loss;
  Outcome outcome;
};

double MsSince(Clock::time_point start) { return SecondsSince(start) * 1e3; }

/// The name client `c` publishes its tables under.
std::string PublishName(int c) {
  std::string name = "c";
  name += std::to_string(c);
  return name;
}

/// A reply for an error message: the answer when the call went through but
/// the answer was wrong, the status otherwise.
std::string Describe(const Result<Json>& reply) {
  return reply.ok() ? reply->Dump() : reply.status().ToString();
}

template <typename T>
void Append(std::vector<T>* into, const std::vector<T>& from) {
  into->insert(into->end(), from.begin(), from.end());
}

/// Medians of consecutive groups of kJobsPerSample jobs in completion order
/// (one group of all jobs when there are fewer).
std::vector<double> GroupMedians(const LoopStats& stats) {
  std::vector<std::pair<Clock::time_point, double>> jobs;
  for (size_t i = 0; i < stats.job_ms.size(); ++i) {
    jobs.emplace_back(stats.done_at[i], stats.job_ms[i]);
  }
  std::sort(jobs.begin(), jobs.end());
  std::vector<double> medians;
  std::vector<double> group;
  for (const auto& job : jobs) {
    group.push_back(job.second);
    if (group.size() == kJobsPerSample) {
      medians.push_back(Quantile(group, 0.5));
      group.clear();
    }
  }
  if (medians.empty()) medians.push_back(Quantile(group, 0.5));
  return medians;
}

/// submit → poll every 1 ms → fetch of table `index`, checked against its
/// reference. Returns the job id, or 0 when the job failed.
uint64_t RunJob(serve::Client& client, const std::vector<ServeTable>& tables,
                size_t index, size_t k, const std::string& publish_as,
                bool capture_trace, LoopStats* stats) {
  const ServeTable& table = tables[index];
  ++stats->outcome.attempted;
  const Clock::time_point start = Clock::now();
  Json params = Json::Object();
  params.Set("csv", Json::Str(table.csv));
  params.Set("spec", Json::Str(table.spec));
  params.Set("k", Json::Number(static_cast<int64_t>(k)));
  params.Set("method", Json::Str("agglomerative"));
  params.Set("publish_as", Json::Str(publish_as));
  if (capture_trace) params.Set("capture_trace", Json::Bool(true));
  Result<Json> submitted = client.Call("submit", std::move(params));
  if (!submitted.ok()) {
    stats->outcome.Fail("submit: " + submitted.status().ToString());
    return 0;
  }
  const double submit_ms = MsSince(start);
  const int64_t job_id = submitted->GetInt("job_id", 0);
  Json id = Json::Object();
  id.Set("job_id", Json::Number(job_id));

  // Client::WaitJob's loop, with the polls counted.
  Result<Json> snapshot = Status::Internal("unset");
  for (;;) {
    ++stats->polls;
    snapshot = client.Call("poll", id);
    if (!snapshot.ok()) break;
    const std::string state = snapshot->GetString("state", "");
    if (state == "done" || state == "failed") break;
    if (SecondsSince(start) > 60.0) {
      snapshot = Status::IOError("job still " + state + " after 60 s");
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (!snapshot.ok() || snapshot->GetString("state", "") != "done" ||
      snapshot->GetBool("degraded", false)) {
    stats->outcome.Fail("job: " + Describe(snapshot));
    return 0;
  }
  const Clock::time_point fetch_start = Clock::now();
  Result<Json> fetched = client.Call("fetch", id);
  const double job_ms = MsSince(start);
  if (!fetched.ok() || fetched->GetString("csv", "") != table.reference) {
    stats->outcome.Fail(fetched.ok() ? "fetched table differs from reference"
                                     : "fetch: " + fetched.status().ToString());
    return 0;
  }
  const double run_ms = snapshot->GetDouble("elapsed_seconds", 0.0) * 1e3;
  const double loss = snapshot->GetDouble("loss", -1.0);
  if (!std::isnan(stats->table_loss[index]) &&
      stats->table_loss[index] != loss) {
    stats->outcome.Fail("reported loss changed between jobs of one table");
  }
  stats->table_loss[index] = loss;
  ++stats->jobs;
  stats->job_ms.push_back(job_ms);
  stats->done_at.push_back(Clock::now());
  stats->submit_ms.push_back(submit_ms);
  stats->fetch_ms.push_back(MsSince(fetch_start));
  stats->run_ms.push_back(run_ms);
  stats->path_ms.push_back(job_ms - run_ms);
  return static_cast<uint64_t>(job_id);
}

/// Reads of the table a client just published: kVerifiesPerJob verify
/// calls, which must hold, and one attack, which must breach no record.
void RunReads(serve::Client& client, const std::string& table, size_t k,
              LoopStats* stats) {
  Json params = Json::Object();
  params.Set("table", Json::Str(table));
  params.Set("k", Json::Number(static_cast<int64_t>(k)));
  for (int i = 0; i < kVerifiesPerJob; ++i) {
    Json verify = params;
    verify.Set("notion", Json::Str("k-anonymity"));  // agglomerative's notion.
    ++stats->outcome.attempted;
    const Clock::time_point start = Clock::now();
    Result<Json> result = client.Call("verify", std::move(verify));
    const double ms = MsSince(start);
    if (!result.ok() || !result->GetBool("satisfied", false)) {
      stats->outcome.Fail("verify: " + Describe(result));
      continue;
    }
    stats->verify_ms.push_back(ms);
  }
  ++stats->outcome.attempted;
  const Clock::time_point start = Clock::now();
  Result<Json> result = client.Call("attack", params);
  const double ms = MsSince(start);
  if (!result.ok() || result->GetInt("breached", -1) != 0) {
    stats->outcome.Fail("attack: " + Describe(result));
    return;
  }
  stats->attack_ms.push_back(ms);
}

/// A running daemon with one warmed-up connection per client.
struct Session {
  std::unique_ptr<Daemon> daemon;
  std::vector<serve::Client> clients;
};

/// Spawns kanond and warms it: from the fork until the port is announced
/// and each client has fetched one job. Returns the setup time.
Result<double> StartSession(const std::string& kanond, const std::string& dir,
                            const std::vector<ServeTable>& tables, size_t k,
                            Session* session) {
  const Clock::time_point start = Clock::now();
  session->daemon = std::make_unique<Daemon>(kanond, dir);
  if (session->daemon->port() <= 0) {
    return Status::Internal("kanond did not start; see " + dir +
                            "/kanond.log");
  }
  session->clients.clear();
  LoopStats warmup;
  warmup.table_loss.assign(tables.size(), std::nan(""));
  for (int c = 0; c < kClients; ++c) {
    KANON_ASSIGN_OR_RETURN(serve::Client client, session->daemon->Connect());
    if (RunJob(client, tables, static_cast<size_t>(c) % tables.size(), k,
               PublishName(c), false, &warmup) == 0) {
      return Status::Internal("warm-up job failed: " +
                              warmup.outcome.errors.front());
    }
    session->clients.push_back(std::move(client));
  }
  return SecondsSince(start);
}

Status EndSession(Session* session) {
  for (serve::Client& client : session->clients) client.Close();
  session->clients.clear();
  const Status stopped = session->daemon->Stop();
  session->daemon.reset();
  return stopped;
}

double Counter(const Json& metrics, const std::string& name) {
  const Json* counters = metrics.Find("counters");
  return counters == nullptr ? 0.0
                             : static_cast<double>(counters->GetInt(name, 0));
}

double HitRatio(const Json& metrics, const std::string& cache) {
  const double hits = Counter(metrics, "serve." + cache + "_hits");
  const double misses = Counter(metrics, "serve." + cache + "_misses");
  return hits + misses == 0.0 ? 0.0 : hits / (hits + misses);
}

int RunServe(const FlagParser& flags) {
  const std::string name = flags.GetString("name", "serve");
  const std::string inputs = flags.GetString("inputs", "");
  const std::string kanond = flags.GetString("kanond", "");
  const std::string work_dir = flags.GetString("work-dir", ".");
  const size_t k = static_cast<size_t>(flags.GetInt("k", 10));
  const double seconds = flags.GetDouble("seconds", 10.0);
  const bool smoke = flags.GetBool("smoke", false);
  const std::string trace_dir = flags.GetString("trace-dir", "");
  if (inputs.empty() || kanond.empty()) {
    std::fprintf(stderr, "kanon_bench: serve mode needs --inputs and"
                         " --kanond\n");
    return 2;
  }

  // The tables t0.csv/t0.spec, t1.csv/t1.spec, ... and their references,
  // published in-process through the batch path (one thread, as the
  // daemon's --job-threads=1; the output is the same at every count). The
  // daemon runs the same engine on the same tables, so the references'
  // counters are its jobs' counters.
  std::vector<ServeTable> tables;
  EngineCounters counters;
  for (size_t i = 0;; ++i) {
    BatchSpec spec;
    spec.csv = inputs + "/t" + std::to_string(i) + ".csv";
    spec.spec = inputs + "/t" + std::to_string(i) + ".spec";
    spec.output = work_dir + "/reference.csv";
    spec.k = k;
    if (::access(spec.csv.c_str(), R_OK) != 0) break;
    const Rep rep = RunRep(spec, nullptr, /*split_verify=*/false);
    Result<std::string> csv = ReadFile(spec.csv);
    Result<std::string> text = ReadFile(spec.spec);
    if (!rep.status.ok() || !csv.ok() || !text.ok()) {
      std::fprintf(stderr, "kanon_bench: reference for %s failed: %s\n",
                   spec.csv.c_str(), rep.status.ToString().c_str());
      return 1;
    }
    tables.push_back(ServeTable{std::move(csv).value(),
                                std::move(text).value(), rep.table, rep.loss});
    counters.merges += rep.counters.merges;
    counters.rescans += rep.counters.rescans;
    counters.heap_rebuilds += rep.counters.heap_rebuilds;
    counters.closure_hits += rep.counters.closure_hits;
    counters.closure_misses += rep.counters.closure_misses;
    counters.upgrade_steps += rep.counters.upgrade_steps;
    counters.parallel_chunks += rep.counters.parallel_chunks;
  }
  if (tables.empty()) {
    std::fprintf(stderr, "kanon_bench: no t0.csv in %s\n", inputs.c_str());
    return 2;
  }
  uint64_t digest = Digest("");
  for (const ServeTable& table : tables) {
    digest = Digest(table.reference, digest);
  }

  Samples samples;
  Outcome outcome;
  outcome.digest = Hex(digest);
  samples.Add("bench.host_ref_ms", "ms", HostRefMs());
  AddCounters(&samples, counters, static_cast<double>(tables.size()));

  // Setup is measured kSetups times; the last session is the one measured.
  Session session;
  for (int i = 0; i < kSetups; ++i) {
    if (i > 0) {
      if (Status s = EndSession(&session); !s.ok()) {
        outcome.Fail(s.ToString());
        return Report(name, samples, outcome);
      }
    }
    Result<double> setup_s =
        StartSession(kanond, work_dir, tables, k, &session);
    if (!setup_s.ok()) {
      outcome.Fail(setup_s.status().ToString());
      return Report(name, samples, outcome);
    }
    samples.Add("setup_s", "s", setup_s.value());
  }

  std::vector<LoopStats> stats(kClients);
  std::vector<std::thread> threads;
  std::atomic<size_t> jobs_done{0};
  // Written by the one thread that completes job kRssAtJobs; read after
  // the join.
  Result<double> rss_mb = Status::Internal("unset");
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      LoopStats& mine = stats[c];
      mine.table_loss.assign(tables.size(), std::nan(""));
      const std::string publish_as = PublishName(c);
      for (size_t cycle = 0;
           smoke ? cycle < 10 : Clock::now() < deadline; ++cycle) {
        const size_t index = (cycle * kClients + c) % tables.size();
        if (RunJob(session.clients[c], tables, index, k, publish_as, false,
                   &mine) == 0) {
          continue;
        }
        if (jobs_done.fetch_add(1) + 1 == kRssAtJobs) {
          rss_mb = session.daemon->PeakRssMb();
        }
        RunReads(session.clients[c], publish_as, k, &mine);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const double loop_s = SecondsSince(start);
  if (jobs_done < kRssAtJobs) rss_mb = session.daemon->PeakRssMb();  // Smoke.

  LoopStats all;
  all.table_loss.assign(tables.size(), std::nan(""));
  for (const LoopStats& s : stats) {
    Append(&all.job_ms, s.job_ms);
    Append(&all.done_at, s.done_at);
    Append(&all.submit_ms, s.submit_ms);
    Append(&all.fetch_ms, s.fetch_ms);
    Append(&all.run_ms, s.run_ms);
    Append(&all.path_ms, s.path_ms);
    Append(&all.verify_ms, s.verify_ms);
    Append(&all.attack_ms, s.attack_ms);
    all.jobs += s.jobs;
    all.polls += s.polls;
    outcome.Absorb(s.outcome);
    for (size_t i = 0; i < tables.size(); ++i) {
      if (!std::isnan(s.table_loss[i])) all.table_loss[i] = s.table_loss[i];
    }
  }
  double loss_sum = 0.0;
  for (size_t i = 0; i < tables.size(); ++i) {
    // Every table is fetched at least once unless a smoke run is shorter
    // than the table list; its reference loss stands in then.
    const double loss =
        std::isnan(all.table_loss[i]) ? tables[i].loss : all.table_loss[i];
    if (loss != tables[i].loss) {
      outcome.Fail("daemon loss differs from the reference for t" +
                   std::to_string(i));
    }
    loss_sum += loss;
  }
  if (all.jobs == 0) {
    outcome.Fail("no job completed");
    return Report(name, samples, outcome);
  }

  samples.AddAll("publish_ms", "ms", GroupMedians(all));
  samples.Add("info_loss", "Pi", loss_sum / static_cast<double>(tables.size()));
  if (rss_mb.ok()) {
    samples.Add("peak_rss_mb", "MiB", rss_mb.value());
  } else {
    outcome.Fail(rss_mb.status().ToString());
  }
  samples.Add("serve.jobs_per_s", "1/s",
              static_cast<double>(all.jobs) / loop_s);
  samples.Add("serve.job_p95_ms", "ms", Quantile(all.job_ms, 0.95));
  samples.Add("serve.job_p99_ms", "ms", Quantile(all.job_ms, 0.99));
  samples.AddAll("serve.submit_ms", "ms", all.submit_ms);
  samples.AddAll("serve.fetch_ms", "ms", all.fetch_ms);
  samples.AddAll("serve.job_run_ms", "ms", all.run_ms);
  samples.AddAll("serve.request_path_ms", "ms", all.path_ms);
  samples.Add("serve.polls_per_job", "count",
              static_cast<double>(all.polls) / static_cast<double>(all.jobs));
  if (!all.verify_ms.empty()) {
    samples.AddAll("serve.verify_p50_ms", "ms", all.verify_ms);
    samples.Add("serve.verify_p99_ms", "ms", Quantile(all.verify_ms, 0.99));
  }
  if (!all.attack_ms.empty()) {
    samples.AddAll("serve.attack_p50_ms", "ms", all.attack_ms);
  }

  if (!trace_dir.empty()) {
    LoopStats traced;
    traced.table_loss.assign(tables.size(), std::nan(""));
    const uint64_t job_id =
        RunJob(session.clients[0], tables, 0, k, PublishName(0),
               /*capture_trace=*/true, &traced);
    outcome.Absorb(traced.outcome);
    if (job_id != 0) {
      samples.Add("telemetry.trace_overhead_ratio", "ratio",
                  traced.job_ms[0] / Quantile(all.job_ms, 0.5) - 1.0);
      Json params = Json::Object();
      params.Set("job_id", Json::Number(static_cast<int64_t>(job_id)));
      // kanond marks a job done before it stores the job's trace, so a
      // fetch_trace right after the poll can miss it; retry for a second.
      Result<Json> trace = Status::Internal("unset");
      for (int attempt = 0; attempt < 1000; ++attempt) {
        trace = session.clients[0].Call("fetch_trace", params);
        if (trace.ok()) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      const Status wrote =
          trace.ok() ? WriteFile(trace_dir + "/" + name + ".trace.json",
                                 trace->GetString("trace", ""))
                     : trace.status();
      if (!wrote.ok()) outcome.Fail("trace: " + wrote.ToString());
    }
  }

  Result<Json> metrics = session.clients[0].Call("metrics", Json::Object());
  if (metrics.ok()) {
    samples.Add("serve.scheme_cache_hit_ratio", "ratio",
                HitRatio(*metrics, "scheme_cache"));
    samples.Add("serve.loss_cache_hit_ratio", "ratio",
                HitRatio(*metrics, "loss_cache"));
    samples.Add("serve.requests", "count", Counter(*metrics, "serve.requests"));
    samples.Add("serve.request_errors", "count",
                Counter(*metrics, "serve.request_errors"));
    samples.Add("serve.jobs_rejected", "count",
                Counter(*metrics, "serve.jobs_rejected"));
  } else {
    outcome.Fail("metrics: " + metrics.status().ToString());
  }

  if (Status s = EndSession(&session); !s.ok()) outcome.Fail(s.ToString());
  samples.Add("bench.host_ref_ms", "ms", HostRefMs());
  return Report(name, samples, outcome);
}

int RealMain(int argc, char** argv) {
  FlagParser flags;
  if (Status s = flags.Parse(argc, argv); !s.ok()) {
    std::fprintf(stderr, "kanon_bench: %s\n", s.ToString().c_str());
    return 2;
  }
  const std::string mode = flags.GetString("mode", "");
  if (mode == "batch") return RunBatch(flags);
  if (mode == "serve") return RunServe(flags);
  std::fprintf(stderr, "usage: kanon_bench --mode=batch|serve ... (see the"
                       " header of bench/e2e/kanon_bench.cc)\n");
  return 2;
}

}  // namespace
}  // namespace kanon

int main(int argc, char** argv) { return kanon::RealMain(argc, argv); }
