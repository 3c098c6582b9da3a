#include "kanon/shard/driver.h"

#include <algorithm>
#include <fstream>
#include <functional>
#include <iomanip>
#include <sstream>
#include <utility>

#include "kanon/algo/core/engine_args.h"
#include "kanon/common/failpoint.h"
#include "kanon/loss/precomputed_loss.h"
#include "kanon/loss/table_metrics.h"
#include "kanon/shard/manifest.h"
#include "kanon/shard/partition.h"
#include "kanon/shard/shard_io.h"
#include "kanon/telemetry/metrics.h"
#include "kanon/telemetry/tracer.h"

namespace kanon {
namespace shard {

namespace {

/// Everything that must match between the run that wrote a work dir and
/// the run trying to resume it. The thread count is deliberately absent:
/// output is thread-count invariant (docs/parallelism.md), so a resume may
/// use a different --threads. Weights are appended only when set, so an
/// unweighted work dir keeps the fingerprint it was written with.
std::string FingerprintOf(const AnonymizerConfig& base,
                          const LossMeasure& measure, size_t num_shards,
                          size_t prefix) {
  std::ostringstream out;
  out << "k=" << base.k << ";method=" << AnonymizationMethodName(base.method)
      << ";distance=" << static_cast<int>(base.distance)
      << ";measure=" << measure.name() << ";shards=" << num_shards
      << ";prefix=" << prefix;
  if (!base.attr_weights.empty()) {
    out << ";weights=" << std::setprecision(17);
    for (size_t j = 0; j < base.attr_weights.size(); ++j) {
      out << (j == 0 ? "" : ",") << base.attr_weights[j];
    }
  }
  return out.str();
}

uint64_t DatasetChecksum(const Dataset& dataset) {
  Hasher hasher;
  const Schema& schema = dataset.schema();
  const uint32_t r = static_cast<uint32_t>(schema.num_attributes());
  hasher.Update(&r, sizeof(r));
  for (size_t i = 0; i < dataset.num_rows(); ++i) {
    for (size_t j = 0; j < r; ++j) {
      const std::string& label = schema.attribute(j).label(dataset.at(i, j));
      const uint32_t size = static_cast<uint32_t>(label.size());
      hasher.Update(&size, sizeof(size));
      hasher.Update(label);
    }
  }
  return hasher.digest();
}

/// Covers what the journal's numbers mean: each attribute's labels in code
/// order (spill cells are codes) and each hierarchy's sets in id order
/// (checkpoint cells are set ids).
uint64_t SchemeChecksum(const GeneralizationScheme& scheme) {
  Hasher hasher;
  const auto update_u32 = [&hasher](size_t value) {
    const uint32_t word = static_cast<uint32_t>(value);
    hasher.Update(&word, sizeof(word));
  };
  update_u32(scheme.num_attributes());
  for (size_t j = 0; j < scheme.num_attributes(); ++j) {
    const std::vector<std::string>& labels =
        scheme.schema().attribute(j).labels();
    update_u32(labels.size());
    for (const std::string& label : labels) {
      update_u32(label.size());
      hasher.Update(label);
    }
    const Hierarchy& hierarchy = scheme.hierarchy(j);
    update_u32(hierarchy.num_sets());
    for (SetId id = 0; id < hierarchy.num_sets(); ++id) {
      const std::vector<ValueCode> values = hierarchy.set(id).Values();
      update_u32(values.size());
      hasher.Update(values.data(), values.size() * sizeof(ValueCode));
    }
  }
  return hasher.digest();
}

/// One shard checkpoint loaded back from disk, or nothing when the files
/// are absent, torn, or fail their checksum — in which case the shard is
/// simply re-run; a damaged checkpoint is never an error.
struct LoadedShard {
  GeneralizedTable table;
  ShardMeta meta;
  std::string error;  // Set by RunShardFresh for a suppressed shard.
};

bool TryLoadCheckpoint(const std::shared_ptr<const GeneralizationScheme>&
                           scheme,
                       const std::string& dir, size_t s,
                       uint64_t expected_rows, LoadedShard* loaded) {
  const std::string meta_path = ShardMetaPath(dir, s);
  const std::string out_path = ShardOutPath(dir, s);
  if (!FileExists(meta_path) || !FileExists(out_path)) return false;
  Result<std::string> text = ReadFileToString(meta_path);
  if (!text.ok()) return false;
  Result<ShardMeta> meta = ShardMeta::Parse(text.value());
  if (!meta.ok()) return false;
  if (meta.value().rows != expected_rows) return false;
  if (!VerifyChecksum(out_path, meta.value().out_checksum).ok()) return false;
  Result<GeneralizedTable> table =
      ReadShardTable(scheme, out_path, expected_rows);
  if (!table.ok()) return false;
  loaded->table = std::move(table.value());
  loaded->meta = meta.value();
  return true;
}

GeneralizedTable SuppressedTable(
    const std::shared_ptr<const GeneralizationScheme>& scheme, size_t rows) {
  GeneralizedTable table(scheme);
  const GeneralizedRecord suppressed = scheme->Suppressed();
  for (size_t i = 0; i < rows; ++i) table.AppendRecord(suppressed);
  return table;
}

/// The per-shard degradation ladder: engine under a forked child budget,
/// retries with a halved share on error, whole-shard suppression as the
/// last resort. A budget stop is accepted as a degraded-but-valid result.
Result<LoadedShard> RunShardFresh(
    const Dataset& shard_dataset,
    const std::shared_ptr<const GeneralizationScheme>& scheme,
    const PrecomputedLoss& loss, const AnonymizerConfig& base,
    size_t max_attempts, double budget_share, size_t* retries) {
  LoadedShard out{GeneralizedTable(scheme), ShardMeta(), ""};
  RunContext* parent = base.run_context;
  double fraction = budget_share;
  Status last_error = Status::OK();
  for (size_t attempt = 1; attempt <= max_attempts; ++attempt) {
    out.meta.attempts = attempt;
    // Injected shard crash (CI fault matrix): the attempt fails outright,
    // exercising the retry ladder and, when armed sticky, the suppression
    // last resort.
    Status injected = Status::OK();
    if (failpoint::AnyArmed()) injected = failpoint::Check("shard.run");
    Result<AnonymizationResult> run = injected.ok()
        ? [&]() -> Result<AnonymizationResult> {
            RunContext child;
            AnonymizerConfig config = base;
            if (parent != nullptr) {
              child = parent->Fork(fraction);
              config.run_context = &child;
            } else {
              config.run_context = nullptr;
            }
            Result<AnonymizationResult> r =
                Anonymize(shard_dataset, loss, config);
            if (r.ok() && parent != nullptr) {
              parent->ChargeSteps(r.value().iterations_completed);
            }
            return r;
          }()
        : Result<AnonymizationResult>(injected);
    if (run.ok()) {
      AnonymizationResult& result = run.value();
      out.table = std::move(result.table);
      out.meta.rows = out.table.num_rows();
      out.meta.loss = result.loss;
      out.meta.degraded = result.degraded;
      out.meta.stop_reason = result.stop_reason;
      out.meta.engine_suppressed = result.records_suppressed;
      out.meta.steps = result.iterations_completed;
      return out;
    }
    last_error = run.status();
    const bool parent_cancelled =
        parent != nullptr && parent->StopRequested() == StopReason::kCancelled;
    if (attempt < max_attempts && !parent_cancelled) {
      ++*retries;
      fraction *= 0.5;
      continue;
    }
    break;
  }
  // Last resort: publish the shard fully suppressed. Lossy, but every row
  // is R* — k-anonymous within any group of >= k suppressed rows, and the
  // boundary-repair pass guarantees the global group size.
  out.table = SuppressedTable(scheme, shard_dataset.num_rows());
  out.meta.rows = shard_dataset.num_rows();
  out.meta.loss = loss.TableLoss(out.table);
  out.meta.degraded = true;
  out.meta.suppressed = true;
  out.meta.stop_reason =
      base.run_context != nullptr ? base.run_context->stop_reason()
                                  : StopReason::kNone;
  out.meta.engine_suppressed = 0;
  out.meta.steps = 0;
  out.error = last_error.ToString();
  return out;
}

/// Commits one finished shard: the .out table's raw cells, then (after the
/// checkpoint-commit failpoint — the crash window the resume test kills
/// in) the .meta outcome record.
Status CommitCheckpoint(const std::string& dir, size_t s,
                        const GeneralizedTable& table, ShardMeta* meta) {
  const std::string content = EncodeShardTable(table);
  Hasher hasher;
  hasher.Update(content);
  meta->out_checksum = hasher.digest();
  KANON_RETURN_NOT_OK(WriteFileAtomic(ShardOutPath(dir, s), content));
  KANON_FAILPOINT("shard.checkpoint_commit");
  return WriteFileAtomic(ShardMetaPath(dir, s), meta->Format());
}

/// Restores the global k-guarantee on the merged table: identical-record
/// groups smaller than k (undersized boundary groups from suppressed or
/// degraded shards) are pooled and joined; an undersized pool absorbs the
/// smallest regular group. Deterministic: groups are visited in record
/// order. Returns the number of rows coarsened.
Result<size_t> RepairBoundaries(GeneralizedTable* table,
                                const GeneralizationScheme& scheme,
                                size_t k) {
  const size_t n = table->num_rows();
  if (n == 0) return static_cast<size_t>(0);
  if (n < k) return CheckKRange(k, n);
  const std::vector<std::vector<uint32_t>> groups =
      GroupIdenticalRecords(*table);
  std::vector<uint32_t> pool;
  for (const std::vector<uint32_t>& group : groups) {
    if (group.size() < k) pool.insert(pool.end(), group.begin(), group.end());
  }
  if (pool.empty()) return static_cast<size_t>(0);
  if (pool.size() < k) {
    // Absorb the smallest regular group (ties: first in record order) so
    // the pooled group reaches k. The absorbed rows coarsen to the join.
    const std::vector<uint32_t>* best = nullptr;
    for (const std::vector<uint32_t>& group : groups) {
      if (group.size() < k) continue;
      if (best == nullptr || group.size() < best->size()) best = &group;
    }
    if (best == nullptr) {
      // Every row is already in the pool, and the pool is the whole table
      // (n >= k was checked above) — impossible to be here with pool < k.
      return Status::InvalidArgument(
          "boundary repair cannot reach a group of " + std::to_string(k));
    }
    pool.insert(pool.end(), best->begin(), best->end());
  }
  // Joins are a semilattice, so the join of every pooled row in place is
  // the join of one row per group.
  GeneralizedRecord joined = table->record(pool.front());
  for (uint32_t row : pool) {
    const SetId* cells = table->row_data(row);
    for (size_t j = 0; j < joined.size(); ++j) {
      joined[j] = scheme.hierarchy(j).Join(joined[j], cells[j]);
    }
  }
  for (uint32_t row : pool) table->SetRecord(row, joined);
  return pool.size();
}

struct RunInputs {
  std::shared_ptr<const GeneralizationScheme> scheme;
  const LossMeasure* measure = nullptr;
  const AnonymizerConfig* base = nullptr;
  const ShardOptions* options = nullptr;
  uint64_t input_checksum = 0;
  uint64_t rows = 0;
  /// Streams every input row into the writer (partition phase).
  std::function<Status(SpillWriter*)> partition;
  /// Per-attribute value counts of the whole input (Dataset::ValueCounts's
  /// shape): all that the global cost tables read of D.
  std::vector<std::vector<uint32_t>> counts;
};

Result<ShardedResult> Run(const RunInputs& in) {
  const AnonymizerConfig& base = *in.base;
  const ShardOptions& options = *in.options;
  // An empty input publishes an empty table for every k >= 1.
  if (base.k == 0 || in.rows > 0) {
    KANON_RETURN_NOT_OK(CheckKRange(base.k, in.rows));
  }
  // Merging per-shard k-anonymous tables preserves Definition 4.1 only for
  // the per-record notion: identical-record groups can only grow in a
  // union. The relational notions compare against the *original* dataset,
  // which a shard does not see in full.
  if (PromisedNotion(base.method) != AnonymityNotion::kKAnonymity) {
    return Status::InvalidArgument(
        std::string(AnonymizationMethodName(base.method)) +
        " does not compose across shards; sharded runs require a "
        "per-record k-anonymity method (agglomerative, modified, forest, "
        "full-domain)");
  }
  if (options.work_dir.empty()) {
    return Status::InvalidArgument("sharded runs require a work directory");
  }
  if (options.max_attempts == 0) {
    return Status::InvalidArgument("max_attempts must be at least 1");
  }
  KANON_RETURN_NOT_OK(EnsureDir(options.work_dir));
  const std::string& dir = options.work_dir;
  size_t num_shards = options.num_shards != 0
                          ? options.num_shards
                          : DeriveNumShards(in.rows, options.memory_budget_mb);
  if (num_shards == 0) num_shards = 1;
  const std::string manifest_path = ManifestPath(dir);
  Tracer* tracer = base.tracer;

  // --- Phase 1: partition (or validate and adopt a previous run). -------
  Manifest manifest;
  bool have_manifest = false;
  if (options.resume && FileExists(manifest_path)) {
    KANON_ASSIGN_OR_RETURN(std::string text, ReadFileToString(manifest_path));
    Result<Manifest> parsed = Manifest::Parse(text);
    if (!parsed.ok()) {
      return Status(parsed.status().code(),
                    "cannot resume from '" + dir +
                        "': " + parsed.status().message());
    }
    manifest = std::move(parsed.value());
    have_manifest = true;
    // A bare resume (no explicit shard count) adopts the recorded
    // geometry — the original count may have been derived from a memory
    // budget the resuming invocation no longer states.
    if (options.num_shards == 0 && !manifest.shards.empty()) {
      num_shards = manifest.shards.size();
    }
  }
  const std::string fingerprint =
      FingerprintOf(base, *in.measure, num_shards, options.prefix_attributes);
  const uint64_t scheme_checksum = SchemeChecksum(*in.scheme);
  bool resumed_manifest = false;
  if (have_manifest) {
    if (manifest.fingerprint != fingerprint) {
      return Status::InvalidArgument(
          "cannot resume from '" + dir + "': configuration changed (was '" +
          manifest.fingerprint + "', now '" + fingerprint + "')");
    }
    if (manifest.scheme_checksum != scheme_checksum) {
      return Status::InvalidArgument(
          "cannot resume from '" + dir +
          "': generalization scheme changed (checksum " +
          ChecksumHex(manifest.scheme_checksum) + " -> " +
          ChecksumHex(scheme_checksum) + ")");
    }
    if (manifest.input_checksum != in.input_checksum) {
      return Status::InvalidArgument(
          "cannot resume from '" + dir + "': input changed (checksum " +
          ChecksumHex(manifest.input_checksum) + " -> " +
          ChecksumHex(in.input_checksum) + ")");
    }
    if (manifest.rows != in.rows || manifest.shards.size() != num_shards) {
      return Status::InvalidArgument("cannot resume from '" + dir +
                                     "': manifest geometry does not match");
    }
    for (size_t s = 0; s < num_shards; ++s) {
      Status spill_ok =
          VerifyChecksum(SpillPath(dir, s), manifest.shards[s].spill_checksum);
      if (!spill_ok.ok()) {
        return Status(spill_ok.code(), "cannot resume from '" + dir +
                                           "': " + spill_ok.message());
      }
    }
    resumed_manifest = true;
  }
  if (!resumed_manifest) {
    PhaseSpan span(tracer, "shard/partition");
    // A fresh partition invalidates everything downstream: stale
    // checkpoints from an earlier geometry must not be mistaken for
    // progress.
    KANON_RETURN_NOT_OK(RemoveFileIfExists(manifest_path));
    for (const char* suffix : {".spill", ".out", ".meta", ".tmp"}) {
      KANON_RETURN_NOT_OK(RemoveFilesWithSuffix(dir, suffix));
    }
    // Per-shard row cap at 2× the even split: a quasi-identifier prefix
    // heavier than that overflows to other shards instead of defeating
    // the memory budget (the engines' working set is quadratic in the
    // shard's row count, so one skew-heavy shard would dominate the whole
    // run). Slack factor 2 leaves mild imbalance alone.
    const uint64_t cap =
        num_shards > 1 ? 2 * ((in.rows + num_shards - 1) / num_shards) : 0;
    SpillWriter writer(dir, in.scheme->schema(), num_shards,
                       options.prefix_attributes, cap);
    KANON_RETURN_NOT_OK(writer.Open());
    KANON_RETURN_NOT_OK(in.partition(&writer));
    if (writer.rows_written() != in.rows) {
      return Status::IOError("input changed between passes: counted " +
                             std::to_string(in.rows) + " rows, partitioned " +
                             std::to_string(writer.rows_written()));
    }
    KANON_ASSIGN_OR_RETURN(manifest.shards, writer.Commit());
    manifest.input_checksum = in.input_checksum;
    manifest.scheme_checksum = scheme_checksum;
    manifest.rows = in.rows;
    manifest.fingerprint = fingerprint;
    KANON_RETURN_NOT_OK(WriteFileAtomic(manifest_path, manifest.Format()));
    span.set_items(in.rows);
  }

  // --- Phase 2: global cost tables. -------------------------------------
  // Loss costs must reflect the *global* value distribution (the measures
  // are frequency-dependent), so every shard optimizes — and the final
  // loss is reported — against one shared table, not per-shard
  // approximations. The tables read only per-attribute value counts, which
  // the caller took before partitioning.
  PrecomputedLoss loss(in.scheme, in.counts, *in.measure, base.num_threads);

  // --- Phase 3: per-shard runs with checkpoint/resume. -------------------
  ShardedResult result(in.scheme);
  result.rows = in.rows;
  result.num_shards = num_shards;
  // Every shard row lands at its input row in one rows x r buffer, which
  // becomes the merged table in one move.
  const size_t r = in.scheme->num_attributes();
  std::vector<SetId> merged(in.rows * r);
  std::vector<uint8_t> placed(in.rows, 0);
  RunContext* parent = base.run_context;
  for (size_t s = 0; s < num_shards; ++s) {
    ShardOutcome outcome;
    outcome.rows = manifest.shards[s].rows;
    if (outcome.rows == 0) {
      result.shards.push_back(outcome);
      continue;
    }
    PhaseSpan run_span(tracer, "shard/run");
    run_span.set_items(outcome.rows);
    LoadedShard shard{GeneralizedTable(in.scheme), ShardMeta(), ""};
    bool loaded = resumed_manifest &&
                  TryLoadCheckpoint(in.scheme, dir, s, outcome.rows, &shard);
    KANON_ASSIGN_OR_RETURN(SpillRows spill_rows,
                           ReadSpill(SpillPath(dir, s), r));
    if (spill_rows.global_rows.size() != outcome.rows) {
      return Status::IOError(
          "spill for shard " + std::to_string(s) + " has " +
          std::to_string(spill_rows.global_rows.size()) +
          " rows; manifest says " + std::to_string(outcome.rows));
    }
    if (loaded) {
      outcome.resumed = true;
      ++result.shards_resumed;
      if (parent != nullptr) {
        // Charge the steps the original run spent on this shard, so the
        // budget accounting of a resumed run matches a fresh one and later
        // shards fork identical budget shares.
        parent->ChargeSteps(static_cast<size_t>(shard.meta.steps));
      }
    } else {
      Result<Dataset> shard_dataset = Dataset::FromCells(
          in.scheme->schema(), std::move(spill_rows.cells));
      if (!shard_dataset.ok()) {
        return Status(shard_dataset.status().code(),
                      "spill for shard " + std::to_string(s) + ": " +
                          shard_dataset.status().message());
      }
      const double budget_share =
          1.0 / static_cast<double>(num_shards - s);
      KANON_ASSIGN_OR_RETURN(
          shard, RunShardFresh(shard_dataset.value(), in.scheme, loss, base,
                               options.max_attempts, budget_share,
                               &result.shard_retries));
      PhaseSpan checkpoint_span(tracer, "shard/checkpoint");
      KANON_RETURN_NOT_OK(CommitCheckpoint(dir, s, shard.table, &shard.meta));
    }
    if (shard.meta.suppressed) ++result.shards_suppressed;
    result.degraded = result.degraded || shard.meta.degraded;
    if (result.stop_reason == StopReason::kNone) {
      result.stop_reason = shard.meta.stop_reason;
    }
    outcome.attempts = shard.meta.attempts;
    outcome.suppressed = shard.meta.suppressed;
    outcome.degraded = shard.meta.degraded;
    outcome.stop_reason = shard.meta.stop_reason;
    outcome.error = std::move(shard.error);
    result.shards.push_back(outcome);
    KANON_CHECK(shard.table.num_rows() == spill_rows.global_rows.size(),
                "a shard table has one row per spill row");
    for (size_t i = 0; i < spill_rows.global_rows.size(); ++i) {
      const uint64_t row = spill_rows.global_rows[i];
      if (row >= in.rows || placed[row]) {
        return Status::IOError("spill for shard " + std::to_string(s) +
                               " places row " + std::to_string(row) +
                               (row < in.rows ? " twice" : " out of range"));
      }
      placed[row] = 1;
      const SetId* cells = shard.table.row_data(i);
      std::copy(cells, cells + r, merged.begin() + row * r);
    }
  }

  // --- Phase 4: merge in input row order. --------------------------------
  {
    PhaseSpan span(tracer, "shard/merge");
    span.set_items(in.rows);
    for (size_t i = 0; i < in.rows; ++i) {
      if (!placed[i]) {
        return Status::IOError("row " + std::to_string(i) +
                               " missing from every shard");
      }
    }
    KANON_ASSIGN_OR_RETURN(
        result.table,
        GeneralizedTable::FromCells(in.scheme, std::move(merged)));
  }

  // --- Phase 5: cross-shard boundary repair. -----------------------------
  {
    PhaseSpan span(tracer, "shard/repair");
    KANON_ASSIGN_OR_RETURN(
        result.boundary_repaired,
        RepairBoundaries(&result.table, *in.scheme, base.k));
    span.set_items(result.boundary_repaired);
    if (result.boundary_repaired > 0) result.degraded = true;
  }

  const GeneralizedRecord suppressed_record = in.scheme->Suppressed();
  for (size_t i = 0; i < result.table.num_rows(); ++i) {
    if (std::equal(suppressed_record.begin(), suppressed_record.end(),
                   result.table.row_data(i))) {
      ++result.records_suppressed;
    }
  }
  result.loss = loss.TableLoss(result.table);

  if (base.metrics != nullptr) {
    base.metrics->GetCounter("shard.shards")->Set(num_shards);
    base.metrics->GetCounter("shard.retries")->Set(result.shard_retries);
    base.metrics->GetCounter("shard.suppressed")
        ->Set(result.shards_suppressed);
    // Resumption depends on what a previous run left on disk, not on this
    // run's input — outside the thread-determinism contract's scope but
    // flagged nondeterministic to keep fingerprints portable.
    base.metrics->GetCounter("shard.resumed", /*deterministic=*/false)
        ->Set(result.shards_resumed);
    base.metrics->GetCounter("shard.repaired_rows")
        ->Set(result.boundary_repaired);
  }
  return result;
}

}  // namespace

Result<ShardedResult> ShardedAnonymize(
    const Dataset& dataset,
    std::shared_ptr<const GeneralizationScheme> scheme,
    const LossMeasure& measure, const AnonymizerConfig& base,
    const ShardOptions& options) {
  if (scheme == nullptr) {
    return Status::InvalidArgument("scheme must not be null");
  }
  // The spills carry the dataset's codes as they are, so each must name
  // the same label under the scheme's schema.
  const Schema& schema = scheme->schema();
  bool same_labels = dataset.num_attributes() == schema.num_attributes();
  for (size_t j = 0; same_labels && j < schema.num_attributes(); ++j) {
    same_labels = dataset.schema().attribute(j).labels() ==
                  schema.attribute(j).labels();
  }
  if (!same_labels) {
    return Status::InvalidArgument(
        "dataset labels do not match the scheme's schema");
  }
  RunInputs in;
  in.scheme = std::move(scheme);
  in.measure = &measure;
  in.base = &base;
  in.options = &options;
  in.rows = dataset.num_rows();
  in.counts = dataset.ValueCounts();
  in.input_checksum = DatasetChecksum(dataset);
  in.partition = [&dataset](SpillWriter* writer) -> Status {
    for (size_t i = 0; i < dataset.num_rows(); ++i) {
      KANON_RETURN_NOT_OK(writer->Append(i, dataset.row_view(i)));
    }
    return Status::OK();
  };
  return Run(in);
}

Result<ShardedResult> ShardedAnonymizeCsvFile(
    const std::string& csv_path,
    std::shared_ptr<const GeneralizationScheme> scheme,
    const CsvOptions& csv_options, const LossMeasure& measure,
    const AnonymizerConfig& base, const ShardOptions& options) {
  if (scheme == nullptr) {
    return Status::InvalidArgument("scheme must not be null");
  }
  RunInputs in;
  in.scheme = scheme;
  in.measure = &measure;
  in.base = &base;
  in.options = &options;
  KANON_ASSIGN_OR_RETURN(in.input_checksum, ChecksumFile(csv_path));
  // Both passes stream the text through the one schema-checked row reader
  // and code each row against the schema (an unknown label is an error
  // naming its line); nothing is held in memory.
  const Schema& schema = scheme->schema();
  const auto for_each_row =
      [&](const std::function<Status(uint64_t, const Record&)>& row)
      -> Status {
    std::ifstream file(csv_path);
    if (!file) {
      return Status::IOError("cannot open '" + csv_path + "' for reading");
    }
    Record codes(schema.num_attributes());
    return ForEachCsvRow(
        file, schema, csv_options,
        [&](uint64_t index, const std::vector<std::string>& fields) -> Status {
          for (size_t j = 0; j < codes.size(); ++j) {
            KANON_ASSIGN_OR_RETURN(codes[j],
                                   schema.attribute(j).CodeOf(fields[j]));
          }
          return row(index, codes);
        });
  };
  // Counting pass: the shard count (and the manifest) need the row count
  // before partitioning starts, and the global cost tables need the value
  // counts. It runs on every invocation, so a resume recounts rather than
  // trusting counts on disk.
  {
    PhaseSpan span(base.tracer, "shard/count");
    in.counts = Dataset(schema).ValueCounts();  // Zeros, one per value.
    KANON_RETURN_NOT_OK(for_each_row([&in](uint64_t, const Record& codes) {
      for (size_t j = 0; j < codes.size(); ++j) ++in.counts[j][codes[j]];
      ++in.rows;
      return Status::OK();
    }));
    span.set_items(in.rows);
  }
  in.partition = [&for_each_row](SpillWriter* writer) {
    return for_each_row([writer](uint64_t row, const Record& codes) {
      return writer->Append(row, codes);
    });
  };
  return Run(in);
}

}  // namespace shard
}  // namespace kanon
