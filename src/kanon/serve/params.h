#ifndef KANON_SERVE_PARAMS_H_
#define KANON_SERVE_PARAMS_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "kanon/common/hash.h"
#include "kanon/common/result.h"
#include "kanon/data/dataset.h"
#include "kanon/generalization/scheme.h"
#include "kanon/telemetry/metrics.h"

namespace kanon {
namespace serve {

/// Kept under serve:: for callers that spell it so; common/hash.h defines
/// it.
using kanon::Fnv1a;

/// A dataset and the scheme it is coded against, built from inline CSV and
/// spec text — the ingestion step shared by `submit` and `register_table`.
struct ParsedTable {
  Dataset dataset;
  std::shared_ptr<const GeneralizationScheme> scheme;

  ParsedTable(Dataset dataset_in,
              std::shared_ptr<const GeneralizationScheme> scheme_in)
      : dataset(std::move(dataset_in)), scheme(std::move(scheme_in)) {}
};

/// A bounded intern table for parsed generalization schemes, keyed by
/// (spec text, schema) fingerprints. Thread-safe. Hits mean a request
/// reuses hierarchies (join tables included) built by an earlier request.
class SchemeCache {
 public:
  /// `metrics` (optional) receives serve.scheme_cache_{hits,misses}.
  SchemeCache(size_t capacity, MetricsRegistry* metrics);

  /// Returns the cached scheme for (spec_text, schema), parsing and
  /// inserting on miss. Parse errors are returned, never cached.
  Result<std::shared_ptr<const GeneralizationScheme>> Get(
      const std::string& spec_text, const Schema& schema);

  size_t size() const;

 private:
  const size_t capacity_;
  Counter* hits_ = nullptr;
  Counter* misses_ = nullptr;
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, std::shared_ptr<const GeneralizationScheme>>
      schemes_;
};

/// Tokenizes `csv_text` in place (schema inferred, no stream copy) and
/// takes its scheme for `spec_text` (empty = suppression-only hierarchies
/// everywhere) from `cache`, so resubmissions of the same (spec, schema)
/// shape share one hierarchy object — the service's hot state.
Result<ParsedTable> ParseCsvAndSpec(const std::string& csv_text,
                                    const std::string& spec_text,
                                    SchemeCache& cache);

}  // namespace serve
}  // namespace kanon

#endif  // KANON_SERVE_PARAMS_H_
