#include "kanon/serve/params.h"

#include <sstream>

#include "kanon/data/csv.h"
#include "kanon/generalization/scheme_spec.h"

namespace kanon {
namespace serve {
namespace {

/// Fingerprint of a schema (attribute names and domain sizes).
uint64_t SchemaFingerprint(const Schema& schema) {
  uint64_t hash = Fnv1a(nullptr, 0);
  for (size_t j = 0; j < schema.num_attributes(); ++j) {
    const AttributeDomain& domain = schema.attribute(j);
    hash = Fnv1a(domain.name().data(), domain.name().size(), hash);
    for (const std::string& label : domain.labels()) {
      hash = Fnv1a(label.data(), label.size(), hash);
      hash = Fnv1a("\x1f", 1, hash);  // Separator so labels cannot run together.
    }
    hash = Fnv1a("\x1e", 1, hash);
  }
  return hash;
}

}  // namespace

SchemeCache::SchemeCache(size_t capacity, MetricsRegistry* metrics)
    : capacity_(capacity == 0 ? 1 : capacity) {
  if (metrics != nullptr) {
    hits_ = metrics->GetCounter("serve.scheme_cache_hits");
    misses_ = metrics->GetCounter("serve.scheme_cache_misses");
  }
}

Result<std::shared_ptr<const GeneralizationScheme>> SchemeCache::Get(
    const std::string& spec_text, const Schema& schema) {
  uint64_t key = Fnv1a(spec_text.data(), spec_text.size());
  key ^= SchemaFingerprint(schema);
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = schemes_.find(key);
    if (it != schemes_.end()) {
      if (hits_ != nullptr) hits_->Add();
      return it->second;
    }
  }
  if (misses_ != nullptr) misses_->Add();
  Result<GeneralizationScheme> parsed = Status::Internal("unset");
  if (spec_text.empty()) {
    parsed = GeneralizationScheme::SuppressionOnly(schema);
  } else {
    std::istringstream spec_stream(spec_text);
    parsed = ParseSchemeSpec(schema, spec_stream);
  }
  if (!parsed.ok()) return parsed.status();
  auto scheme = std::make_shared<const GeneralizationScheme>(
      std::move(parsed).value());
  std::lock_guard<std::mutex> lock(mu_);
  // Full cache: drop everything rather than track recency — the store is
  // tiny and a refill costs one spec parse per shape.
  if (schemes_.size() >= capacity_ && schemes_.find(key) == schemes_.end()) {
    schemes_.clear();
  }
  schemes_.emplace(key, scheme);
  return scheme;
}

size_t SchemeCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return schemes_.size();
}

Result<ParsedTable> ParseCsvAndSpec(const std::string& csv_text,
                                    const std::string& spec_text,
                                    SchemeCache& cache) {
  KANON_ASSIGN_OR_RETURN(Dataset dataset, ReadCsvInferSchemaText(csv_text));
  KANON_ASSIGN_OR_RETURN(std::shared_ptr<const GeneralizationScheme> scheme,
                         cache.Get(spec_text, dataset.schema()));
  return ParsedTable(std::move(dataset), std::move(scheme));
}

}  // namespace serve
}  // namespace kanon
