#include "kanon/generalization/scheme.h"

#include "kanon/common/check.h"

namespace kanon {

Result<GeneralizationScheme> GeneralizationScheme::Create(
    Schema schema, std::vector<Hierarchy> hierarchies) {
  if (hierarchies.size() != schema.num_attributes()) {
    return Status::InvalidArgument(
        "scheme needs one hierarchy per attribute: got " +
        std::to_string(hierarchies.size()) + " for " +
        std::to_string(schema.num_attributes()) + " attributes");
  }
  for (size_t j = 0; j < hierarchies.size(); ++j) {
    if (hierarchies[j].domain_size() != schema.attribute(j).size()) {
      return Status::InvalidArgument(
          "hierarchy domain size mismatch for attribute '" +
          schema.attribute(j).name() + "'");
    }
  }
  return GeneralizationScheme(std::move(schema), std::move(hierarchies));
}

Result<GeneralizationScheme> GeneralizationScheme::SuppressionOnly(
    Schema schema) {
  std::vector<Hierarchy> hierarchies;
  hierarchies.reserve(schema.num_attributes());
  for (size_t j = 0; j < schema.num_attributes(); ++j) {
    KANON_ASSIGN_OR_RETURN(
        Hierarchy h, Hierarchy::SuppressionOnly(schema.attribute(j).size()));
    hierarchies.push_back(std::move(h));
  }
  return Create(std::move(schema), std::move(hierarchies));
}

const Hierarchy& GeneralizationScheme::hierarchy(size_t attr) const {
  KANON_CHECK(attr < hierarchies_.size(), "attribute index out of range");
  return hierarchies_[attr];
}

GeneralizedRecord GeneralizationScheme::Identity(RowView record) const {
  KANON_CHECK(record.size() == hierarchies_.size(), "record arity mismatch");
  GeneralizedRecord out(record.size());
  for (size_t j = 0; j < record.size(); ++j) {
    out[j] = hierarchies_[j].LeafOf(record[j]);
  }
  return out;
}

GeneralizedRecord GeneralizationScheme::Suppressed() const {
  GeneralizedRecord out(hierarchies_.size());
  for (size_t j = 0; j < hierarchies_.size(); ++j) {
    out[j] = hierarchies_[j].FullSetId();
  }
  return out;
}

GeneralizedRecord GeneralizationScheme::JoinRecords(
    const GeneralizedRecord& a, const GeneralizedRecord& b) const {
  KANON_CHECK(a.size() == hierarchies_.size() && b.size() == a.size(),
              "record arity mismatch");
  GeneralizedRecord out(a.size());
  for (size_t j = 0; j < a.size(); ++j) {
    out[j] = hierarchies_[j].Join(a[j], b[j]);
  }
  return out;
}

GeneralizedRecord GeneralizationScheme::ClosureOfRows(
    const Dataset& dataset, const std::vector<uint32_t>& rows) const {
  GeneralizedRecord out(hierarchies_.size());
  ClosureOfRows(dataset, rows, out.data());
  return out;
}

void GeneralizationScheme::ClosureOfRows(const Dataset& dataset,
                                         const std::vector<uint32_t>& rows,
                                         SetId* out) const {
  KANON_CHECK(!rows.empty(), "closure of an empty cluster is undefined");
  KANON_CHECK(dataset.num_attributes() == hierarchies_.size(),
              "dataset arity mismatch");
  const size_t r = hierarchies_.size();
  for (size_t j = 0; j < r; ++j) {
    // Raw leaf/join tables: this fold runs once per cluster mutation in
    // every pipeline, so the per-step accessor checks add up.
    const Hierarchy& h = hierarchies_[j];
    const SetId* leaf = h.leaf_table();
    const SetId* join = h.join_table();
    const size_t num_sets = h.num_sets();
    SetId acc = leaf[dataset.at(rows[0], j)];
    for (size_t i = 1; i < rows.size(); ++i) {
      acc = join[static_cast<size_t>(acc) * num_sets +
                 leaf[dataset.at(rows[i], j)]];
    }
    out[j] = acc;
  }
}

bool GeneralizationScheme::Consistent(RowView record,
                                      const GeneralizedRecord& gen) const {
  KANON_CHECK(record.size() == hierarchies_.size() &&
                  gen.size() == record.size(),
              "record arity mismatch");
  for (size_t j = 0; j < record.size(); ++j) {
    if (!hierarchies_[j].Contains(gen[j], record[j])) return false;
  }
  return true;
}

std::string GeneralizationScheme::Format(const GeneralizedRecord& gen) const {
  KANON_CHECK(gen.size() == hierarchies_.size(), "record arity mismatch");
  std::string out;
  for (size_t j = 0; j < gen.size(); ++j) {
    if (j > 0) out += " | ";
    out += hierarchies_[j].set(gen[j]).ToString(schema_.attribute(j));
  }
  return out;
}

}  // namespace kanon
