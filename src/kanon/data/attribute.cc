#include "kanon/data/attribute.h"

#include <limits>

#include "kanon/common/check.h"

namespace kanon {

Result<AttributeDomain> AttributeDomain::Create(
    std::string name, std::vector<std::string> labels) {
  if (labels.empty()) {
    return Status::InvalidArgument("attribute '" + name +
                                   "' must have at least one value");
  }
  if (labels.size() > std::numeric_limits<ValueCode>::max()) {
    return Status::InvalidArgument("attribute '" + name +
                                   "' has too many values");
  }
  AttributeDomain domain(std::move(name), std::move(labels));
  if (domain.code_of_.size() != domain.labels_.size()) {
    return Status::InvalidArgument("attribute '" + domain.name_ +
                                   "' has duplicate value labels");
  }
  return domain;
}

AttributeDomain AttributeDomain::IntegerRange(std::string name, int lo,
                                              int hi) {
  KANON_CHECK(lo <= hi, "IntegerRange requires lo <= hi");
  std::vector<std::string> labels;
  labels.reserve(static_cast<size_t>(hi - lo) + 1);
  for (int v = lo; v <= hi; ++v) {
    labels.push_back(std::to_string(v));
  }
  Result<AttributeDomain> result = Create(std::move(name), std::move(labels));
  KANON_CHECK(result.ok(), result.status().ToString());
  return std::move(result).value();
}

AttributeDomain::AttributeDomain(std::string name,
                                 std::vector<std::string> labels)
    : name_(std::move(name)), labels_(std::move(labels)) {
  code_of_.reserve(labels_.size());
  for (size_t i = 0; i < labels_.size(); ++i) {
    code_of_.emplace(labels_[i], static_cast<ValueCode>(i));
  }
}

const std::string& AttributeDomain::label(ValueCode code) const {
  KANON_CHECK(code < labels_.size(), "value code out of range");
  return labels_[code];
}

Result<ValueCode> AttributeDomain::CodeOf(const std::string& label) const {
  auto it = code_of_.find(label);
  if (it == code_of_.end()) {
    return Status::NotFound("attribute '" + name_ + "' has no value '" +
                            label + "'");
  }
  return it->second;
}

}  // namespace kanon
