#ifndef KANON_DATA_ATTRIBUTE_H_
#define KANON_DATA_ATTRIBUTE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "kanon/common/result.h"
#include "kanon/common/status.h"

namespace kanon {

/// Code of an attribute value within its domain (index into the label list).
using ValueCode = uint16_t;

/// An unknown value: the entry of a partial record (an adversary's linkage
/// query) that matches every published subset. Domains hold at most 65535
/// values, so no real code equals it.
inline constexpr ValueCode kNoValue = static_cast<ValueCode>(0xFFFF);

/// A finite categorical attribute domain A_j = {a_{j,1}, ..., a_{j,m_j}}
/// (Section III of the paper). Values are stored as labels and addressed by
/// dense codes 0..size()-1. Numeric attributes (e.g. age) are modeled as
/// categorical domains whose labels are the number literals.
class AttributeDomain {
 public:
  /// Creates a domain. Labels must be non-empty and distinct.
  static Result<AttributeDomain> Create(std::string name,
                                        std::vector<std::string> labels);

  /// Convenience: integer domain {lo, lo+1, ..., hi} with decimal labels.
  static AttributeDomain IntegerRange(std::string name, int lo, int hi);

  const std::string& name() const { return name_; }
  size_t size() const { return labels_.size(); }

  const std::string& label(ValueCode code) const;
  const std::vector<std::string>& labels() const { return labels_; }

  /// Looks up the code of a label.
  Result<ValueCode> CodeOf(const std::string& label) const;

 private:
  AttributeDomain(std::string name, std::vector<std::string> labels);

  std::string name_;
  std::vector<std::string> labels_;
  std::unordered_map<std::string, ValueCode> code_of_;
};

}  // namespace kanon

#endif  // KANON_DATA_ATTRIBUTE_H_
