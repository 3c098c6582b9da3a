#ifndef KANON_GENERALIZATION_VALUE_SET_H_
#define KANON_GENERALIZATION_VALUE_SET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "kanon/common/check.h"
#include "kanon/data/attribute.h"

namespace kanon {

/// A subset B_j ⊆ A_j of an attribute domain, represented as a bitset.
/// Generalized table entries are permissible ValueSets (Definition 3.1).
class ValueSet {
 public:
  ValueSet() : universe_size_(0) {}

  /// Empty set over a domain of `universe_size` values.
  explicit ValueSet(size_t universe_size)
      : universe_size_(universe_size), words_((universe_size + 63) / 64, 0) {}

  /// Set containing exactly `values`.
  static ValueSet Of(size_t universe_size,
                     const std::vector<ValueCode>& values);

  /// The full domain A_j.
  static ValueSet All(size_t universe_size);

  /// Singleton {value}.
  static ValueSet Singleton(size_t universe_size, ValueCode value);

  size_t universe_size() const { return universe_size_; }

  void Insert(ValueCode value) {
    KANON_DCHECK(value < universe_size_);
    words_[value >> 6] |= uint64_t{1} << (value & 63);
  }

  bool Contains(ValueCode value) const {
    KANON_DCHECK(value < universe_size_);
    return (words_[value >> 6] >> (value & 63)) & 1;
  }

  /// Number of values in the set.
  size_t Count() const;

  bool Empty() const { return Count() == 0; }

  /// Set union (both operands must share a universe).
  ValueSet Union(const ValueSet& other) const;

  /// True iff this ⊆ other.
  bool IsSubsetOf(const ValueSet& other) const;

  /// True iff the intersection is empty.
  bool DisjointFrom(const ValueSet& other) const;

  bool operator==(const ValueSet& other) const {
    return universe_size_ == other.universe_size_ && words_ == other.words_;
  }
  bool operator!=(const ValueSet& other) const { return !(*this == other); }

  /// Deterministic ordering: by cardinality, then lexicographically by
  /// member values. Used to assign stable ids in Hierarchy.
  bool operator<(const ValueSet& other) const;

  /// Member values in increasing order.
  std::vector<ValueCode> Values() const;

  /// "{a,b,c}" using the codes, or the labels when a domain is given.
  std::string ToString() const;
  std::string ToString(const AttributeDomain& domain) const;

 private:
  size_t universe_size_;
  std::vector<uint64_t> words_;
};

}  // namespace kanon

#endif  // KANON_GENERALIZATION_VALUE_SET_H_
