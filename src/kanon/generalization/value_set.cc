#include "kanon/generalization/value_set.h"

#include <bit>

namespace kanon {

ValueSet ValueSet::Of(size_t universe_size,
                      const std::vector<ValueCode>& values) {
  ValueSet set(universe_size);
  for (ValueCode v : values) {
    KANON_CHECK(v < universe_size, "value out of universe");
    set.Insert(v);
  }
  return set;
}

ValueSet ValueSet::All(size_t universe_size) {
  ValueSet set(universe_size);
  for (size_t v = 0; v < universe_size; ++v) {
    set.Insert(static_cast<ValueCode>(v));
  }
  return set;
}

ValueSet ValueSet::Singleton(size_t universe_size, ValueCode value) {
  ValueSet set(universe_size);
  set.Insert(value);
  return set;
}

size_t ValueSet::Count() const {
  size_t count = 0;
  for (uint64_t w : words_) {
    count += static_cast<size_t>(std::popcount(w));
  }
  return count;
}

ValueSet ValueSet::Union(const ValueSet& other) const {
  KANON_CHECK(universe_size_ == other.universe_size_,
              "ValueSet universe mismatch");
  ValueSet out(universe_size_);
  for (size_t i = 0; i < words_.size(); ++i) {
    out.words_[i] = words_[i] | other.words_[i];
  }
  return out;
}

bool ValueSet::IsSubsetOf(const ValueSet& other) const {
  KANON_CHECK(universe_size_ == other.universe_size_,
              "ValueSet universe mismatch");
  for (size_t i = 0; i < words_.size(); ++i) {
    if ((words_[i] & ~other.words_[i]) != 0) return false;
  }
  return true;
}

bool ValueSet::DisjointFrom(const ValueSet& other) const {
  KANON_CHECK(universe_size_ == other.universe_size_,
              "ValueSet universe mismatch");
  for (size_t i = 0; i < words_.size(); ++i) {
    if ((words_[i] & other.words_[i]) != 0) return false;
  }
  return true;
}

bool ValueSet::operator<(const ValueSet& other) const {
  const size_t a = Count();
  const size_t b = other.Count();
  if (a != b) return a < b;
  const std::vector<ValueCode> va = Values();
  const std::vector<ValueCode> vb = other.Values();
  return va < vb;
}

std::vector<ValueCode> ValueSet::Values() const {
  std::vector<ValueCode> out;
  for (size_t i = 0; i < words_.size(); ++i) {
    uint64_t w = words_[i];
    while (w != 0) {
      int bit = std::countr_zero(w);
      out.push_back(static_cast<ValueCode>(i * 64 + static_cast<size_t>(bit)));
      w &= w - 1;
    }
  }
  return out;
}

std::string ValueSet::ToString() const {
  std::string out = "{";
  bool first = true;
  for (ValueCode v : Values()) {
    if (!first) out += ",";
    out += std::to_string(v);
    first = false;
  }
  out += "}";
  return out;
}

std::string ValueSet::ToString(const AttributeDomain& domain) const {
  const std::vector<ValueCode> values = Values();
  if (values.size() == 1) {
    return domain.label(values[0]);
  }
  if (values.size() == domain.size()) {
    return "*";
  }
  std::string out = "{";
  bool first = true;
  for (ValueCode v : values) {
    if (!first) out += ",";
    out += domain.label(v);
    first = false;
  }
  out += "}";
  return out;
}

}  // namespace kanon
