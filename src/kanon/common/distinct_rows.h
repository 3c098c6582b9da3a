#ifndef KANON_COMMON_DISTINCT_ROWS_H_
#define KANON_COMMON_DISTINCT_ROWS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "kanon/common/id_table.h"

namespace kanon {

/// A hash of r 16-bit codes, four at a time: one multiply-xorshift round
/// per 64-bit word, so every code reaches the low bits a table masks with.
inline uint64_t HashCodes(const uint16_t* codes, size_t r) {
  constexpr uint64_t kMul = 0x9E3779B97F4A7C15ull;
  uint64_t hash = r;
  size_t j = 0;
  for (; j + 4 <= r; j += 4) {
    uint64_t word;
    std::memcpy(&word, codes + j, sizeof(word));
    hash = (hash ^ word) * kMul;
    hash ^= hash >> 32;
  }
  for (; j < r; ++j) {
    hash = (hash ^ codes[j]) * kMul;
    hash ^= hash >> 32;
  }
  return hash;
}

/// Interns rows of r 16-bit codes (dataset rows, generalized records) into
/// dense ids, in first-insertion order. Each distinct row is copied once
/// into one contiguous array, so a probe compares against cache-resident
/// keys rather than wherever the row came from.
class RowInterner {
 public:
  explicit RowInterner(size_t r) : r_(r) {}

  /// The id of the r codes at `codes`; `*inserted` (optional) reports
  /// whether this call installed it.
  uint32_t Intern(const uint16_t* codes, bool* inserted = nullptr) {
    bool fresh = false;
    const uint32_t id = ids_.Intern(
        HashCodes(codes, r_),
        [&](uint32_t id) { return std::equal(codes, codes + r_, row(id)); },
        [this](uint32_t id) { return HashCodes(row(id), r_); }, &fresh);
    if (fresh) codes_.insert(codes_.end(), codes, codes + r_);
    if (inserted != nullptr) *inserted = fresh;
    return id;
  }

  size_t size() const { return ids_.size(); }
  size_t arity() const { return r_; }

  /// The r codes of row `id`.
  const uint16_t* row(uint32_t id) const { return codes_.data() + id * r_; }

  /// Moves out the distinct rows, row-major in id order.
  std::vector<uint16_t> TakeCodes() { return std::move(codes_); }

 private:
  size_t r_;
  IdTable ids_;
  std::vector<uint16_t> codes_;  // Distinct rows, row-major.
};

/// The distinct rows of an n x r table of 16-bit codes, numbered in
/// first-occurrence order.
struct DistinctRows {
  /// id_of_row[i] is the id of row i's contents.
  std::vector<uint32_t> id_of_row;
  /// The distinct rows themselves, row-major in id order.
  std::vector<uint16_t> codes;
  size_t num_distinct = 0;

  size_t size() const { return num_distinct; }
};

/// Numbers the distinct rows of an n x r table whose row i is the r codes
/// at `row(i)` (a `const uint16_t*`): one RowInterner probe per row.
template <typename RowFn>
DistinctRows NumberDistinctRows(size_t n, size_t r, RowFn row) {
  DistinctRows out;
  out.id_of_row.resize(n);
  RowInterner interner(r);
  for (size_t i = 0; i < n; ++i) out.id_of_row[i] = interner.Intern(row(i));
  out.num_distinct = interner.size();
  out.codes = interner.TakeCodes();
  return out;
}

}  // namespace kanon

#endif  // KANON_COMMON_DISTINCT_ROWS_H_
