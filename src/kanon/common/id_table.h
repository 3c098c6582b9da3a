#ifndef KANON_COMMON_ID_TABLE_H_
#define KANON_COMMON_ID_TABLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "kanon/common/check.h"

namespace kanon {

/// The hash index of an interner that keeps its keys itself and numbers
/// them 0, 1, ... in insertion order (RowInterner's code rows, the CSV
/// reader's labels). Open addressing with linear probing, at most half
/// full; a slot holds the key's high 32 hash bits and its id + 1, so most
/// mismatches are ruled out without touching the key. The low hash bits
/// pick the slot.
class IdTable {
 public:
  size_t size() const { return size_; }

  /// The id of the key with hash `hash` for which `same(id)` holds; when
  /// there is none, the next id (size() before the call), now installed.
  /// `*inserted` tells which. `hash_of(id)` re-hashes a stored key when the
  /// table grows.
  template <typename Same, typename HashOf>
  uint32_t Intern(uint64_t hash, Same same, HashOf hash_of, bool* inserted) {
    if (2 * (size_ + 1) > slots_.size()) Grow(hash_of);
    const uint64_t tag = hash >> 32 << 32;
    const size_t mask = slots_.size() - 1;
    for (size_t s = hash & mask;; s = (s + 1) & mask) {
      const uint64_t slot = slots_[s];
      if (slot == 0) {
        KANON_CHECK(size_ != UINT32_MAX, "id table exhausted its id space");
        const auto id = static_cast<uint32_t>(size_++);
        slots_[s] = tag | (uint64_t{id} + 1);
        *inserted = true;
        return id;
      }
      const auto id = static_cast<uint32_t>((slot & 0xFFFFFFFFu) - 1);
      if ((slot & ~uint64_t{0xFFFFFFFFu}) == tag && same(id)) {
        *inserted = false;
        return id;
      }
    }
  }

 private:
  template <typename HashOf>
  void Grow(HashOf hash_of) {
    std::vector<uint64_t> slots(std::max<size_t>(64, 2 * slots_.size()), 0);
    const size_t mask = slots.size() - 1;
    for (uint32_t id = 0; id < size_; ++id) {
      const uint64_t hash = hash_of(id);
      size_t s = hash & mask;
      while (slots[s] != 0) s = (s + 1) & mask;
      slots[s] = hash >> 32 << 32 | (uint64_t{id} + 1);
    }
    slots_ = std::move(slots);
  }

  size_t size_ = 0;
  std::vector<uint64_t> slots_;  // High 32 hash bits | (id + 1); 0 = empty.
};

}  // namespace kanon

#endif  // KANON_COMMON_ID_TABLE_H_
