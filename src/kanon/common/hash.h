#ifndef KANON_COMMON_HASH_H_
#define KANON_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace kanon {

/// FNV-1a 64-bit: the one non-cryptographic hash of the library. It keys the
/// daemon's caches, checksums the shard journals and forks RNG substreams
/// by label. Journals on disk store its digests, so the constants and the
/// byte order of the loop must never change.
inline constexpr uint64_t kFnv1aOffsetBasis = 14695981039346656037ull;
inline constexpr uint64_t kFnv1aPrime = 1099511628211ull;

/// FNV-1a over a byte range, chainable via `seed`: hashing two ranges in
/// turn equals hashing their concatenation.
inline uint64_t Fnv1a(const void* data, size_t len,
                      uint64_t seed = kFnv1aOffsetBasis) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  uint64_t hash = seed;
  for (size_t i = 0; i < len; ++i) {
    hash ^= bytes[i];
    hash *= kFnv1aPrime;
  }
  return hash;
}

/// Running FNV-1a over bytes fed in pieces.
class Fnv1aHasher {
 public:
  void Update(const void* data, size_t size) {
    state_ = Fnv1a(data, size, state_);
  }
  void Update(std::string_view text) { Update(text.data(), text.size()); }
  uint64_t digest() const { return state_; }

 private:
  uint64_t state_ = kFnv1aOffsetBasis;
};

}  // namespace kanon

#endif  // KANON_COMMON_HASH_H_
