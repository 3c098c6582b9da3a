#ifndef KANON_SHARD_SHARD_IO_H_
#define KANON_SHARD_SHARD_IO_H_

#include <cstdint>
#include <string>

#include "kanon/common/hash.h"
#include "kanon/common/result.h"

namespace kanon {
namespace shard {

/// File I/O primitives for the out-of-core sharded driver
/// (docs/sharding.md): every spill file, checkpoint, and manifest goes
/// through the commit protocol here, so a run killed at *any* instruction
/// leaves either the previous committed state or a detectably-partial
/// temporary — never a torn file that a resume would trust.
///
/// Durability model: contents are flushed before the rename and checksummed
/// end to end; a torn or bit-flipped file fails its checksum on resume and
/// the unit of work it belonged to is simply redone. There is no fsync —
/// crash-consistency across power loss is out of scope, process death (the
/// common case: deadline kill, OOM kill, crash) is fully covered.
///
/// Failpoints (docs/robustness.md) wired into every path:
///   shard.file_write    — torn write: half the payload reaches the .tmp
///                         file, the write reports an IOError (disk full /
///                         short write), and no rename happens.
///   shard.file_commit   — the payload is fully written but the commit
///                         rename is denied (crash between write and
///                         publish).
///   shard.file_read     — read failure on a committed file.
///   shard.checksum      — checksum verification reports an injected
///                         mismatch even on good bytes.

/// The content checksum of every committed file: running FNV-1a, cheap
/// enough to pay on the 1M-row path.
using Hasher = Fnv1aHasher;

/// Lower-case hex rendering of a checksum, fixed 16 digits.
std::string ChecksumHex(uint64_t digest);

/// Checksum of a whole file's bytes.
Result<uint64_t> ChecksumFile(const std::string& path);

/// Reads a whole (small) committed file.
Result<std::string> ReadFileToString(const std::string& path);

/// Writes `content` to `path` atomically: the bytes go to `path + ".tmp"`,
/// are flushed, and the temporary is renamed over `path` only when every
/// byte made it. Readers therefore see the old state or the new state,
/// never a prefix.
Status WriteFileAtomic(const std::string& path, const std::string& content);

/// Renames `from` over `to` (the commit step for streamed files whose
/// contents were written incrementally). Same failpoint as
/// WriteFileAtomic's commit.
Status CommitFile(const std::string& from, const std::string& to);

/// Verifies that `path`'s checksum equals `expected`. A mismatch (or an
/// armed shard.checksum failpoint) reports the actual digest in the error.
Status VerifyChecksum(const std::string& path, uint64_t expected);

bool FileExists(const std::string& path);

/// Recursively creates `dir` (OK if it already exists).
Status EnsureDir(const std::string& dir);

/// Deletes every regular file directly inside `dir` whose name ends with
/// `suffix` (no recursion). Missing dir is OK. Used to clear stale state
/// when a run is (re)partitioned from scratch.
Status RemoveFilesWithSuffix(const std::string& dir,
                             const std::string& suffix);

/// Deletes `path` if it exists (missing file is OK).
Status RemoveFileIfExists(const std::string& path);

}  // namespace shard
}  // namespace kanon

#endif  // KANON_SHARD_SHARD_IO_H_
