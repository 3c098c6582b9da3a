#include "kanon/shard/shard_io.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "kanon/common/failpoint.h"

namespace kanon {
namespace shard {

namespace {

namespace fs = std::filesystem;

}  // namespace

std::string ChecksumHex(uint64_t digest) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(digest));
  return std::string(buffer);
}

Result<uint64_t> ChecksumFile(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    return Status::IOError("cannot open '" + path + "' for checksumming");
  }
  Hasher hasher;
  char buffer[1 << 16];
  while (file) {
    file.read(buffer, sizeof(buffer));
    hasher.Update(buffer, static_cast<size_t>(file.gcount()));
  }
  if (file.bad()) {
    return Status::IOError("read error while checksumming '" + path + "'");
  }
  return hasher.digest();
}

Result<std::string> ReadFileToString(const std::string& path) {
  KANON_FAILPOINT("shard.file_read");
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    return Status::IOError("cannot open '" + path + "' for reading");
  }
  std::string content((std::istreambuf_iterator<char>(file)),
                      std::istreambuf_iterator<char>());
  if (file.bad()) {
    return Status::IOError("read error on '" + path + "'");
  }
  return content;
}

Status WriteFileAtomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IOError("cannot open '" + tmp + "' for writing");
  }
  // Torn-write injection: half the payload lands in the temporary, the
  // write fails, and no rename happens — exactly what a full disk or a
  // kill mid-write leaves behind. Resume must treat the .tmp as garbage.
  if (failpoint::AnyArmed()) {
    Status injected = failpoint::Check("shard.file_write");
    if (!injected.ok()) {
      out.write(content.data(),
                static_cast<std::streamsize>(content.size() / 2));
      out.flush();
      return Status::IOError("short write on '" + tmp +
                             "' (injected): " + injected.message());
    }
  }
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  out.flush();
  if (!out) {
    return Status::IOError("write error on '" + tmp + "'");
  }
  out.close();
  return CommitFile(tmp, path);
}

Status CommitFile(const std::string& from, const std::string& to) {
  KANON_FAILPOINT("shard.file_commit");
  std::error_code ec;
  fs::rename(from, to, ec);
  if (ec) {
    return Status::IOError("cannot commit '" + from + "' -> '" + to +
                           "': " + ec.message());
  }
  return Status::OK();
}

Status VerifyChecksum(const std::string& path, uint64_t expected) {
  KANON_ASSIGN_OR_RETURN(uint64_t actual, ChecksumFile(path));
  if (failpoint::AnyArmed() && !failpoint::Check("shard.checksum").ok()) {
    actual = ~actual;  // Simulated corruption: report a mismatching digest.
  }
  if (actual != expected) {
    return Status::IOError("checksum mismatch on '" + path + "': expected " +
                           ChecksumHex(expected) + ", found " +
                           ChecksumHex(actual));
  }
  return Status::OK();
}

bool FileExists(const std::string& path) {
  std::error_code ec;
  return fs::is_regular_file(path, ec);
}

Status EnsureDir(const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create directory '" + dir +
                           "': " + ec.message());
  }
  return Status::OK();
}

Status RemoveFileIfExists(const std::string& path) {
  std::error_code ec;
  fs::remove(path, ec);
  if (ec) {
    return Status::IOError("cannot remove '" + path + "': " + ec.message());
  }
  return Status::OK();
}

Status RemoveFilesWithSuffix(const std::string& dir,
                             const std::string& suffix) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) return Status::OK();
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (ec) break;
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      std::error_code remove_ec;
      fs::remove(entry.path(), remove_ec);
      if (remove_ec) {
        return Status::IOError("cannot remove '" + entry.path().string() +
                               "': " + remove_ec.message());
      }
    }
  }
  if (ec) {
    return Status::IOError("cannot list '" + dir + "': " + ec.message());
  }
  return Status::OK();
}

}  // namespace shard
}  // namespace kanon
