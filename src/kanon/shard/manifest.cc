#include "kanon/shard/manifest.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "kanon/common/text.h"
#include "kanon/shard/shard_io.h"

namespace kanon {
namespace shard {

namespace {

constexpr char kManifestMagic[] = "kanon-shard-manifest";
constexpr char kMetaMagic[] = "kanon-shard-meta";

std::string FormatDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return std::string(buffer);
}

Result<uint64_t> ParseU64(const std::string& token, const char* what) {
  if (token.empty()) {
    return Status::InvalidArgument(std::string("missing ") + what);
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(token.c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') {
    return Status::InvalidArgument(std::string("bad ") + what + " '" +
                                   token + "'");
  }
  return static_cast<uint64_t>(value);
}

Result<uint64_t> ParseHex64(const std::string& token, const char* what) {
  if (token.empty()) {
    return Status::InvalidArgument(std::string("missing ") + what);
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(token.c_str(), &end, 16);
  if (errno != 0 || end == nullptr || *end != '\0') {
    return Status::InvalidArgument(std::string("bad ") + what + " '" +
                                   token + "'");
  }
  return static_cast<uint64_t>(value);
}

Result<double> ParseDoubleToken(const std::string& token, const char* what) {
  if (token.empty()) {
    return Status::InvalidArgument(std::string("missing ") + what);
  }
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end == nullptr || *end != '\0') {
    return Status::InvalidArgument(std::string("bad ") + what + " '" +
                                   token + "'");
  }
  return value;
}

Result<StopReason> ParseStopReason(const std::string& name) {
  for (StopReason reason :
       {StopReason::kNone, StopReason::kDeadline, StopReason::kCancelled,
        StopReason::kStepBudget}) {
    if (name == StopReasonName(reason)) return reason;
  }
  return Status::InvalidArgument("bad stop reason '" + name + "'");
}

// Splits one "key value..." line into (key, rest-of-line tokens).
std::vector<std::string> Tokens(const std::string& line) {
  std::vector<std::string> tokens;
  for (const std::string& raw : Split(line, ' ')) {
    std::string token(Trim(raw));
    if (!token.empty()) tokens.push_back(std::move(token));
  }
  return tokens;
}

}  // namespace

std::string ManifestPath(const std::string& dir) { return dir + "/MANIFEST"; }

std::string SpillPath(const std::string& dir, size_t shard) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "/shard-%04zu.spill", shard);
  return dir + buffer;
}

std::string ShardOutPath(const std::string& dir, size_t shard) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "/shard-%04zu.out", shard);
  return dir + buffer;
}

std::string ShardMetaPath(const std::string& dir, size_t shard) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "/shard-%04zu.meta", shard);
  return dir + buffer;
}

std::string Manifest::Format() const {
  std::ostringstream out;
  out << kManifestMagic << " " << kManifestVersion << "\n";
  out << "input " << ChecksumHex(input_checksum) << "\n";
  out << "scheme " << ChecksumHex(scheme_checksum) << "\n";
  out << "rows " << rows << "\n";
  out << "fingerprint " << fingerprint << "\n";
  for (const ShardEntry& entry : shards) {
    out << "shard " << entry.rows << " " << ChecksumHex(entry.spill_checksum)
        << "\n";
  }
  return out.str();
}

Result<Manifest> Manifest::Parse(const std::string& text) {
  Manifest manifest;
  std::istringstream in(text);
  std::string line;
  bool saw_magic = false;
  bool saw_input = false, saw_scheme = false, saw_rows = false,
       saw_fingerprint = false;
  while (std::getline(in, line)) {
    const std::vector<std::string> tokens = Tokens(line);
    if (tokens.empty()) continue;
    if (!saw_magic) {
      if (tokens.size() != 2 || tokens[0] != kManifestMagic) {
        return Status::InvalidArgument("not a shard manifest");
      }
      KANON_ASSIGN_OR_RETURN(const uint64_t version,
                             ParseU64(tokens[1], "manifest version"));
      if (version != kManifestVersion) {
        return Status::InvalidArgument(
            "manifest version " + tokens[1] + " is not supported (this "
            "build reads version " + std::to_string(kManifestVersion) +
            "); start a fresh run without --resume");
      }
      saw_magic = true;
      continue;
    }
    if (tokens[0] == "input" && tokens.size() == 2) {
      KANON_ASSIGN_OR_RETURN(manifest.input_checksum,
                             ParseHex64(tokens[1], "input checksum"));
      saw_input = true;
    } else if (tokens[0] == "scheme" && tokens.size() == 2) {
      KANON_ASSIGN_OR_RETURN(manifest.scheme_checksum,
                             ParseHex64(tokens[1], "scheme checksum"));
      saw_scheme = true;
    } else if (tokens[0] == "rows" && tokens.size() == 2) {
      KANON_ASSIGN_OR_RETURN(manifest.rows, ParseU64(tokens[1], "row count"));
      saw_rows = true;
    } else if (tokens[0] == "fingerprint" && tokens.size() == 2) {
      manifest.fingerprint = tokens[1];
      saw_fingerprint = true;
    } else if (tokens[0] == "shard" && tokens.size() == 3) {
      ShardEntry entry;
      KANON_ASSIGN_OR_RETURN(entry.rows, ParseU64(tokens[1], "shard rows"));
      KANON_ASSIGN_OR_RETURN(entry.spill_checksum,
                             ParseHex64(tokens[2], "shard checksum"));
      manifest.shards.push_back(entry);
    } else {
      return Status::InvalidArgument("bad manifest line '" + line + "'");
    }
  }
  if (!saw_magic || !saw_input || !saw_scheme || !saw_rows ||
      !saw_fingerprint ||
      manifest.shards.empty()) {
    return Status::InvalidArgument("incomplete shard manifest");
  }
  uint64_t total = 0;
  for (const ShardEntry& entry : manifest.shards) total += entry.rows;
  if (total != manifest.rows) {
    return Status::InvalidArgument("manifest row counts do not add up");
  }
  return manifest;
}

std::string ShardMeta::Format() const {
  std::ostringstream out;
  out << kMetaMagic << " 1\n";
  out << "rows " << rows << "\n";
  out << "checksum " << ChecksumHex(out_checksum) << "\n";
  out << "loss " << FormatDouble(loss) << "\n";
  out << "attempts " << attempts << "\n";
  out << "degraded " << (degraded ? 1 : 0) << "\n";
  out << "stop_reason " << StopReasonName(stop_reason) << "\n";
  out << "suppressed " << (suppressed ? 1 : 0) << "\n";
  out << "engine_suppressed " << engine_suppressed << "\n";
  out << "steps " << steps << "\n";
  return out.str();
}

Result<ShardMeta> ShardMeta::Parse(const std::string& text) {
  ShardMeta meta;
  std::istringstream in(text);
  std::string line;
  bool saw_magic = false;
  bool saw_rows = false, saw_checksum = false;
  while (std::getline(in, line)) {
    const std::vector<std::string> tokens = Tokens(line);
    if (tokens.empty()) continue;
    if (!saw_magic) {
      if (tokens.size() != 2 || tokens[0] != kMetaMagic || tokens[1] != "1") {
        return Status::InvalidArgument("not a shard meta file");
      }
      saw_magic = true;
      continue;
    }
    if (tokens.size() != 2) {
      return Status::InvalidArgument("bad meta line '" + line + "'");
    }
    const std::string& key = tokens[0];
    const std::string& value = tokens[1];
    if (key == "rows") {
      KANON_ASSIGN_OR_RETURN(meta.rows, ParseU64(value, "meta rows"));
      saw_rows = true;
    } else if (key == "checksum") {
      KANON_ASSIGN_OR_RETURN(meta.out_checksum,
                             ParseHex64(value, "meta checksum"));
      saw_checksum = true;
    } else if (key == "loss") {
      KANON_ASSIGN_OR_RETURN(meta.loss, ParseDoubleToken(value, "meta loss"));
    } else if (key == "attempts") {
      KANON_ASSIGN_OR_RETURN(meta.attempts, ParseU64(value, "meta attempts"));
    } else if (key == "degraded") {
      meta.degraded = value != "0";
    } else if (key == "stop_reason") {
      KANON_ASSIGN_OR_RETURN(meta.stop_reason, ParseStopReason(value));
    } else if (key == "suppressed") {
      meta.suppressed = value != "0";
    } else if (key == "engine_suppressed") {
      KANON_ASSIGN_OR_RETURN(meta.engine_suppressed,
                             ParseU64(value, "meta engine_suppressed"));
    } else if (key == "steps") {
      KANON_ASSIGN_OR_RETURN(meta.steps, ParseU64(value, "meta steps"));
    } else {
      return Status::InvalidArgument("bad meta key '" + key + "'");
    }
  }
  if (!saw_magic || !saw_rows || !saw_checksum) {
    return Status::InvalidArgument("incomplete shard meta file");
  }
  return meta;
}

std::string EncodeShardTable(const GeneralizedTable& table) {
  if (table.num_rows() == 0) return std::string();
  return std::string(
      reinterpret_cast<const char*>(table.row_data(0)),
      table.num_rows() * table.num_attributes() * sizeof(SetId));
}

Result<GeneralizedTable> ReadShardTable(
    const std::shared_ptr<const GeneralizationScheme>& scheme,
    const std::string& path, uint64_t rows) {
  KANON_ASSIGN_OR_RETURN(std::string content, ReadFileToString(path));
  const size_t r = scheme->num_attributes();
  if (content.size() != rows * r * sizeof(SetId)) {
    return Status::IOError("checkpoint '" + path + "' has " +
                           std::to_string(content.size()) + " bytes; " +
                           std::to_string(rows) + " rows need " +
                           std::to_string(rows * r * sizeof(SetId)));
  }
  std::vector<SetId> cells(rows * r);
  std::memcpy(cells.data(), content.data(), content.size());
  Result<GeneralizedTable> table =
      GeneralizedTable::FromCells(scheme, std::move(cells));
  if (!table.ok()) {
    return Status::IOError("checkpoint '" + path +
                           "': " + table.status().message());
  }
  return table;
}

}  // namespace shard
}  // namespace kanon
