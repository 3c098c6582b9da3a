#ifndef KANON_COMMON_FLAGS_H_
#define KANON_COMMON_FLAGS_H_

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "kanon/common/result.h"
#include "kanon/common/status.h"

namespace kanon {

/// Minimal command-line flag parser for the example and bench binaries.
///
/// Accepts `--name=value` and bare `--name` (boolean true). Anything not
/// starting with "--" is collected as a positional argument.
class FlagParser {
 public:
  /// Parses argv. Returns an error for malformed flags (e.g. "--=x").
  Status Parse(int argc, const char* const* argv);

  bool Has(const std::string& name) const;

  /// Typed getters with defaults. GetInt/GetDouble abort on a value that is
  /// present but unparsable — bad CLI input on a dev tool is a usage error.
  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  int64_t GetInt(const std::string& name, int64_t default_value) const;
  /// OK when each flag in `names` is absent or a whole number in
  /// [0, INT64_MAX]; else InvalidArgument naming the first that is not
  /// ("abc", "-3", "1e3"). A user-facing tool checks its count flags up
  /// front, so its GetInt reads neither abort nor wrap when cast to size_t.
  Status CheckCounts(std::initializer_list<const char*> names) const;
  /// OK when each flag in `names` is absent or a finite number; else
  /// InvalidArgument naming the first that is not ("abc", "1e999", "nan").
  /// A user-facing tool checks its number flags up front, so its GetDouble
  /// reads do not abort.
  Status CheckNumbers(std::initializer_list<const char*> names) const;
  double GetDouble(const std::string& name, double default_value) const;
  bool GetBool(const std::string& name, bool default_value) const;
  /// A comma-separated list of finite numbers, e.g. --attr-weights=2,1,1.
  /// Empty when the flag is absent; InvalidArgument, naming the flag, for an
  /// empty list or an entry that is not a finite number ("a", "1e999").
  Result<std::vector<double>> GetDoubleList(const std::string& name) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace kanon

#endif  // KANON_COMMON_FLAGS_H_
