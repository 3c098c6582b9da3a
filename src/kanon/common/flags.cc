#include "kanon/common/flags.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "kanon/common/check.h"

namespace kanon {

Status FlagParser::Parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    if (body.empty()) {
      return Status::InvalidArgument("bare '--' is not a valid flag");
    }
    size_t eq = body.find('=');
    if (eq != std::string::npos) {
      std::string name = body.substr(0, eq);
      if (name.empty()) {
        return Status::InvalidArgument("flag with empty name: " + arg);
      }
      values_[name] = body.substr(eq + 1);
    } else {
      values_[body] = "true";
    }
  }
  return Status::OK();
}

bool FlagParser::Has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& default_value) const {
  auto it = values_.find(name);
  return it == values_.end() ? default_value : it->second;
}

int64_t FlagParser::GetInt(const std::string& name,
                           int64_t default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  char* end = nullptr;
  int64_t value = std::strtoll(it->second.c_str(), &end, 10);
  KANON_CHECK(end != nullptr && *end == '\0' && !it->second.empty(),
              "flag --" + name + " is not an integer: " + it->second);
  return value;
}

Status FlagParser::CheckCounts(
    std::initializer_list<const char*> names) const {
  for (const char* name : names) {
    auto it = values_.find(name);
    if (it == values_.end()) continue;
    const std::string& text = it->second;
    char* end = nullptr;
    errno = 0;
    const int64_t value = std::strtoll(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0' || errno != 0 || value < 0) {
      return Status::InvalidArgument(std::string("flag --") + name +
                                     " must be a non-negative integer, got '" +
                                     text + "'");
    }
  }
  return Status::OK();
}

Status FlagParser::CheckNumbers(
    std::initializer_list<const char*> names) const {
  for (const char* name : names) {
    auto it = values_.find(name);
    if (it == values_.end()) continue;
    const std::string& text = it->second;
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (text.empty() || *end != '\0' || !std::isfinite(value)) {
      return Status::InvalidArgument(std::string("flag --") + name +
                                     " must be a finite number, got '" +
                                     text + "'");
    }
  }
  return Status::OK();
}

double FlagParser::GetDouble(const std::string& name,
                             double default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  char* end = nullptr;
  double value = std::strtod(it->second.c_str(), &end);
  KANON_CHECK(end != nullptr && *end == '\0' && !it->second.empty(),
              "flag --" + name + " is not a number: " + it->second);
  return value;
}

bool FlagParser::GetBool(const std::string& name, bool default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  const std::string& v = it->second;
  return v == "true" || v == "1" || v == "yes" || v == "on";
}

Result<std::vector<double>> FlagParser::GetDoubleList(
    const std::string& name) const {
  std::vector<double> values;
  auto it = values_.find(name);
  if (it == values_.end()) return values;
  std::stringstream stream(it->second);
  std::string item;
  while (std::getline(stream, item, ',')) {
    char* end = nullptr;
    const double value = std::strtod(item.c_str(), &end);
    if (item.empty() || end != item.c_str() + item.size() ||
        !std::isfinite(value)) {
      return Status::InvalidArgument("bad --" + name + " entry '" + item +
                                     "': not a finite number");
    }
    values.push_back(value);
  }
  if (values.empty()) {
    return Status::InvalidArgument("--" + name +
                                   " must list at least one number");
  }
  return values;
}

}  // namespace kanon
