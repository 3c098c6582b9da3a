#include "kanon/check/repro.h"

#include <charconv>
#include <utility>

#include "kanon/common/failpoint.h"
#include "kanon/common/text.h"
#include "kanon/loss/measure.h"

namespace kanon {
namespace check {

namespace {

constexpr const char* kHeader = "kanon-repro v1";

// The non-trivial subsets of a hierarchy as label groups — the exact input
// Hierarchy::FromLabelGroups rebuilds it from (singletons and the full set
// are implicit).
std::vector<std::vector<std::string>> HierarchyLabelGroups(
    const Hierarchy& h, const AttributeDomain& domain) {
  std::vector<std::vector<std::string>> groups;
  for (size_t id = 0; id < h.num_sets(); ++id) {
    const size_t size = h.SizeOf(static_cast<SetId>(id));
    if (size <= 1 || size >= h.domain_size()) continue;
    std::vector<std::string> group;
    for (size_t v = 0; v < h.domain_size(); ++v) {
      if (h.Contains(static_cast<SetId>(id), static_cast<ValueCode>(v))) {
        group.push_back(domain.label(static_cast<ValueCode>(v)));
      }
    }
    groups.push_back(std::move(group));
  }
  return groups;
}

// Splits on runs of spaces/tabs, dropping empty tokens.
std::vector<std::string> Tokenize(std::string_view line) {
  std::vector<std::string> tokens;
  size_t at = 0;
  while (at < line.size()) {
    while (at < line.size() && (line[at] == ' ' || line[at] == '\t')) ++at;
    size_t end = at;
    while (end < line.size() && line[end] != ' ' && line[end] != '\t') ++end;
    if (end > at) tokens.emplace_back(line.substr(at, end - at));
    at = end;
  }
  return tokens;
}

Result<uint64_t> ParseUint(const std::string& token) {
  uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc() || ptr != token.data() + token.size()) {
    return Status::InvalidArgument("not an unsigned integer: '" + token +
                                   "'");
  }
  return value;
}

Status MalformedLine(size_t line_number, const std::string& detail) {
  return Status::InvalidArgument("repro line " + std::to_string(line_number) +
                                 ": " + detail);
}

struct HierarchySpec {
  bool suppression_only = false;
  std::vector<std::vector<std::string>> groups;
};

}  // namespace

std::string FormatRepro(const ReproCase& repro) {
  const Schema& schema = repro.data.dataset.schema();
  std::string out = std::string(kHeader) + "\n";
  out += "property " + repro.property + "\n";
  out += std::string("expect ") + (repro.expect_fail ? "fail" : "pass") +
         "\n";
  if (repro.expect_fail) out += "kind " + repro.kind + "\n";
  out += "seed " + std::to_string(repro.data.config.seed) + "\n";
  out += "trial " + std::to_string(repro.data.config.trial_index) + "\n";
  out += "k " + std::to_string(repro.data.config.k) + "\n";
  out += "measure " + repro.data.config.measure + "\n";
  out += std::string("distance ") +
         DistanceShortName(repro.data.config.distance) + "\n";
  for (AnonymizationMethod method : repro.data.config.methods) {
    out += std::string("method ") + MethodShortName(method) + "\n";
  }
  for (const auto& [name, after] : repro.failpoints) {
    out += "failpoint " + name + " " + std::to_string(after) + "\n";
  }
  for (size_t j = 0; j < schema.num_attributes(); ++j) {
    const AttributeDomain& domain = schema.attribute(j);
    out += "attr " + domain.name();
    for (const std::string& label : domain.labels()) out += " " + label;
    out += "\n";
    const std::vector<std::vector<std::string>> groups =
        HierarchyLabelGroups(repro.data.scheme->hierarchy(j), domain);
    if (groups.empty()) {
      out += "hier " + domain.name() + " suppression-only\n";
    } else {
      out += "hier " + domain.name() + " groups ";
      for (size_t g = 0; g < groups.size(); ++g) {
        if (g > 0) out += "|";
        out += Join(groups[g], ",");
      }
      out += "\n";
    }
  }
  for (size_t i = 0; i < repro.data.num_rows(); ++i) {
    out += "row";
    for (size_t j = 0; j < schema.num_attributes(); ++j) {
      out += " " + schema.attribute(j).label(repro.data.dataset.at(i, j));
    }
    out += "\n";
  }
  out += "end\n";
  return out;
}

Result<ReproCase> ParseRepro(const std::string& text) {
  ReproCase repro;
  repro.data.config.methods.clear();

  std::vector<AttributeDomain> domains;
  std::vector<HierarchySpec> hierarchy_specs;
  std::vector<std::vector<std::string>> rows;
  bool saw_header = false;
  bool saw_end = false;
  bool saw_expect = false;

  const std::vector<std::string> lines = Split(text, '\n');
  for (size_t ln = 0; ln < lines.size(); ++ln) {
    const std::string line(Trim(lines[ln]));
    const size_t line_number = ln + 1;
    if (line.empty() || line[0] == '#') continue;
    if (!saw_header) {
      if (line != kHeader) {
        return MalformedLine(line_number,
                             "expected header '" + std::string(kHeader) +
                                 "'");
      }
      saw_header = true;
      continue;
    }
    if (saw_end) {
      return MalformedLine(line_number, "content after 'end'");
    }
    std::vector<std::string> tokens = Tokenize(line);
    const std::string& keyword = tokens[0];

    if (keyword == "end") {
      if (tokens.size() != 1) return MalformedLine(line_number, "bare 'end'");
      saw_end = true;
    } else if (keyword == "property" && tokens.size() == 2) {
      repro.property = tokens[1];
    } else if (keyword == "expect" && tokens.size() == 2) {
      if (tokens[1] != "fail" && tokens[1] != "pass") {
        return MalformedLine(line_number, "expect fail|pass");
      }
      repro.expect_fail = tokens[1] == "fail";
      saw_expect = true;
    } else if (keyword == "kind" && tokens.size() == 2) {
      repro.kind = tokens[1];
    } else if (keyword == "seed" && tokens.size() == 2) {
      KANON_ASSIGN_OR_RETURN(repro.data.config.seed, ParseUint(tokens[1]));
    } else if (keyword == "trial" && tokens.size() == 2) {
      KANON_ASSIGN_OR_RETURN(const uint64_t trial, ParseUint(tokens[1]));
      repro.data.config.trial_index = static_cast<size_t>(trial);
    } else if (keyword == "k" && tokens.size() == 2) {
      KANON_ASSIGN_OR_RETURN(const uint64_t k, ParseUint(tokens[1]));
      if (k == 0) return MalformedLine(line_number, "k must be >= 1");
      repro.data.config.k = static_cast<size_t>(k);
    } else if (keyword == "measure" && tokens.size() == 2) {
      KANON_RETURN_NOT_OK(MakeMeasure(tokens[1]).status());
      repro.data.config.measure = tokens[1];
    } else if (keyword == "distance" && tokens.size() == 2) {
      KANON_ASSIGN_OR_RETURN(repro.data.config.distance,
                             ParseDistanceShortName(tokens[1]));
    } else if (keyword == "method" && tokens.size() == 2) {
      KANON_ASSIGN_OR_RETURN(const AnonymizationMethod method,
                             ParseMethodShortName(tokens[1]));
      repro.data.config.methods.push_back(method);
    } else if (keyword == "failpoint" &&
               (tokens.size() == 2 || tokens.size() == 3)) {
      int after = 0;
      if (tokens.size() == 3) {
        KANON_ASSIGN_OR_RETURN(const uint64_t skip, ParseUint(tokens[2]));
        after = static_cast<int>(skip);
      }
      repro.failpoints.emplace_back(tokens[1], after);
    } else if (keyword == "attr" && tokens.size() >= 3) {
      std::vector<std::string> labels(tokens.begin() + 2, tokens.end());
      KANON_ASSIGN_OR_RETURN(AttributeDomain domain,
                             AttributeDomain::Create(tokens[1], labels));
      domains.push_back(std::move(domain));
      hierarchy_specs.push_back(HierarchySpec{true, {}});
    } else if (keyword == "hier" && tokens.size() >= 3) {
      if (domains.empty() || tokens[1] != domains.back().name()) {
        return MalformedLine(line_number,
                             "hier must follow its attr line ('" + tokens[1] +
                                 "')");
      }
      if (tokens[2] == "suppression-only" && tokens.size() == 3) {
        hierarchy_specs.back() = HierarchySpec{true, {}};
      } else if (tokens[2] == "groups" && tokens.size() == 4) {
        HierarchySpec spec;
        spec.suppression_only = false;
        for (const std::string& group : Split(tokens[3], '|')) {
          spec.groups.push_back(Split(group, ','));
        }
        hierarchy_specs.back() = std::move(spec);
      } else {
        return MalformedLine(line_number,
                             "hier <attr> suppression-only | groups a,b|c");
      }
    } else if (keyword == "row" && tokens.size() >= 2) {
      rows.emplace_back(tokens.begin() + 1, tokens.end());
    } else {
      return MalformedLine(line_number, "unrecognized line '" + line + "'");
    }
  }
  if (!saw_header) return Status::InvalidArgument("repro: missing header");
  if (!saw_end) return Status::InvalidArgument("repro: missing 'end'");
  if (repro.property.empty()) {
    return Status::InvalidArgument("repro: missing 'property'");
  }
  if (!saw_expect) return Status::InvalidArgument("repro: missing 'expect'");
  if (repro.expect_fail && repro.kind.empty()) {
    return Status::InvalidArgument("repro: 'expect fail' requires 'kind'");
  }
  if (domains.empty()) {
    return Status::InvalidArgument("repro: no 'attr' lines");
  }
  if (FindProperty(repro.property) == nullptr) {
    return Status::InvalidArgument("repro: unknown property '" +
                                   repro.property + "'");
  }

  KANON_ASSIGN_OR_RETURN(Schema schema, Schema::Create(domains));
  std::vector<Hierarchy> hierarchies;
  for (size_t j = 0; j < domains.size(); ++j) {
    if (hierarchy_specs[j].suppression_only) {
      KANON_ASSIGN_OR_RETURN(Hierarchy h,
                             Hierarchy::SuppressionOnly(domains[j].size()));
      hierarchies.push_back(std::move(h));
    } else {
      KANON_ASSIGN_OR_RETURN(
          Hierarchy h,
          Hierarchy::FromLabelGroups(domains[j], hierarchy_specs[j].groups));
      hierarchies.push_back(std::move(h));
    }
  }
  KANON_ASSIGN_OR_RETURN(
      GeneralizationScheme scheme,
      GeneralizationScheme::Create(schema, std::move(hierarchies)));
  repro.data.scheme =
      std::make_shared<const GeneralizationScheme>(std::move(scheme));

  Dataset dataset(schema);
  for (const std::vector<std::string>& row : rows) {
    KANON_RETURN_NOT_OK(dataset.AppendRowLabels(row));
  }
  repro.data.dataset = std::move(dataset);

  if (repro.data.config.methods.empty()) {
    repro.data.config.methods = AllMethods();
  }
  return repro;
}

Result<ReproOutcome> ReplayRepro(const ReproCase& repro) {
  const Property* property = FindProperty(repro.property);
  if (property == nullptr) {
    return Status::InvalidArgument("unknown property '" + repro.property +
                                   "'");
  }
  for (const auto& [name, after] : repro.failpoints) {
    failpoint::Arm(name, after);
  }
  ReproOutcome outcome;
  outcome.actual = property->run(repro.data);
  for (const auto& [name, after] : repro.failpoints) {
    failpoint::Disarm(name);
  }
  outcome.matched = repro.expect_fail
                        ? (!outcome.actual.passed &&
                           outcome.actual.kind == repro.kind)
                        : outcome.actual.passed;
  return outcome;
}

std::string ReproOutcome::Describe(const ReproCase& repro) const {
  if (matched) {
    return repro.expect_fail ? "reproduced failure kind '" + repro.kind + "'"
                             : "passed as expected";
  }
  std::string expected = repro.expect_fail
                             ? "failure kind '" + repro.kind + "'"
                             : std::string("a pass");
  std::string got = actual.passed
                        ? std::string("a pass")
                        : "failure kind '" + actual.kind + "' (" +
                              actual.message + ")";
  return "expected " + expected + ", got " + got;
}

}  // namespace check
}  // namespace kanon
