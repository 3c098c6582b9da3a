#include "kanon/anonymity/verify.h"

#include <algorithm>

#include "kanon/generalization/consistency_index.h"
#include "kanon/graph/consistency_graph.h"
#include "kanon/graph/hopcroft_karp.h"
#include "kanon/graph/matchable_edges.h"
#include "kanon/loss/table_metrics.h"

namespace kanon {

namespace {

// The notion vocabulary: one row per AnonymityNotion.
struct NotionInfo {
  AnonymityNotion notion;
  const char* short_name;
  const char* display_name;
};

constexpr NotionInfo kNotions[] = {
    {AnonymityNotion::kKAnonymity, "k-anonymity", "k-anonymity"},
    {AnonymityNotion::kOneK, "1k", "(1,k)-anonymity"},
    {AnonymityNotion::kKOne, "k1", "(k,1)-anonymity"},
    {AnonymityNotion::kKK, "kk", "(k,k)-anonymity"},
    {AnonymityNotion::kGlobalOneK, "global-1k", "global (1,k)-anonymity"},
};

const NotionInfo& Info(AnonymityNotion notion) {
  for (const NotionInfo& info : kNotions) {
    if (info.notion == notion) return info;
  }
  KANON_CHECK(false, "unknown anonymity notion");
  return kNotions[0];
}

}  // namespace

const char* AnonymityNotionName(AnonymityNotion notion) {
  return Info(notion).display_name;
}

const char* NotionShortName(AnonymityNotion notion) {
  return Info(notion).short_name;
}

Result<AnonymityNotion> ParseNotionShortName(const std::string& name) {
  for (const NotionInfo& info : kNotions) {
    if (name == info.short_name) return info.notion;
  }
  return Status::InvalidArgument("unknown notion '" + name + "'");
}

namespace {

// The verifiers run on untrusted input (files handed to --verify), so
// malformed arguments come back as InvalidArgument instead of aborting.
Status ValidateVerifyArgs(const Dataset& dataset,
                          const GeneralizedTable& table, size_t k) {
  if (k < 1) {
    return Status::InvalidArgument("k must be positive");
  }
  if (dataset.num_attributes() != table.num_attributes()) {
    return Status::InvalidArgument(
        "dataset/table arity mismatch: dataset has " +
        std::to_string(dataset.num_attributes()) +
        " attributes, table has " + std::to_string(table.num_attributes()));
  }
  // The ConsistencyIndex is addressed by value code, so every code the
  // dataset can hold must lie inside the hierarchy's domain.
  for (size_t j = 0; j < dataset.num_attributes(); ++j) {
    const size_t data_size = dataset.schema().attribute(j).size();
    const size_t hierarchy_size = table.scheme().hierarchy(j).domain_size();
    if (data_size != hierarchy_size) {
      return Status::InvalidArgument(
          "attribute '" + dataset.schema().attribute(j).name() +
          "': dataset domain has " + std::to_string(data_size) +
          " values, hierarchy has " + std::to_string(hierarchy_size));
    }
  }
  return Status::OK();
}

// The matching-based notions additionally need |D| = |g(D)|.
Status ValidateSquare(const Dataset& dataset, const GeneralizedTable& table) {
  if (dataset.num_rows() != table.num_rows()) {
    return Status::InvalidArgument(
        "global (1,k) requires one generalized record per original: "
        "dataset has " +
        std::to_string(dataset.num_rows()) + " rows, table has " +
        std::to_string(table.num_rows()));
  }
  return Status::OK();
}

// A satisfied witness for `notion`.
NotionWitness Satisfied(AnonymityNotion notion) {
  NotionWitness witness;
  witness.notion = notion;
  return witness;
}

// A violation of `notion` at `row` with `observed` < k.
NotionWitness Violation(AnonymityNotion notion, size_t row, bool in_table,
                        size_t observed, size_t cluster) {
  NotionWitness witness;
  witness.satisfied = false;
  witness.notion = notion;
  witness.row = row;
  witness.row_in_table = in_table;
  witness.observed = observed;
  witness.cluster = cluster;
  return witness;
}

}  // namespace

std::string NotionWitness::ToString(size_t k) const {
  if (satisfied) {
    return std::string(AnonymityNotionName(notion)) + " satisfied";
  }
  std::string out = std::string(AnonymityNotionName(notion)) + " violated: " +
                    (row_in_table ? "table row " : "dataset row ") +
                    std::to_string(row);
  switch (notion) {
    case AnonymityNotion::kKAnonymity:
      out += " is in an identical-record group of " + std::to_string(observed);
      out += " < " + std::to_string(k) + " (group of table row " +
             std::to_string(cluster) + ")";
      break;
    case AnonymityNotion::kOneK:
    case AnonymityNotion::kKK:
      if (!row_in_table) {
        out += " is consistent with " + std::to_string(observed) + " < " +
               std::to_string(k) + " generalized records";
        break;
      }
      [[fallthrough]];
    case AnonymityNotion::kKOne:
      out += " covers " + std::to_string(observed) + " < " +
             std::to_string(k) + " originals";
      break;
    case AnonymityNotion::kGlobalOneK:
      out += " has " + std::to_string(observed) + " < " + std::to_string(k) +
             " matches";
      break;
  }
  return out;
}

Result<NotionWitness> WitnessKAnonymity(const GeneralizedTable& table,
                                        size_t k) {
  if (k < 1) {
    return Status::InvalidArgument("k must be positive");
  }
  for (const auto& group : GroupIdenticalRecords(table)) {
    if (group.size() < k) {
      // Groups hold ascending row indices; the smallest is the cluster id.
      return Violation(AnonymityNotion::kKAnonymity, group.front(),
                       /*in_table=*/true, group.size(), group.front());
    }
  }
  return Satisfied(AnonymityNotion::kKAnonymity);
}

Result<NotionWitness> Witness1K(const Dataset& dataset,
                                const GeneralizedTable& table, size_t k) {
  KANON_RETURN_NOT_OK(ValidateVerifyArgs(dataset, table, k));
  const ConsistencyIndex index(table);
  std::vector<uint64_t> consistent_rows(index.num_words());
  for (uint32_t i = 0; i < dataset.num_rows(); ++i) {
    const size_t degree =
        index.Consistent(dataset.row_view(i), consistent_rows.data());
    if (degree < k) {
      return Violation(AnonymityNotion::kOneK, i, /*in_table=*/false, degree,
                       i);
    }
  }
  return Satisfied(AnonymityNotion::kOneK);
}

Result<NotionWitness> WitnessK1(const Dataset& dataset,
                                const GeneralizedTable& table, size_t k) {
  KANON_RETURN_NOT_OK(ValidateVerifyArgs(dataset, table, k));
  // Right degrees: every original adds one to each row of its mask.
  const ConsistencyIndex index(table);
  std::vector<uint64_t> consistent_rows(index.num_words());
  std::vector<size_t> degree(table.num_rows(), 0);
  for (uint32_t i = 0; i < dataset.num_rows(); ++i) {
    index.Consistent(dataset.row_view(i), consistent_rows.data());
    index.ForEachRow(consistent_rows.data(), [&](uint32_t t) { ++degree[t]; });
  }
  for (uint32_t t = 0; t < table.num_rows(); ++t) {
    if (degree[t] < k) {
      return Violation(AnonymityNotion::kKOne, t, /*in_table=*/true,
                       degree[t], t);
    }
  }
  return Satisfied(AnonymityNotion::kKOne);
}

Result<NotionWitness> WitnessKK(const Dataset& dataset,
                                const GeneralizedTable& table, size_t k) {
  KANON_ASSIGN_OR_RETURN(NotionWitness one_k, Witness1K(dataset, table, k));
  if (!one_k.satisfied) {
    one_k.notion = AnonymityNotion::kKK;
    return one_k;
  }
  KANON_ASSIGN_OR_RETURN(NotionWitness k_one, WitnessK1(dataset, table, k));
  k_one.notion = AnonymityNotion::kKK;
  return k_one;
}

Result<NotionWitness> WitnessGlobal1K(const Dataset& dataset,
                                      const GeneralizedTable& table,
                                      size_t k) {
  KANON_RETURN_NOT_OK(ValidateVerifyArgs(dataset, table, k));
  KANON_RETURN_NOT_OK(ValidateSquare(dataset, table));
  const BipartiteGraph graph = BuildConsistencyGraph(dataset, table);
  KANON_ASSIGN_OR_RETURN(const MatchableEdgeSets matchable,
                         ComputeMatchableEdges(graph));
  if (!matchable.has_perfect_matching) {
    // No perfect matching: every original has zero matches; name the first.
    return Violation(AnonymityNotion::kGlobalOneK, 0, /*in_table=*/false, 0,
                     0);
  }
  for (size_t i = 0; i < matchable.matches.size(); ++i) {
    if (matchable.matches[i].size() < k) {
      return Violation(AnonymityNotion::kGlobalOneK, i, /*in_table=*/false,
                       matchable.matches[i].size(), i);
    }
  }
  return Satisfied(AnonymityNotion::kGlobalOneK);
}

Result<NotionWitness> WitnessNotion(AnonymityNotion notion,
                                    const Dataset& dataset,
                                    const GeneralizedTable& table, size_t k) {
  switch (notion) {
    case AnonymityNotion::kKAnonymity:
      return WitnessKAnonymity(table, k);
    case AnonymityNotion::kOneK:
      return Witness1K(dataset, table, k);
    case AnonymityNotion::kKOne:
      return WitnessK1(dataset, table, k);
    case AnonymityNotion::kKK:
      return WitnessKK(dataset, table, k);
    case AnonymityNotion::kGlobalOneK:
      return WitnessGlobal1K(dataset, table, k);
  }
  return Status::InvalidArgument("unknown anonymity notion");
}

Result<bool> IsKAnonymous(const GeneralizedTable& table, size_t k) {
  KANON_ASSIGN_OR_RETURN(const NotionWitness w, WitnessKAnonymity(table, k));
  return w.satisfied;
}

Result<bool> Is1KAnonymous(const Dataset& dataset,
                           const GeneralizedTable& table, size_t k) {
  KANON_ASSIGN_OR_RETURN(const NotionWitness w, Witness1K(dataset, table, k));
  return w.satisfied;
}

Result<bool> IsK1Anonymous(const Dataset& dataset,
                           const GeneralizedTable& table, size_t k) {
  KANON_ASSIGN_OR_RETURN(const NotionWitness w, WitnessK1(dataset, table, k));
  return w.satisfied;
}

Result<bool> IsKKAnonymous(const Dataset& dataset,
                           const GeneralizedTable& table, size_t k) {
  KANON_ASSIGN_OR_RETURN(const NotionWitness w, WitnessKK(dataset, table, k));
  return w.satisfied;
}

Result<bool> IsGlobal1KAnonymous(const Dataset& dataset,
                                 const GeneralizedTable& table, size_t k) {
  KANON_ASSIGN_OR_RETURN(const NotionWitness w,
                         WitnessGlobal1K(dataset, table, k));
  return w.satisfied;
}

Result<bool> IsGlobal1KAnonymousNaive(const Dataset& dataset,
                                      const GeneralizedTable& table,
                                      size_t k) {
  KANON_RETURN_NOT_OK(ValidateVerifyArgs(dataset, table, k));
  KANON_RETURN_NOT_OK(ValidateSquare(dataset, table));
  const BipartiteGraph graph = BuildConsistencyGraph(dataset, table);
  KANON_ASSIGN_OR_RETURN(const MatchableEdgeSets matchable,
                         ComputeMatchableEdgesNaive(graph));
  if (!matchable.has_perfect_matching) return false;
  for (const auto& matches : matchable.matches) {
    if (matches.size() < k) return false;
  }
  return true;
}

Result<bool> SatisfiesNotion(AnonymityNotion notion, const Dataset& dataset,
                             const GeneralizedTable& table, size_t k) {
  switch (notion) {
    case AnonymityNotion::kKAnonymity:
      return IsKAnonymous(table, k);
    case AnonymityNotion::kOneK:
      return Is1KAnonymous(dataset, table, k);
    case AnonymityNotion::kKOne:
      return IsK1Anonymous(dataset, table, k);
    case AnonymityNotion::kKK:
      return IsKKAnonymous(dataset, table, k);
    case AnonymityNotion::kGlobalOneK:
      return IsGlobal1KAnonymous(dataset, table, k);
  }
  return Status::InvalidArgument("unknown anonymity notion");
}

std::string AnonymityReport::ToString() const {
  std::string out;
  out += "k = " + std::to_string(k) + "\n";
  auto line = [&out](const char* name, bool value) {
    out += std::string(name) + ": " + (value ? "yes" : "no") + "\n";
  };
  line("k-anonymous        ", k_anonymous);
  line("(1,k)-anonymous    ", one_k);
  line("(k,1)-anonymous    ", k_one);
  line("(k,k)-anonymous    ", kk);
  line("global (1,k)-anon. ", global_one_k);
  out += "min #consistent generalized records per original: " +
         std::to_string(min_left_degree) + "\n";
  out += "min #consistent originals per generalized record: " +
         std::to_string(min_right_degree) + "\n";
  out += "min #matches per original: " + std::to_string(min_matches) + "\n";
  out += "smallest identical-record group: " +
         std::to_string(min_group_size) + "\n";
  return out;
}

Result<AnonymityReport> AnalyzeAnonymity(const Dataset& dataset,
                                         const GeneralizedTable& table,
                                         size_t k) {
  KANON_RETURN_NOT_OK(ValidateVerifyArgs(dataset, table, k));
  AnonymityReport report;
  report.k = k;

  const BipartiteGraph graph = BuildConsistencyGraph(dataset, table);

  size_t min_left = table.num_rows();
  for (uint32_t i = 0; i < graph.num_left(); ++i) {
    min_left = std::min(min_left, graph.Neighbors(i).size());
  }
  report.min_left_degree = graph.num_left() == 0 ? 0 : min_left;

  const std::vector<uint32_t> right_degrees = graph.RightDegrees();
  report.min_right_degree =
      right_degrees.empty()
          ? 0
          : *std::min_element(right_degrees.begin(), right_degrees.end());

  size_t min_group = table.num_rows();
  for (const auto& group : GroupIdenticalRecords(table)) {
    min_group = std::min(min_group, group.size());
  }
  report.min_group_size = table.num_rows() == 0 ? 0 : min_group;

  size_t min_matches = 0;
  if (graph.num_left() == graph.num_right() && graph.num_left() > 0) {
    KANON_ASSIGN_OR_RETURN(const MatchableEdgeSets matchable,
                           ComputeMatchableEdges(graph));
    if (matchable.has_perfect_matching) {
      min_matches = table.num_rows();
      for (const auto& matches : matchable.matches) {
        min_matches = std::min(min_matches, matches.size());
      }
    }
  }
  report.min_matches = min_matches;

  report.k_anonymous = report.min_group_size >= k && table.num_rows() > 0;
  report.one_k = report.min_left_degree >= k;
  report.k_one = report.min_right_degree >= k;
  report.kk = report.one_k && report.k_one;
  report.global_one_k = report.min_matches >= k;
  return report;
}

}  // namespace kanon
