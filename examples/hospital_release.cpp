// The paper's motivating scenario: a hospital publishes patient
// demographics (the Adult census attributes stand in for them) for
// research, and must decide between classic k-anonymity and the relaxed
// (k,k)-anonymity. This example quantifies the utility gain of the
// relaxation and shows that the first adversary — who knows the public
// data of individuals — still cannot link anyone to fewer than k records.
//
//   ./hospital_release [--n=600] [--k=5] [--seed=1]
#include <cstdio>

#include "kanon/algo/anonymizer.h"
#include "kanon/anonymity/attack.h"
#include "kanon/anonymity/verify.h"
#include "kanon/common/flags.h"
#include "kanon/common/table_printer.h"
#include "kanon/common/text.h"
#include "kanon/datasets/adult.h"
#include "kanon/loss/entropy_measure.h"
#include "kanon/loss/table_metrics.h"

using namespace kanon;

int main(int argc, char** argv) {
  FlagParser flags;
  if (Status s = flags.Parse(argc, argv); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  // Every integer flag is a count: a malformed one is a usage error.
  if (Status s = flags.CheckCounts({"n", "k", "seed"}); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 2;
  }
  const size_t n = static_cast<size_t>(flags.GetInt("n", 600));
  const size_t k = static_cast<size_t>(flags.GetInt("k", 5));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));

  Result<Workload> workload = MakeAdultWorkload(n, seed);
  if (!workload.ok()) {
    std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
    return 1;
  }
  const Dataset& patients = workload->dataset;
  PrecomputedLoss loss(workload->scheme, patients, EntropyMeasure());

  std::printf("hospital release: n=%zu patients, k=%zu\n\n", n, k);

  struct Row {
    const char* name;
    AnonymizationMethod method;
  };
  const Row methods[] = {
      {"k-anonymity (agglomerative)", AnonymizationMethod::kAgglomerative},
      {"k-anonymity (forest baseline)", AnonymizationMethod::kForest},
      {"(k,k)-anonymity (Alg4+5)", AnonymizationMethod::kKKGreedyExpansion},
  };

  TablePrinter table;
  table.SetHeader({"method", "entropy loss", "DM", "CM", "min links",
                   "min matches", "time"});
  double kanon_loss = 0.0;
  double kk_loss = 0.0;
  for (const Row& row : methods) {
    AnonymizerConfig config;
    config.k = k;
    config.method = row.method;
    config.distance = DistanceFunction::kRatio;
    Result<AnonymizationResult> result = Anonymize(patients, loss, config);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    const AttackResult attack = MatchReductionAttack(patients, result->table, k);
    table.AddRow({row.name, FormatDouble(result->loss, 3),
                  std::to_string(DiscernibilityMetric(result->table)),
                  FormatDouble(ClassificationMetric(patients, result->table), 3),
                  std::to_string(attack.min_neighbors()),
                  std::to_string(attack.min_matches()),
                  FormatDouble(result->elapsed_seconds, 2) + "s"});
    if (row.method == AnonymizationMethod::kAgglomerative) {
      kanon_loss = result->loss;
    }
    if (row.method == AnonymizationMethod::kKKGreedyExpansion) {
      kk_loss = result->loss;
    }
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "DM = discernibility metric (lower = finer groups), CM ="
      " misclassified fraction w.r.t. the income class.\n"
      "'min links' is what the paper's first adversary sees (consistent"
      " records per individual); 'min matches' is the second adversary's"
      " pruned count.\n\n");

  if (kanon_loss > 0) {
    std::printf(
        "the (k,k) relaxation reduces the information loss by %.0f%%"
        " versus k-anonymity, while every individual remains consistent"
        " with at least %zu published records.\n",
        100.0 * (1.0 - kk_loss / kanon_loss), k);
  }
  std::printf(
      "\nnote: against an adversary who knows the *exact* hospital"
      " population, (k,k) can leak (see privacy_audit); the hospital"
      " scenario of the paper argues that adversary is unrealistic here.\n");
  return 0;
}
