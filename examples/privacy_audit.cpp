// Privacy audit: verify all five k-type anonymity notions for a published
// table, run the second adversary's match-reduction attack of Section IV-A
// against a (k,k)-anonymization, and repair the table with Algorithm 6
// (global (1,k)-anonymization).
//
//   ./privacy_audit [--n=400] [--k=4] [--seed=7]
#include <cstdio>

#include "kanon/algo/global_anonymizer.h"
#include "kanon/algo/kk_anonymizer.h"
#include "kanon/anonymity/attack.h"
#include "kanon/anonymity/verify.h"
#include "kanon/common/flags.h"
#include "kanon/datasets/cmc.h"
#include "kanon/loss/entropy_measure.h"

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
  const size_t n = static_cast<size_t>(flags.GetInt("n", 400));
  const size_t k = static_cast<size_t>(flags.GetInt("k", 4));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 7));

  Result<Workload> workload = MakeCmcWorkload(n, seed);
  if (!workload.ok()) {
    std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
    return 1;
  }
  const Dataset& survey = workload->dataset;
  PrecomputedLoss loss(workload->scheme, survey, EntropyMeasure());

  // The data owner publishes a (k,k)-anonymization — the paper's
  // recommended practical choice.
  Result<GeneralizedTable> published =
      KKAnonymize(survey, loss, k, K1Algorithm::kGreedyExpansion);
  if (!published.ok()) {
    std::fprintf(stderr, "%s\n", published.status().ToString().c_str());
    return 1;
  }

  std::printf("audit of the published table (n=%zu, k=%zu, entropy loss"
              " %.3f)\n\n",
              n, k, loss.TableLoss(published.value()));
  const Result<AnonymityReport> report =
      AnalyzeAnonymity(survey, published.value(), k);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", report->ToString().c_str());

  // The second adversary: knows the entire population AND that exactly
  // these n individuals are in the table. They prune neighbors that cannot
  // belong to any perfect matching.
  std::printf("--- second-adversary attack (Section IV-A) ---\n");
  const AttackResult attack = MatchReductionAttack(survey, published.value(), k);
  std::printf("%s\n", attack.Summary().c_str());
  for (size_t i = 0; i < attack.breached_records.size() && i < 3; ++i) {
    const uint32_t row = attack.breached_records[i];
    std::printf("  e.g. record #%u (%s): %u consistent records, but only"
                " %u possible matches\n",
                row,
                workload->scheme
                    ->Format(workload->scheme->Identity(survey.row(row)))
                    .c_str(),
                attack.neighbor_counts[row], attack.match_counts[row]);
  }

  if (attack.breached_records.empty()) {
    std::printf("this instance happens to already satisfy global"
                " (1,%zu)-anonymity — nothing to repair.\n",
                k);
    return 0;
  }

  // Repair with Algorithm 6.
  std::printf("\n--- repairing with Algorithm 6 ---\n");
  Result<GlobalAnonymizationResult> repaired =
      MakeGlobal1KAnonymous(survey, loss, k, published.value());
  if (!repaired.ok()) {
    std::fprintf(stderr, "%s\n", repaired.status().ToString().c_str());
    return 1;
  }
  std::printf("deficient records: %zu, upgrade steps: %zu (max %zu per"
              " record)\n",
              repaired->stats.deficient_records,
              repaired->stats.upgrade_steps,
              repaired->stats.max_steps_per_record);
  std::printf("entropy loss: %.3f -> %.3f\n",
              loss.TableLoss(published.value()),
              loss.TableLoss(repaired->table));

  const AttackResult after = MatchReductionAttack(survey, repaired->table, k);
  std::printf("after repair: min matches %zu, breached %zu\n",
              after.min_matches(), after.breached_records.size());
  const Result<bool> global_ok =
      IsGlobal1KAnonymous(survey, repaired->table, k);
  if (!global_ok.ok()) {
    std::fprintf(stderr, "%s\n", global_ok.status().ToString().c_str());
    return 1;
  }
  std::printf("global (1,%zu)-anonymity: %s\n", k,
              global_ok.value() ? "satisfied" : "VIOLATED");
  return global_ok.value() && after.breached_records.empty() ? 0 : 1;
}
