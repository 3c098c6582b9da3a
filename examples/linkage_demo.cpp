// Adversary's-eye view: how many published records can be linked to an
// individual, under increasing adversary knowledge, before and after
// anonymization — plus the ℓ-diversity angle (can the adversary learn the
// sensitive value even without pinpointing the record?).
//
//   ./linkage_demo [--n=500] [--k=5] [--l=2] [--seed=3]
#include <cstdio>

#include "kanon/algo/anonymizer.h"
#include "kanon/algo/diverse_anonymizer.h"
#include "kanon/anonymity/diversity.h"
#include "kanon/anonymity/linkage.h"
#include "kanon/common/flags.h"
#include "kanon/common/table_printer.h"
#include "kanon/datasets/adult.h"
#include "kanon/loss/entropy_measure.h"

using namespace kanon;

int main(int argc, char** argv) {
  FlagParser flags;
  if (Status s = flags.Parse(argc, argv); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  // Every integer flag is a count: a malformed one is a usage error.
  if (Status s = flags.CheckCounts({"n", "k", "l", "seed"}); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 2;
  }
  const size_t n = static_cast<size_t>(flags.GetInt("n", 500));
  const size_t k = static_cast<size_t>(flags.GetInt("k", 5));
  const size_t l = static_cast<size_t>(flags.GetInt("l", 2));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 3));

  Result<Workload> workload = MakeAdultWorkload(n, seed);
  if (!workload.ok()) {
    std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
    return 1;
  }
  const Dataset& census = workload->dataset;
  PrecomputedLoss loss(workload->scheme, census, EntropyMeasure());

  // Publish an ℓ-diverse k-anonymization.
  AgglomerativeOptions options;
  options.distance = DistanceFunction::kRatio;
  Result<GeneralizedTable> published =
      LDiverseKAnonymize(census, loss, k, l, options);
  if (!published.ok()) {
    std::fprintf(stderr, "%s\n", published.status().ToString().c_str());
    return 1;
  }
  std::printf("published a %zu-anonymous, distinct %zu-diverse table of"
              " %zu records (entropy loss %.3f)\n\n",
              k, l, n, loss.TableLoss(published.value()));

  // The adversary studies the first individual with three knowledge levels.
  const Record victim = census.row(0);
  const Schema& schema = census.schema();
  std::printf("victim's public record: %s\n\n",
              workload->scheme->Format(workload->scheme->Identity(victim))
                  .c_str());

  struct Profile {
    const char* name;
    std::vector<size_t> known;  // Attribute indices the adversary knows.
  };
  const Profile profiles[] = {
      {"casual (age, sex)", {0, 7}},
      {"neighbor (age, sex, race, country)", {0, 7, 6, 8}},
      {"employer (all but marital/relationship)", {0, 1, 2, 4, 6, 7, 8}},
      {"full public knowledge", {0, 1, 2, 3, 4, 5, 6, 7, 8}},
  };

  TablePrinter table;
  table.SetHeader({"adversary", "raw-table candidates",
                   "published candidates"});
  GeneralizedTable raw = GeneralizedTable::Identity(workload->scheme, census);
  for (const Profile& profile : profiles) {
    std::vector<ValueCode> query(schema.num_attributes(), kNoValue);
    for (size_t j : profile.known) {
      query[j] = victim[j];
    }
    Result<std::vector<uint32_t>> raw_hits = LinkCandidates(raw, query);
    Result<std::vector<uint32_t>> pub_hits =
        LinkCandidates(published.value(), query);
    if (!raw_hits.ok() || !pub_hits.ok()) {
      std::fprintf(stderr, "linkage failed\n");
      return 1;
    }
    table.AddRow({profile.name, std::to_string(raw_hits->size()),
                  std::to_string(pub_hits->size())});
  }
  std::printf("%s\n", table.ToString().c_str());

  const size_t floor = MinLinkageSetSize(census, published.value());
  std::printf("worst case over ALL individuals: %zu candidates (promise:"
              " >= %zu)\n",
              floor, k);

  // And even within the candidate set, the sensitive value stays ambiguous.
  const bool diverse = IsDistinctLDiverse(census, published.value(), l);
  std::printf("every anonymity group carries >= %zu distinct income"
              " classes: %s\n",
              l, diverse ? "yes" : "NO");
  return floor >= k && diverse ? 0 : 1;
}
