#ifndef KANON_ANONYMITY_VERIFY_H_
#define KANON_ANONYMITY_VERIFY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "kanon/common/result.h"
#include "kanon/data/dataset.h"
#include "kanon/generalization/generalized_table.h"

namespace kanon {

/// The five k-type anonymity notions of the paper.
enum class AnonymityNotion {
  kKAnonymity,      // Definition 4.1.
  kOneK,            // (1,k): Definition 4.4.
  kKOne,            // (k,1): Definition 4.4.
  kKK,              // (k,k): Definition 4.4.
  kGlobalOneK,      // Global (1,k): Definition 4.6.
};

/// Display name, e.g. "(k,k)-anonymity": summary lines and verify replies.
const char* AnonymityNotionName(AnonymityNotion notion);

/// The run vocabulary's notion names (k-anonymity, 1k, k1, kk, global-1k),
/// as the kanond verify request takes them.
const char* NotionShortName(AnonymityNotion notion);
/// Inverse of NotionShortName; unknown names are InvalidArgument.
Result<AnonymityNotion> ParseNotionShortName(const std::string& name);

/// The verifiers take untrusted (dataset, table, k) triples — e.g. files a
/// user asks `kanon_cli --verify` about — so argument problems (k = 0,
/// arity or row-count mismatches, a dataset attribute whose domain size is
/// not its hierarchy's) surface as Status::InvalidArgument, never as
/// process aborts.

/// Definition 4.1: every generalized record is identical to at least k−1
/// other generalized records.
Result<bool> IsKAnonymous(const GeneralizedTable& table, size_t k);

/// Definition 4.4: every record of D is consistent with at least k records
/// of g(D).
Result<bool> Is1KAnonymous(const Dataset& dataset,
                           const GeneralizedTable& table, size_t k);

/// Definition 4.4: every record of g(D) is consistent with at least k
/// records of D.
Result<bool> IsK1Anonymous(const Dataset& dataset,
                           const GeneralizedTable& table, size_t k);

/// Definition 4.4: both (1,k) and (k,1).
Result<bool> IsKKAnonymous(const Dataset& dataset,
                           const GeneralizedTable& table, size_t k);

/// Definition 4.6: every record of D has at least k matches — neighbors
/// whose edge extends to a perfect matching of V_{D,g(D)}. Uses the
/// O(V+E) matchable-edges algorithm.
Result<bool> IsGlobal1KAnonymous(const Dataset& dataset,
                                 const GeneralizedTable& table, size_t k);

/// Same notion, decided with the paper's per-edge Hopcroft–Karp test.
/// Exponentially slower in practice; kept as a cross-validation oracle.
Result<bool> IsGlobal1KAnonymousNaive(const Dataset& dataset,
                                      const GeneralizedTable& table, size_t k);

/// Checks one notion.
Result<bool> SatisfiesNotion(AnonymityNotion notion, const Dataset& dataset,
                             const GeneralizedTable& table, size_t k);

/// Where an anonymity notion first fails. Beyond the plain yes/no of the
/// Is* verifiers, a witness names the offending row and the count that fell
/// short of k — what an oracle failure message needs, and what the
/// check/ shrinker uses to keep a reproducer failing while it drops rows.
struct NotionWitness {
  bool satisfied = true;
  AnonymityNotion notion = AnonymityNotion::kKAnonymity;
  /// The first violating row (scan order): a *table* row for k-anonymity
  /// and (k,1); a *dataset* row for (1,k) and global (1,k). For (k,k),
  /// whichever side failed first ((1,k) is checked before (k,1)).
  size_t row = 0;
  /// True when `row` indexes the generalized table, false for the dataset.
  bool row_in_table = false;
  /// The count that should have reached k: the identical-record group size
  /// for k-anonymity, the consistency degree for (1,k)/(k,1), the number of
  /// matches for global (1,k).
  size_t observed = 0;
  /// Cluster id of the violation for k-anonymity: the smallest table row
  /// with the same generalized record as `row`. Equal to `row` for the
  /// other notions.
  size_t cluster = 0;

  /// e.g. "(k,1) violated: table row 3 covers 1 < 2 originals".
  std::string ToString(size_t k) const;
};

/// Witness-returning counterparts of the Is* verifiers. Same validation,
/// same scan order, same cost (both stop at the first violation); the Is*
/// functions are implemented on top of these.
Result<NotionWitness> WitnessKAnonymity(const GeneralizedTable& table,
                                        size_t k);
Result<NotionWitness> Witness1K(const Dataset& dataset,
                                const GeneralizedTable& table, size_t k);
Result<NotionWitness> WitnessK1(const Dataset& dataset,
                                const GeneralizedTable& table, size_t k);
Result<NotionWitness> WitnessKK(const Dataset& dataset,
                                const GeneralizedTable& table, size_t k);
Result<NotionWitness> WitnessGlobal1K(const Dataset& dataset,
                                      const GeneralizedTable& table, size_t k);

/// Witness for one notion (the k-anonymity case ignores `dataset`).
Result<NotionWitness> WitnessNotion(AnonymityNotion notion,
                                    const Dataset& dataset,
                                    const GeneralizedTable& table, size_t k);

/// Degree/match statistics of a (dataset, table) pair — everything the
/// verifiers decide, in one pass, plus distribution summaries.
struct AnonymityReport {
  size_t k = 0;
  bool k_anonymous = false;
  bool one_k = false;
  bool k_one = false;
  bool kk = false;
  bool global_one_k = false;

  /// Min over originals of #consistent generalized records (the (1,k) side).
  size_t min_left_degree = 0;
  /// Min over generalized records of #consistent originals (the (k,1) side).
  size_t min_right_degree = 0;
  /// Min over originals of #matches (the global (1,k) side).
  size_t min_matches = 0;
  /// Smallest group of identical generalized records.
  size_t min_group_size = 0;

  std::string ToString() const;
};

/// Full analysis; builds the consistency graph once.
Result<AnonymityReport> AnalyzeAnonymity(const Dataset& dataset,
                                         const GeneralizedTable& table,
                                         size_t k);

}  // namespace kanon

#endif  // KANON_ANONYMITY_VERIFY_H_
