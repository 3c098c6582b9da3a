#ifndef KANON_BENCH_BENCH_COMMON_H_
#define KANON_BENCH_BENCH_COMMON_H_

#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "kanon/algo/anonymizer.h"
#include "kanon/common/flags.h"
#include "kanon/datasets/workload.h"
#include "kanon/loss/measure.h"
#include "kanon/loss/precomputed_loss.h"

namespace kanon {
namespace bench {

/// The ks of the paper's evaluation (Table I, Figures 2 and 3).
inline const std::vector<size_t> kPaperKs = {5, 10, 15, 20};

/// Shared configuration for the table/figure harnesses.
///
/// Paper scale is ART n=?, ADT n=5000, CMC n=1473; the defaults are scaled
/// down so that the whole bench directory runs in minutes. Pass --full for
/// paper-scale sizes or --art_n/--adt_n/--cmc_n to override individually.
struct BenchConfig {
  size_t art_n = 1000;
  size_t adt_n = 1500;
  size_t cmc_n = 1473;
  uint64_t seed = 20080407;  // ICDE 2008.
  bool full = false;

  static BenchConfig FromArgs(int argc, const char* const* argv);
};

/// argv's flags. Each flag named in `counts` must be a whole number
/// (FlagParser::CheckCounts), and each but --seed sizes a workload, so it
/// must not be 0 either; a malformed flag is a usage error, printed before
/// exiting with status 2, as in the tools.
FlagParser ParseBenchFlags(int argc, const char* const* argv,
                           std::initializer_list<const char*> counts);

/// Builds one of the paper's three workloads ("ART", "ADT", "CMC") at the
/// configured size. When the environment variables KANON_ADULT_DATA /
/// KANON_CMC_DATA point at the genuine UCI files, those are loaded instead
/// of the synthetic stand-ins.
Result<Workload> GetWorkload(const std::string& name,
                             const BenchConfig& config);

/// GetWorkload that aborts with the status message instead of returning an
/// error — the unwrap every harness main wants (a bench without data has
/// nothing to measure).
Workload MustWorkload(const std::string& name, const BenchConfig& config);

/// MakeArtWorkload unwrap for the microbenchmarks that scale n directly.
Workload MustArtWorkload(size_t n, uint64_t seed);

/// Runs every agglomerative variant (basic and modified × the four paper
/// distance functions) and returns the smallest information loss — the
/// paper's "best k-anon" row. `variant_losses`, when non-null, receives
/// one entry per variant as "<dist>/<basic|modified>" → loss.
struct VariantLoss {
  std::string name;
  double loss;
  double seconds;
};
double BestKAnonLoss(const Dataset& dataset, const PrecomputedLoss& loss,
                     size_t k, std::vector<VariantLoss>* variant_losses);

/// The better of the two (k,k) pipelines (Alg3+5 and Alg4+5).
double BestKKLoss(const Dataset& dataset, const PrecomputedLoss& loss,
                  size_t k, std::vector<VariantLoss>* variant_losses);

/// Forest baseline loss.
double ForestLoss(const Dataset& dataset, const PrecomputedLoss& loss,
                  size_t k);

/// Renders "0.65" style cells like the paper's tables.
std::string Cell(double value);

/// Prints a standard harness header (workload sizes, scale note).
void PrintHeader(const std::string& title, const BenchConfig& config);

}  // namespace bench
}  // namespace kanon

#endif  // KANON_BENCH_BENCH_COMMON_H_
