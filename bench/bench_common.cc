#include "bench_common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <utility>

#include "kanon/algo/agglomerative.h"
#include "kanon/algo/forest.h"
#include "kanon/algo/kk_anonymizer.h"
#include "kanon/common/check.h"
#include "kanon/common/text.h"
#include "kanon/common/timer.h"
#include "kanon/datasets/adult.h"
#include "kanon/datasets/art.h"
#include "kanon/datasets/cmc.h"

namespace kanon {
namespace bench {

FlagParser ParseBenchFlags(int argc, const char* const* argv,
                           std::initializer_list<const char*> counts) {
  FlagParser parser;
  Status s = parser.Parse(argc, argv);
  if (s.ok()) s = parser.CheckCounts(counts);
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    std::exit(2);
  }
  return parser;
}

BenchConfig BenchConfig::FromArgs(int argc, const char* const* argv) {
  const FlagParser parser =
      ParseBenchFlags(argc, argv, {"art_n", "adt_n", "cmc_n", "seed"});
  BenchConfig config;
  config.full = parser.GetBool("full", false);
  if (config.full) {
    config.art_n = 2000;
    config.adt_n = 5000;
    config.cmc_n = 1473;
  }
  config.art_n = static_cast<size_t>(
      parser.GetInt("art_n", static_cast<int64_t>(config.art_n)));
  config.adt_n = static_cast<size_t>(
      parser.GetInt("adt_n", static_cast<int64_t>(config.adt_n)));
  config.cmc_n = static_cast<size_t>(
      parser.GetInt("cmc_n", static_cast<int64_t>(config.cmc_n)));
  config.seed =
      static_cast<uint64_t>(parser.GetInt("seed", static_cast<int64_t>(config.seed)));
  return config;
}

Result<Workload> GetWorkload(const std::string& name,
                             const BenchConfig& config) {
  if (name == "ART") {
    return MakeArtWorkload(config.art_n, config.seed);
  }
  if (name == "ADT") {
    const char* real = std::getenv("KANON_ADULT_DATA");
    if (real != nullptr && real[0] != '\0') {
      return LoadAdultWorkload(real, config.adt_n);
    }
    return MakeAdultWorkload(config.adt_n, config.seed + 1);
  }
  if (name == "CMC") {
    const char* real = std::getenv("KANON_CMC_DATA");
    if (real != nullptr && real[0] != '\0') {
      return LoadCmcWorkload(real);
    }
    return MakeCmcWorkload(config.cmc_n, config.seed + 2);
  }
  return Status::InvalidArgument("unknown workload '" + name + "'");
}

Workload MustWorkload(const std::string& name, const BenchConfig& config) {
  Result<Workload> workload = GetWorkload(name, config);
  KANON_CHECK(workload.ok(), workload.status().ToString());
  return std::move(workload).value();
}

Workload MustArtWorkload(size_t n, uint64_t seed) {
  Result<Workload> workload = MakeArtWorkload(n, seed);
  KANON_CHECK(workload.ok(), workload.status().ToString());
  return std::move(workload).value();
}

double BestKAnonLoss(const Dataset& dataset, const PrecomputedLoss& loss,
                     size_t k, std::vector<VariantLoss>* variant_losses) {
  double best = std::numeric_limits<double>::infinity();
  for (DistanceFunction f :
       {DistanceFunction::kWeighted, DistanceFunction::kPlain,
        DistanceFunction::kLogWeighted, DistanceFunction::kRatio}) {
    for (bool modified : {false, true}) {
      AgglomerativeOptions options;
      options.distance = f;
      options.modified = modified;
      Timer timer;
      Result<GeneralizedTable> table =
          AgglomerativeKAnonymize(dataset, loss, k, options);
      KANON_CHECK(table.ok(), table.status().ToString());
      const double pi = loss.TableLoss(table.value());
      if (variant_losses != nullptr) {
        variant_losses->push_back(
            {DistanceFunctionName(f) + (modified ? "/mod" : "/basic"), pi,
             timer.ElapsedSeconds()});
      }
      best = std::min(best, pi);
    }
  }
  return best;
}

double BestKKLoss(const Dataset& dataset, const PrecomputedLoss& loss,
                  size_t k, std::vector<VariantLoss>* variant_losses) {
  double best = std::numeric_limits<double>::infinity();
  const struct {
    K1Algorithm algo;
    const char* name;
  } variants[] = {{K1Algorithm::kNearestNeighbors, "alg3+5"},
                  {K1Algorithm::kGreedyExpansion, "alg4+5"}};
  for (const auto& variant : variants) {
    Timer timer;
    Result<GeneralizedTable> table =
        KKAnonymize(dataset, loss, k, variant.algo);
    KANON_CHECK(table.ok(), table.status().ToString());
    const double pi = loss.TableLoss(table.value());
    if (variant_losses != nullptr) {
      variant_losses->push_back({variant.name, pi, timer.ElapsedSeconds()});
    }
    best = std::min(best, pi);
  }
  return best;
}

double ForestLoss(const Dataset& dataset, const PrecomputedLoss& loss,
                  size_t k) {
  Result<GeneralizedTable> table = ForestKAnonymize(dataset, loss, k);
  KANON_CHECK(table.ok(), table.status().ToString());
  return loss.TableLoss(table.value());
}

std::string Cell(double value) { return FormatDouble(value, 2); }

void PrintHeader(const std::string& title, const BenchConfig& config) {
  std::printf("=== %s ===\n", title.c_str());
  std::printf(
      "workload sizes: ART n=%zu, ADT n=%zu, CMC n=%zu (seed %llu)%s\n",
      config.art_n, config.adt_n, config.cmc_n,
      static_cast<unsigned long long>(config.seed),
      config.full ? " [paper scale]" : " [reduced scale; pass --full for"
                                       " paper-scale sizes]");
  std::printf(
      "datasets are synthetic stand-ins for the UCI files (see DESIGN.md);"
      " set KANON_ADULT_DATA / KANON_CMC_DATA to use the real data\n\n");
}

}  // namespace bench
}  // namespace kanon
