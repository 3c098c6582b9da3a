#include "kanon/check/trial.h"

#include <algorithm>
#include <iterator>
#include <utility>

namespace kanon {
namespace check {

Result<TrialData> MakeTrial(uint64_t campaign_seed, size_t trial_index,
                            const GeneratorOptions& options) {
  // The trial's substream depends only on (campaign seed, index): trials
  // regenerate identically whatever order — or thread — they run in.
  Rng rng = Rng(campaign_seed).Fork(static_cast<uint64_t>(trial_index));

  Rng instance_rng = rng.Fork(std::string_view("instance"));
  KANON_ASSIGN_OR_RETURN(GeneratedInstance instance,
                         GenerateInstance(options, &instance_rng));

  Rng config_rng = rng.Fork(std::string_view("config"));
  TrialData data{TrialConfig{}, std::move(instance.scheme),
                 std::move(instance.dataset)};
  data.config.seed = campaign_seed;
  data.config.trial_index = trial_index;
  data.config.k = static_cast<size_t>(config_rng.NextInt(1, 6));

  const char* kMeasures[] = {"EM", "LM", "SUP"};
  data.config.measure = kMeasures[config_rng.NextBounded(3)];

  data.config.distance = kAllDistanceFunctions[config_rng.NextBounded(
      std::size(kAllDistanceFunctions))];

  // Every trial exercises every pipeline: the instances are small enough
  // that running all seven costs little, and cross-pipeline properties
  // (differential oracles) need several outputs anyway.
  data.config.methods = AllMethods();
  return data;
}

}  // namespace check
}  // namespace kanon
