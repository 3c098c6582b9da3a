// Anytime-behavior harness: sweeps iteration budgets across every pipeline
// and records what the degradation fallback costs. For each (method, budget)
// cell it runs Anonymize() under a RunContext step budget, verifies the
// promised anonymity notion still holds, and emits one JSON line:
//
//   {"method": "agglomerative", "budget": 64, "loss": 1.23,
//    "degraded": true, "stop_reason": "step-budget", "iterations": 64,
//    "records_suppressed": 17, "seconds": 0.01, "verified": true}
//
// The interesting read is loss as a function of budget: it should fall
// monotonically (noise aside) toward the unbounded run's loss, showing the
// execution-control layer trades utility — never validity — for time.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "kanon/anonymity/verify.h"
#include "kanon/common/run_context.h"

namespace kanon {
namespace bench {
namespace {

struct MethodCase {
  AnonymizationMethod method;
  AnonymityNotion notion;
};

const MethodCase kMethods[] = {
    {AnonymizationMethod::kAgglomerative, AnonymityNotion::kKAnonymity},
    {AnonymizationMethod::kModifiedAgglomerative,
     AnonymityNotion::kKAnonymity},
    {AnonymizationMethod::kForest, AnonymityNotion::kKAnonymity},
    {AnonymizationMethod::kKKNearestNeighbors, AnonymityNotion::kKK},
    {AnonymizationMethod::kKKGreedyExpansion, AnonymityNotion::kKK},
    {AnonymizationMethod::kGlobal, AnonymityNotion::kGlobalOneK},
    {AnonymizationMethod::kFullDomain, AnonymityNotion::kKAnonymity},
};

int Run(const BenchConfig& config) {
  PrintHeader("Anytime behavior — loss vs. iteration budget, per pipeline",
              config);

  const Workload workload = MustWorkload("CMC", config);
  const Dataset& dataset = workload.dataset;
  std::unique_ptr<LossMeasure> measure = MakeMeasure("EM").value();
  const PrecomputedLoss loss(workload.scheme, dataset, *measure);
  const size_t k = 10;

  // 0 = unbounded (the reference run), then powers of two.
  std::vector<size_t> budgets = {0};
  for (size_t b = 1; b <= 2 * dataset.num_rows(); b *= 2) {
    budgets.push_back(b);
  }

  for (const MethodCase& c : kMethods) {
    for (const size_t budget : budgets) {
      RunContext ctx;
      if (budget > 0) ctx.set_step_budget(budget);
      AnonymizerConfig run;
      run.k = k;
      run.method = c.method;
      // Eq. (10), the distance this bench has always run.
      run.distance = DistanceFunction::kLogWeighted;
      run.run_context = &ctx;
      Result<AnonymizationResult> result = Anonymize(dataset, loss, run);
      KANON_CHECK(result.ok(), result.status().ToString());

      Result<bool> verified =
          SatisfiesNotion(c.notion, dataset, result->table, k);
      KANON_CHECK(verified.ok(), verified.status().ToString());

      std::printf(
          "{\"method\": \"%s\", \"budget\": %zu, \"loss\": %.6f,"
          " \"degraded\": %s, \"stop_reason\": \"%s\","
          " \"iterations\": %zu, \"records_suppressed\": %zu,"
          " \"seconds\": %.4f, \"verified\": %s}\n",
          AnonymizationMethodName(c.method), budget, result->loss,
          result->degraded ? "true" : "false",
          StopReasonName(result->stop_reason), result->iterations_completed,
          result->records_suppressed, result->elapsed_seconds,
          verified.value() ? "true" : "false");
      KANON_CHECK(verified.value(),
                  "degraded output violated its notion — fallback bug");
    }
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace kanon

int main(int argc, char** argv) {
  return kanon::bench::Run(kanon::bench::BenchConfig::FromArgs(argc, argv));
}
