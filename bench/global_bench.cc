// Exercises Section V-C and the future-work question of Section VII: how
// far is a (k,k)-anonymization from global (1,k)-anonymity, what does the
// second adversary's match-reduction attack achieve against it, and what
// does Algorithm 6 cost to repair it — in extra information loss and in
// upgrade steps (the paper observes one step per deficient record almost
// always suffices).
//
// Also times the paper's per-edge Hopcroft–Karp matchability test against
// the matching+SCC algorithm this library uses.
#include <algorithm>
#include <cstdio>

#include "bench_common.h"
#include "kanon/algo/global_anonymizer.h"
#include "kanon/algo/kk_anonymizer.h"
#include "kanon/anonymity/attack.h"
#include "kanon/anonymity/verify.h"
#include "kanon/common/table_printer.h"
#include "kanon/common/text.h"
#include "kanon/common/timer.h"
#include "kanon/graph/consistency_graph.h"
#include "kanon/graph/matchable_edges.h"

namespace kanon {
namespace bench {
namespace {

int Run(BenchConfig config) {
  // The paper notes the globalization runtime "may be too large in
  // practice"; keep the default scale modest.
  if (!config.full) {
    config.art_n = std::min<size_t>(config.art_n, 800);
    config.adt_n = std::min<size_t>(config.adt_n, 800);
    config.cmc_n = std::min<size_t>(config.cmc_n, 800);
  }
  PrintHeader("(k,k) vs global (1,k): attack, repair cost, runtime"
              " (Section V-C)",
              config);

  TablePrinter t;
  t.SetHeader({"dataset", "k", "kk loss", "global loss", "extra%",
               "breached", "deficient", "steps", "max steps", "time"});
  for (const char* dataset_name : {"ART", "ADT", "CMC"}) {
    const Workload workload = MustWorkload(dataset_name, config);
    std::unique_ptr<LossMeasure> measure = MakeMeasure("EM").value();
    PrecomputedLoss loss(workload.scheme, workload.dataset, *measure);
    for (size_t k : {5u, 10u}) {
      Result<GeneralizedTable> kk = KKAnonymize(
          workload.dataset, loss, k, K1Algorithm::kGreedyExpansion);
      KANON_CHECK(kk.ok(), kk.status().ToString());
      const double kk_loss = loss.TableLoss(kk.value());
      const AttackResult attack =
          MatchReductionAttack(workload.dataset, kk.value(), k);

      Timer timer;
      Result<GlobalAnonymizationResult> global =
          MakeGlobal1KAnonymous(workload.dataset, loss, k, kk.value());
      KANON_CHECK(global.ok(), global.status().ToString());
      const double global_loss = loss.TableLoss(global->table);
      const Result<bool> global_1k =
          IsGlobal1KAnonymous(workload.dataset, global->table, k);
      KANON_CHECK(global_1k.ok() && global_1k.value(),
                  "Algorithm 6 must produce a global (1,k)-anonymization");
      const AttackResult after =
          MatchReductionAttack(workload.dataset, global->table, k);
      KANON_CHECK(after.breached_records.empty(),
                  "no record may remain breached after Algorithm 6");

      t.AddRow({dataset_name, std::to_string(k), Cell(kk_loss),
                Cell(global_loss),
                Cell(kk_loss > 0 ? 100.0 * (global_loss / kk_loss - 1.0)
                                 : 0.0),
                std::to_string(attack.breached_records.size()),
                std::to_string(global->stats.deficient_records),
                std::to_string(global->stats.upgrade_steps),
                std::to_string(global->stats.max_steps_per_record),
                FormatDouble(timer.ElapsedSeconds(), 1) + "s"});
    }
  }
  std::printf("%s\n", t.ToString().c_str());
  std::printf(
      "('breached' = records the second adversary links to <k generalized"
      " records before repair; after Algorithm 6 the count is 0 by"
      " construction — verified above.)\n\n");

  // Matchable-edge computation: the paper's naive per-edge test vs the
  // matching+SCC algorithm, on a (k,k) consistency graph.
  {
    BenchConfig small = config;
    small.art_n = std::min<size_t>(config.art_n, 300);
    const Workload workload = MustWorkload("ART", small);
    std::unique_ptr<LossMeasure> measure = MakeMeasure("EM").value();
    PrecomputedLoss loss(workload.scheme, workload.dataset, *measure);
    Result<GeneralizedTable> kk = KKAnonymize(
        workload.dataset, loss, 5, K1Algorithm::kGreedyExpansion);
    KANON_CHECK(kk.ok(), kk.status().ToString());
    const BipartiteGraph graph =
        BuildConsistencyGraph(workload.dataset, kk.value());

    Timer naive_timer;
    Result<MatchableEdgeSets> naive = ComputeMatchableEdgesNaive(graph);
    const double naive_s = naive_timer.ElapsedSeconds();
    Timer fast_timer;
    Result<MatchableEdgeSets> fast = ComputeMatchableEdges(graph);
    const double fast_s = fast_timer.ElapsedSeconds();
    KANON_CHECK(naive.ok() && fast.ok(), "matchable edges failed");
    bool agree = naive->has_perfect_matching == fast->has_perfect_matching;
    for (size_t u = 0; agree && u < graph.num_left(); ++u) {
      agree = naive->matches[u] == fast->matches[u];
    }
    std::printf(
        "matchable edges on ART n=%zu (m=%zu edges): paper's per-edge"
        " Hopcroft–Karp %.3fs, matching+SCC %.4fs (%.0fx); results agree:"
        " %s\n",
        graph.num_left(), graph.num_edges(), naive_s, fast_s,
        fast_s > 0 ? naive_s / fast_s : 0.0, agree ? "yes [OK]" : "NO");
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace kanon

int main(int argc, char** argv) {
  return kanon::bench::Run(kanon::bench::BenchConfig::FromArgs(argc, argv));
}
