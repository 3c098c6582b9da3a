// Equivalence of the per-closure (k,1) greedy expansion with the per-record
// replay it replaced. `old::K1GreedyExpansion` below is that replay — every
// record grows its own cluster, recomputing coverage and joined costs over
// all n rows after each closure change — with the two columnar sweeps
// written as scalar JoinValue loops. The library must publish the same
// table, cell for cell, at every thread count, in one sweep per level of
// distinct closures.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "kanon/algo/kk_anonymizer.h"
#include "kanon/anonymity/verify.h"
#include "kanon/common/parallel.h"
#include "kanon/common/rng.h"
#include "kanon/common/run_context.h"
#include "kanon/datasets/adult.h"
#include "kanon/datasets/art.h"
#include "kanon/datasets/cmc.h"
#include "kanon/loss/entropy_measure.h"
#include "kanon/loss/lm_measure.h"
#include "kanon/loss/measure.h"
#include "kanon/loss/tree_measure.h"
#include "test_util.h"

namespace kanon {
namespace {

using testing::Unwrap;

namespace old {

GeneralizedTable K1GreedyExpansion(
    const Dataset& dataset, const PrecomputedLoss& loss, size_t k,
    std::vector<std::vector<GeneralizedRecord>>* chains) {
  const GeneralizationScheme& scheme = loss.scheme();
  const size_t n = dataset.num_rows();
  const size_t r = dataset.num_attributes();
  GeneralizedTable table(loss.scheme_ptr());
  std::vector<uint8_t> covered(n);
  std::vector<double> joined(n);
  chains->assign(n, {});
  for (uint32_t i = 0; i < n; ++i) {
    GeneralizedRecord closure = scheme.Identity(dataset.row_view(i));
    (*chains)[i].push_back(closure);
    double closure_cost = loss.RecordCost(closure.data());
    size_t cluster_size = 1;
    std::vector<bool> in_cluster(n, false);
    in_cluster[i] = true;
    while (cluster_size < k) {
      for (uint32_t j = 0; j < n; ++j) {
        bool inside = true;
        double total = 0.0;
        for (size_t a = 0; a < r; ++a) {
          const SetId join =
              scheme.hierarchy(a).JoinValue(closure[a], dataset.at(j, a));
          inside = inside && join == closure[a];
          total += loss.EntryCost(a, join);
        }
        covered[j] = inside ? 1 : 0;
        joined[j] = total / static_cast<double>(r);
      }
      uint32_t best = std::numeric_limits<uint32_t>::max();
      double best_delta = std::numeric_limits<double>::infinity();
      bool absorbed_free = false;
      for (uint32_t j = 0; j < n && cluster_size < k; ++j) {
        if (in_cluster[j]) continue;
        if (covered[j]) {
          in_cluster[j] = true;
          ++cluster_size;
          absorbed_free = true;
          continue;
        }
        const double delta = joined[j] - closure_cost;
        if (delta < best_delta) {
          best_delta = delta;
          best = j;
        }
      }
      if (cluster_size >= k) break;
      if (absorbed_free) continue;
      KANON_CHECK(best != std::numeric_limits<uint32_t>::max(),
                  "expansion must find a record");
      in_cluster[best] = true;
      ++cluster_size;
      for (size_t a = 0; a < r; ++a) {
        closure[a] =
            scheme.hierarchy(a).JoinValue(closure[a], dataset.at(best, a));
      }
      closure_cost = loss.RecordCost(closure.data());
      (*chains)[i].push_back(closure);
    }
    table.AppendRecord(std::move(closure));
  }
  return table;
}

}  // namespace old

// What the per-closure expansion must do, read off the replay's chains
// (each record's closures, first to final).
struct Shape {
  // One sweep per level; a closure's level is its first position in any
  // chain, the level a breadth-first expansion from the rows' starting
  // closures reaches it.
  size_t levels = 0;
  // Σ over levels of the sweep's chunks.
  size_t chunks = 0;
  // Non-final closures on the chains of two different starting tuples:
  // steps the per-closure expansion shares between chains.
  size_t merged = 0;
};

Shape ShapeOf(const std::vector<std::vector<GeneralizedRecord>>& chains) {
  std::map<GeneralizedRecord, size_t> level;
  std::map<GeneralizedRecord, std::set<GeneralizedRecord>> starts;
  for (const std::vector<GeneralizedRecord>& chain : chains) {
    for (size_t p = 0; p < chain.size(); ++p) {
      auto [it, fresh] = level.emplace(chain[p], p);
      if (!fresh) it->second = std::min(it->second, p);
      if (p + 1 < chain.size()) starts[chain[p]].insert(chain[0]);
    }
  }
  std::vector<size_t> width;
  for (const auto& [closure, l] : level) {
    if (width.size() <= l) width.resize(l + 1, 0);
    ++width[l];
  }
  Shape shape;
  shape.levels = width.size();
  for (size_t w : width) shape.chunks += ParallelChunkCount(w);
  for (const auto& [closure, from] : starts) {
    if (from.size() > 1) ++shape.merged;
  }
  return shape;
}

// Compares the library against the replay at k ∈ {1, 2, 3, 5, 10, n} (those
// ≤ n) and 1/2/4 threads: the table, one step per level and the chunks the
// level sweeps ran. Returns the merged closures the replay saw.
size_t ExpectMatchesReplay(const Dataset& dataset, const PrecomputedLoss& loss,
                           const std::string& name) {
  const size_t n = dataset.num_rows();
  size_t merged = 0;
  for (size_t k : {size_t{1}, size_t{2}, size_t{3}, size_t{5}, size_t{10}, n}) {
    if (k > n) continue;
    std::vector<std::vector<GeneralizedRecord>> chains;
    const GeneralizedTable expected =
        old::K1GreedyExpansion(dataset, loss, k, &chains);
    const Shape shape = ShapeOf(chains);
    merged += shape.merged;
    EXPECT_TRUE(Unwrap(IsK1Anonymous(dataset, expected, k)));
    for (int threads : {1, 2, 4}) {
      RunContext ctx;
      EngineCounters counters;
      const GeneralizedTable got = Unwrap(
          K1GreedyExpansion(dataset, loss, k, &ctx, threads, &counters));
      EXPECT_EQ(ctx.stats().iterations_completed, shape.levels) << name;
      EXPECT_EQ(counters.parallel_chunks, shape.chunks) << name;
      EXPECT_EQ(got.num_rows(), n) << name;
      for (size_t i = 0; i < n && i < got.num_rows(); ++i) {
        if (got.record(i) != expected.record(i)) {
          ADD_FAILURE() << name << ", k = " << k << ", threads = " << threads
                        << ": first differing row " << i;
          break;
        }
      }
    }
  }
  return merged;
}

// EM, LM and the tree measure, and EM under uneven attribute weights.
size_t ExpectMatchesReplayUnderMeasures(const Workload& w) {
  const PrecomputedLoss em(w.scheme, w.dataset, EntropyMeasure());
  size_t merged = ExpectMatchesReplay(w.dataset, em, w.name + " EM");
  merged += ExpectMatchesReplay(
      w.dataset, PrecomputedLoss(w.scheme, w.dataset, LmMeasure()),
      w.name + " LM");
  merged += ExpectMatchesReplay(
      w.dataset, PrecomputedLoss(w.scheme, w.dataset, TreeMeasure()),
      w.name + " TM");
  std::vector<double> weights(w.dataset.num_attributes(), 1.0);
  weights[0] = 3.0;
  weights.back() = 0.5;
  merged += ExpectMatchesReplay(
      w.dataset, Unwrap(em.WithAttributeWeights(weights)),
      w.name + " EM weighted");
  return merged;
}

// A scheme of four attributes over three values each, two grouping {0, 1}
// and two suppression-only: a few dozen distinct tuples, so rows repeat
// heavily and many candidates tie on cost.
Workload TinyDomainWorkload(size_t n, uint64_t seed) {
  const char* const names[] = {"t0", "t1", "t2", "t3"};
  std::vector<AttributeDomain> attributes;
  std::vector<Hierarchy> hierarchies;
  for (int a = 0; a < 4; ++a) {
    attributes.push_back(AttributeDomain::IntegerRange(names[a], 0, 2));
    hierarchies.push_back(a % 2 == 0
                              ? Unwrap(Hierarchy::FromGroups(3, {{0, 1}}))
                              : Unwrap(Hierarchy::SuppressionOnly(3)));
  }
  Schema schema = Unwrap(Schema::Create(attributes));
  auto scheme = std::make_shared<const GeneralizationScheme>(
      Unwrap(GeneralizationScheme::Create(schema, std::move(hierarchies))));
  Rng rng(seed);
  Dataset dataset(scheme->schema());
  for (size_t i = 0; i < n; ++i) {
    Record record(4);
    for (ValueCode& v : record) v = static_cast<ValueCode>(rng.NextBounded(3));
    KANON_CHECK(dataset.AppendRow(record).ok());
  }
  return Workload{"tiny n=" + std::to_string(n), std::move(dataset), scheme};
}

TEST(K1GreedyEquivalenceTest, ArtMatchesPerRecordReplay) {
  for (size_t n : {size_t{1}, size_t{40}, size_t{130}}) {
    const Workload w = Unwrap(MakeArtWorkload(n, 1900 + n));
    ExpectMatchesReplayUnderMeasures(w);
  }
}

TEST(K1GreedyEquivalenceTest, AdultMatchesPerRecordReplay) {
  for (size_t n : {size_t{2}, size_t{65}, size_t{150}}) {
    const Workload w = Unwrap(MakeAdultWorkload(n, 2900 + n));
    ExpectMatchesReplayUnderMeasures(w);
  }
}

TEST(K1GreedyEquivalenceTest, CmcMatchesPerRecordReplay) {
  for (size_t n : {size_t{11}, size_t{120}}) {
    const Workload w = Unwrap(MakeCmcWorkload(n, 3900 + n));
    ExpectMatchesReplayUnderMeasures(w);
  }
}

TEST(K1GreedyEquivalenceTest, TinyDomainsWithTiesMatchPerRecordReplay) {
  size_t merged = 0;
  for (size_t n : {size_t{9}, size_t{64}, size_t{200}}) {
    merged += ExpectMatchesReplayUnderMeasures(TinyDomainWorkload(n, n));
  }
  // Chains from different starting tuples meet before they are final, so
  // these cases exercise the shared steps, not only distinct chains.
  EXPECT_GT(merged, 0u);
}

// Costs chosen so that two candidates' joined costs differ but their
// differences from the closure's cost round to one double: with c(A) =
// 2^-53, c(B) − c(A) and c(D) − c(A) are both 1 + 2^-51. The step compares
// differences, so row 2 (B) wins the tie on its smaller index; comparing
// joined costs would pick row 3 (D).
class RoundingTieMeasure : public LossMeasure {
 public:
  std::string name() const override { return "rounding-tie"; }
  double SetCost(const Hierarchy& h, const std::vector<uint32_t>& /*counts*/,
                 SetId set) const override {
    switch (h.SizeOf(set)) {
      case 1:
        return 0.0;
      case 2:  // A = {0, 1}.
        return 0x1p-53;
      case 3:  // B = {0, 1, 2} or D = {0, 1, 3}.
        return h.Contains(set, 2) ? 1.0 + 3 * 0x1p-52 : 1.0 + 2 * 0x1p-52;
      default:
        return 2.0;
    }
  }
};

TEST(K1GreedyEquivalenceTest, StepComparesCostDifferencesNotJoinedCosts) {
  AttributeDomain v = AttributeDomain::IntegerRange("v", 0, 3);
  Hierarchy h =
      Unwrap(Hierarchy::FromGroups(4, {{0, 1}, {0, 1, 2}, {0, 1, 3}}));
  auto scheme = std::make_shared<const GeneralizationScheme>(Unwrap(
      GeneralizationScheme::Create(Unwrap(Schema::Create({v})), {h})));
  Dataset dataset(scheme->schema());
  for (ValueCode value = 0; value < 4; ++value) {
    KANON_CHECK(dataset.AppendRow(Record{value}).ok());
  }
  const PrecomputedLoss loss(scheme, dataset, RoundingTieMeasure());
  const SetId b = Unwrap(h.IdOf(ValueSet::Of(4, {0, 1, 2})));
  for (int threads : {1, 2}) {
    const GeneralizedTable got =
        Unwrap(K1GreedyExpansion(dataset, loss, 3, nullptr, threads));
    EXPECT_EQ(got.record(0), GeneralizedRecord{b});
    EXPECT_EQ(got.record(1), GeneralizedRecord{b});
  }
  ExpectMatchesReplay(dataset, loss, "rounding tie");
}

}  // namespace
}  // namespace kanon
