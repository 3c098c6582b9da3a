#include "kanon/algo/kk_anonymizer.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "kanon/algo/core/closure_store.h"
#include "kanon/algo/core/engine_args.h"
#include "kanon/common/check.h"
#include "kanon/common/distinct_rows.h"
#include "kanon/common/failpoint.h"
#include "kanon/common/parallel.h"
#include "kanon/generalization/consistency_index.h"
#include "kanon/loss/kernels.h"
#include "kanon/telemetry/tracer.h"

namespace kanon {

namespace {

// Publishes the rows a (k,1) sweep produced — `cells` holds row i's closure
// at [i·r, i·r + r) when done[i] — and fully suppresses the rest, which only
// an interrupted sweep leaves. R* covers every one of the n >= k originals,
// so (k,1) holds for the suppressed records; finished rows are proper
// k-closures. Each record's content depends only on its own row, so the
// survivors of a partial sweep are exactly the single-threaded records —
// only the surviving *set* varies.
GeneralizedTable EmitWithSuppressedHoles(const PrecomputedLoss& loss,
                                         const char* stage, RunContext* ctx,
                                         std::vector<SetId> cells,
                                         const std::vector<uint8_t>& done) {
  const GeneralizedRecord star = loss.scheme().Suppressed();
  const size_t r = star.size();
  size_t suppressed = 0;
  for (size_t i = 0; i < done.size(); ++i) {
    if (!done[i]) {
      std::copy(star.begin(), star.end(), cells.begin() + i * r);
      ++suppressed;
    }
  }
  if (suppressed > 0 && ctx != nullptr) {
    ctx->NoteDegraded(stage);
    ctx->AddRecordsSuppressed(suppressed);
  }
  return GeneralizedTable::FromCells(loss.scheme_ptr(), std::move(cells))
      .value();
}

// Returns the first injected failure in chunk order (matching the row order
// a single-threaded run hits first), or OK.
Status FirstError(std::vector<Status> errors) {
  for (Status& s : errors) {
    if (!s.ok()) return std::move(s);
  }
  return Status::OK();
}

// (1,k) degradation: restores the property wholesale by fully suppressing
// the k most-general rows (the cheapest to coarsen, since c(R*) is the same
// for all). Every original is then consistent with those k rows, and rows
// only coarsen, so (k,1) and row-wise generalization are preserved. When
// `table` already carries k fully suppressed rows the property holds as-is:
// nothing changes and the run is NOT marked degraded. Row costs go through
// an interned ClosureStore so duplicate rows are priced once.
GeneralizedTable SuppressKRows(const PrecomputedLoss& loss, size_t k,
                               GeneralizedTable table, RunContext* ctx,
                               EngineCounters* counters) {
  const GeneralizedRecord star = loss.scheme().Suppressed();
  const size_t n = table.num_rows();
  ClosureStore store(loss);
  std::vector<std::pair<double, uint32_t>> order;  // (−cost, row).
  size_t already = 0;
  for (uint32_t t = 0; t < n; ++t) {
    const SetId* row = table.row_data(t);
    if (std::equal(star.begin(), star.end(), row)) {
      ++already;
    } else {
      order.emplace_back(-store.cost(store.Intern(row)), t);
    }
  }
  store.ExportCounters(counters);
  if (already >= k) return table;  // Enough suppressed rows exist.
  ctx->NoteDegraded("kk/repair");
  const size_t need = k - already;
  std::partial_sort(order.begin(),
                    order.begin() + static_cast<ptrdiff_t>(need), order.end());
  ctx->AddRecordsSuppressed(need);
  for (size_t t = 0; t < need; ++t) {
    table.SetRecord(order[t].second, star);
  }
  return table;
}

// Post-emit telemetry shared by the (k,1) sweeps: one interning pass over
// the finished table counts its distinct closures (hits = duplicate rows,
// deterministic at every thread count because the rows are), plus the
// chunks the stage's sweeps ran. Pure accounting — the table is returned
// untouched.
void AccountSweep(const PrecomputedLoss& loss, const GeneralizedTable& table,
                  size_t chunks, EngineCounters* counters) {
  if (counters == nullptr) return;
  counters->parallel_chunks += chunks;
  PhaseSpan span(CurrentTracer(), "kk/closure-intern");
  span.set_items(table.num_rows());
  ClosureStore store(loss);
  store.InternTable(table);
  store.ExportCounters(counters);
}

}  // namespace

Result<GeneralizedTable> K1NearestNeighbors(const Dataset& dataset,
                                            const PrecomputedLoss& loss,
                                            size_t k, RunContext* ctx,
                                            int num_threads,
                                            EngineCounters* counters) {
  KANON_RETURN_NOT_OK(CheckEngineArgs(dataset, loss, k));
  PhaseSpan phase(CurrentTracer(), "kk/k1-nn");
  const GeneralizationScheme& scheme = loss.scheme();
  const size_t n = dataset.num_rows();
  const size_t r = dataset.num_attributes();

  // Row i's output — the closure of R_i and its k−1 nearest records by
  // pairwise closure cost d({R_i, R_j}) — depends only on i, so the O(n²·r)
  // scan fans out row-wise. Each row's k−1 nearest records come from one
  // NearestRows sweep anchored at R_i's identity closure. Failpoints cannot
  // early-return across a lambda; each chunk records the first injected
  // failure in its slot instead.
  const LossKernels kernels(dataset, loss);
  std::vector<SetId> cells(n * r);
  std::vector<uint8_t> done(n, 0);
  std::vector<Status> errors(ParallelChunkCount(n));
  ParallelChunks(
      n, num_threads, ctx, "kk/k1-nn",
      [&](size_t chunk, size_t begin, size_t end) {
        std::vector<uint64_t> self((n + 63) / 64, 0);
        std::vector<LossKernels::NearestRow> nearest;
        std::vector<uint32_t> cluster;
        for (size_t i = begin; i < end; ++i) {
          if (failpoint::AnyArmed()) {
            Status s = failpoint::Check("kk.closure");
            if (!s.ok()) {
              errors[chunk] = std::move(s);
              return;
            }
          }
          // The candidate weight is the pairwise closure cost d({R_i, R_j}).
          self[i >> 6] |= uint64_t{1} << (i & 63);
          kernels.NearestRows(scheme.Identity(dataset.row_view(i)).data(), 0.0,
                              self.data(), k - 1, &nearest);
          self[i >> 6] = 0;
          cluster.assign(1, static_cast<uint32_t>(i));
          for (const LossKernels::NearestRow& near : nearest) {
            cluster.push_back(near.row);
          }
          scheme.ClosureOfRows(dataset, cluster, cells.data() + i * r);
          done[i] = 1;
        }
      });
  KANON_RETURN_NOT_OK(FirstError(std::move(errors)));

  GeneralizedTable table = EmitWithSuppressedHoles(
      loss, "kk/k1-nn", ctx, std::move(cells), done);
  AccountSweep(loss, table, ParallelChunkCount(n), counters);
  return table;
}

Result<GeneralizedTable> K1GreedyExpansion(const Dataset& dataset,
                                           const PrecomputedLoss& loss,
                                           size_t k, RunContext* ctx,
                                           int num_threads,
                                           EngineCounters* counters) {
  KANON_RETURN_NOT_OK(CheckEngineArgs(dataset, loss, k));
  PhaseSpan phase(CurrentTracer(), "kk/k1-greedy");
  const GeneralizationScheme& scheme = loss.scheme();
  const size_t n = dataset.num_rows();
  const size_t r = dataset.num_attributes();

  // Record i's cluster always holds exactly the rows its closure C covers
  // (capped at k), so its expansion is a function of C alone: C is final
  // once it covers k rows, and otherwise grows to C ⊔ R_best, R_best being
  // the uncovered row with the smallest c(C ⊔ R_j) − c(C) (strict <,
  // ascending j). Records whose chains meet share the rest of the work, so
  // the expansion runs once per distinct closure, level by level: each
  // level prices its frontier in one parallel sweep, then interns the
  // successors serially in frontier order — closure ids, and with them the
  // next frontier, do not depend on the thread count.
  const LossKernels kernels(dataset, loss);
  const RowCoverIndex cover(dataset, scheme);
  RowInterner closures(r);
  std::vector<uint32_t> start(n);
  {
    const GeneralizedTable identity =
        GeneralizedTable::Identity(loss.scheme_ptr(), dataset);
    for (size_t i = 0; i < n; ++i) {
      start[i] = closures.Intern(identity.row_data(i));
    }
  }
  // link[id]: the successor of closure id, id itself once final, or
  // kPending while its step has not run.
  constexpr uint32_t kPending = std::numeric_limits<uint32_t>::max();
  std::vector<uint32_t> link(closures.size(), kPending);
  std::vector<uint32_t> frontier(closures.size());
  std::iota(frontier.begin(), frontier.end(), 0u);

  enum Step : uint8_t { kNotRun, kFinal, kGrown };
  std::vector<Step> steps;
  std::vector<SetId> grown;  // Successor of frontier item f at f * r.
  std::vector<uint32_t> next;
  size_t chunks_run = 0;
  while (!frontier.empty()) {
    const size_t m = frontier.size();
    steps.assign(m, kNotRun);
    grown.resize(m * r);
    std::vector<Status> errors(ParallelChunkCount(m));
    std::vector<uint8_t> chunk_ran(errors.size(), 0);
    const SweepStatus sweep = ParallelChunks(
        m, num_threads, ctx, "kk/k1-greedy",
        [&](size_t chunk, size_t begin, size_t end) {
          chunk_ran[chunk] = 1;
          std::vector<uint64_t> covered(cover.num_words());
          std::vector<LossKernels::NearestRow> nearest;
          for (size_t f = begin; f < end; ++f) {
            if (failpoint::AnyArmed()) {
              Status s = failpoint::Check("kk.closure");
              if (!s.ok()) {
                errors[chunk] = std::move(s);
                return;
              }
            }
            const SetId* c = closures.row(frontier[f]);
            if (cover.Covered(c, covered.data()) >= k) {
              steps[f] = kFinal;
              continue;
            }
            // dist(S, R_j) = d(S ∪ {R_j}) − d(S) over the uncovered rows.
            kernels.NearestRows(c, loss.RecordCost(c), covered.data(), 1,
                                &nearest);
            KANON_CHECK(!nearest.empty(),
                        "expansion must find a record while fewer than "
                        "k <= n rows are covered");
            const uint32_t best = nearest[0].row;
            SetId* out = grown.data() + f * r;
            for (size_t a = 0; a < r; ++a) {
              out[a] = scheme.hierarchy(a).JoinValue(c[a], dataset.at(best, a));
            }
            steps[f] = kGrown;
          }
        });
    KANON_RETURN_NOT_OK(FirstError(std::move(errors)));
    for (uint8_t ran : chunk_ran) chunks_run += ran;
    next.clear();
    for (size_t f = 0; f < m; ++f) {
      if (steps[f] == kNotRun) continue;
      const uint32_t id = frontier[f];
      if (steps[f] == kFinal) {
        link[id] = id;
        continue;
      }
      bool fresh = false;
      link[id] = closures.Intern(grown.data() + f * r, &fresh);
      if (fresh) {
        link.push_back(kPending);
        next.push_back(link[id]);
      }
    }
    if (!sweep.completed) break;
    frontier.swap(next);
  }

  // Each record publishes the final closure at the end of its chain; a
  // chain cut by a stop ends at a pending closure and is suppressed.
  std::vector<SetId> cells(n * r);
  std::vector<uint8_t> done(n, 0);
  for (size_t i = 0; i < n; ++i) {
    uint32_t id = start[i];
    while (link[id] != kPending && link[id] != id) id = link[id];
    if (link[id] == id) {
      const SetId* c = closures.row(id);
      std::copy(c, c + r, cells.begin() + i * r);
      done[i] = 1;
    }
  }
  GeneralizedTable table = EmitWithSuppressedHoles(
      loss, "kk/k1-greedy", ctx, std::move(cells), done);
  AccountSweep(loss, table, chunks_run, counters);
  return table;
}

Result<GeneralizedTable> Make1KAnonymous(const Dataset& dataset,
                                         const PrecomputedLoss& loss, size_t k,
                                         GeneralizedTable table,
                                         RunContext* ctx,
                                         EngineCounters* counters) {
  KANON_RETURN_NOT_OK(CheckEngineArgs(dataset, loss, k));
  if (table.num_rows() != dataset.num_rows()) {
    return Status::InvalidArgument(
        "table must have one generalized record per dataset row");
  }
  PhaseSpan phase(CurrentTracer(), "kk/repair");
  const size_t n = dataset.num_rows();

  // Upgrades applied for record i change what later records see, so the
  // loop is sequential (and keeps its per-record checkpoint). ℓ is one
  // popcount; only a record short of k consistent rows prices the rows
  // outside its mask, in ascending t, so the partial_sort below picks the
  // rows a full scan would. Each such record fills one cover table, what
  // covering it adds to every set's cost, so a candidate costs one lookup
  // per attribute.
  const LossKernels kernels(dataset, loss);
  std::vector<double> cover(kernels.joined_table_size());
  ConsistencyIndex index(table);
  std::vector<uint64_t> consistent_rows(index.num_words());
  std::vector<std::pair<double, uint32_t>> candidates;
  for (uint32_t i = 0; i < n; ++i) {
    if (ctx != nullptr && ctx->CheckPoint("kk/repair")) {
      return SuppressKRows(loss, k, std::move(table), ctx, counters);
    }
    KANON_FAILPOINT("kk.upgrade");
    const RowView record = dataset.row_view(i);
    // ℓ = #generalized records consistent with R_i.
    const size_t consistent = index.Consistent(record, consistent_rows.data());
    if (consistent >= k) continue;
    const size_t deficit = k - consistent;
    if (counters != nullptr) counters->upgrade_steps += deficit;
    kernels.FillCoverCostTable(record, cover.data());
    candidates.clear();
    for (uint32_t t = 0; t < n; ++t) {
      if (ConsistencyIndex::Has(consistent_rows.data(), t)) continue;
      // Price of upgrading R̄_t to cover R_i: c(R_i + R̄_t) − c(R̄_t).
      candidates.emplace_back(
          kernels.TableUnionCost(cover.data(), table.row_data(t)), t);
    }
    KANON_CHECK(candidates.size() >= deficit,
                "not enough records to generalize (k > n?)");
    std::partial_sort(candidates.begin(),
                      candidates.begin() + static_cast<ptrdiff_t>(deficit),
                      candidates.end());
    for (size_t t = 0; t < deficit; ++t) {
      table.GeneralizeToCover(candidates[t].second, record);
      index.Refresh(table, candidates[t].second);
    }
  }
  return table;
}

Result<GeneralizedTable> KKAnonymize(const Dataset& dataset,
                                     const PrecomputedLoss& loss, size_t k,
                                     K1Algorithm k1_algorithm, RunContext* ctx,
                                     int num_threads,
                                     EngineCounters* counters) {
  Result<GeneralizedTable> k1 =
      k1_algorithm == K1Algorithm::kNearestNeighbors
          ? K1NearestNeighbors(dataset, loss, k, ctx, num_threads, counters)
          : K1GreedyExpansion(dataset, loss, k, ctx, num_threads, counters);
  if (!k1.ok()) return k1.status();
  // A stopped context keeps reporting stopped, so a (k,1) stage cut short
  // flows into the repair stage's wholesale fallback — the final table is
  // (k,k)-anonymous either way.
  return Make1KAnonymous(dataset, loss, k, std::move(k1).value(), ctx,
                         counters);
}

}  // namespace kanon
