#include "kanon/algo/global_recoding.h"

#include <algorithm>
#include <limits>

#include "kanon/algo/core/engine_args.h"
#include "kanon/common/check.h"
#include "kanon/common/distinct_rows.h"
#include "kanon/common/failpoint.h"
#include "kanon/common/parallel.h"
#include "kanon/telemetry/tracer.h"

namespace kanon {

namespace {

// The chain of permissible supersets of {value}, smallest first. Laminar
// collections make this chain unique (sets containing a point are nested).
std::vector<SetId> ChainOf(const Hierarchy& h, ValueCode value) {
  std::vector<SetId> chain;
  for (SetId s = 0; s < h.num_sets(); ++s) {
    if (h.Contains(s, value)) {
      chain.push_back(s);
    }
  }
  // Ids are sorted by cardinality; within a laminar chain cardinality is
  // strictly increasing, so the id order is the chain order.
  return chain;
}

// levels[j][level][value] -> SetId.
std::vector<std::vector<std::vector<SetId>>> BuildLevelTables(
    const GeneralizationScheme& scheme) {
  const size_t r = scheme.num_attributes();
  std::vector<std::vector<std::vector<SetId>>> tables(r);
  for (size_t j = 0; j < r; ++j) {
    const Hierarchy& h = scheme.hierarchy(j);
    size_t max_len = 1;
    std::vector<std::vector<SetId>> chains(h.domain_size());
    for (size_t v = 0; v < h.domain_size(); ++v) {
      chains[v] = ChainOf(h, static_cast<ValueCode>(v));
      max_len = std::max(max_len, chains[v].size());
    }
    tables[j].resize(max_len, std::vector<SetId>(h.domain_size()));
    for (size_t level = 0; level < max_len; ++level) {
      for (size_t v = 0; v < h.domain_size(); ++v) {
        const size_t idx = std::min(level, chains[v].size() - 1);
        tables[j][level][v] = chains[v][idx];
      }
    }
  }
  return tables;
}

// The dataset as its distinct QI tuples. Π is a per-row average of record
// costs, and full-domain recoding maps equal rows to equal records, so a
// trial only needs each tuple priced once plus the row -> tuple map (the
// frequency-set idea of Incognito, LeFevre et al., SIGMOD 2005).
struct TupleTable {
  size_t r = 0;
  std::vector<ValueCode> codes;    // Distinct tuples, row-major, in
                                   // first-occurrence order.
  std::vector<uint32_t> count;     // Rows holding each tuple.
  std::vector<uint32_t> tuple_of;  // Per row.

  size_t size() const { return count.size(); }
  const ValueCode* tuple(size_t t) const { return codes.data() + t * r; }
};

TupleTable BuildTupleTable(const Dataset& dataset) {
  TupleTable tuples;
  tuples.r = dataset.num_attributes();
  DistinctRows distinct = NumberDistinctRows(
      dataset.num_rows(), tuples.r,
      [&dataset](size_t i) { return dataset.row_view(i).data(); });
  tuples.count.assign(distinct.size(), 0);
  for (uint32_t t : distinct.id_of_row) ++tuples.count[t];
  tuples.codes = std::move(distinct.codes);
  tuples.tuple_of = std::move(distinct.id_of_row);
  return tuples;
}

// The selected level row per attribute: level_rows[j][value] -> SetId.
std::vector<const SetId*> LevelRows(
    const std::vector<std::vector<std::vector<SetId>>>& tables,
    const std::vector<uint32_t>& levels) {
  std::vector<const SetId*> level_rows(levels.size());
  for (size_t j = 0; j < levels.size(); ++j) {
    level_rows[j] = tables[j][levels[j]].data();
  }
  return level_rows;
}

// Π of the table a level vector yields, with TableLoss's exact bits: each
// tuple's cost is the same ascending-attribute sum as a row's, and the
// per-row costs are summed in row order before the one (1/r)/n scaling.
double LevelLoss(const PrecomputedLoss& loss, const TupleTable& tuples,
                 const std::vector<const SetId*>& level_rows) {
  const size_t r = tuples.r;
  std::vector<const double*> costs(r);
  for (size_t j = 0; j < r; ++j) costs[j] = loss.attr_costs(j);
  std::vector<double> tuple_cost(tuples.size());
  for (size_t t = 0; t < tuples.size(); ++t) {
    const ValueCode* codes = tuples.tuple(t);
    double row_cost = 0.0;
    for (size_t j = 0; j < r; ++j) {
      row_cost += costs[j][level_rows[j][codes[j]]];
    }
    tuple_cost[t] = row_cost;
  }
  double total = 0.0;
  for (uint32_t t : tuples.tuple_of) total += tuple_cost[t];
  return total * loss.inv_num_attributes() /
         static_cast<double>(tuples.tuple_of.size());
}

// Each tuple's generalized record under `level_rows`, row-major.
std::vector<SetId> GeneralizeTuples(
    const TupleTable& tuples, const std::vector<const SetId*>& level_rows) {
  const size_t r = tuples.r;
  std::vector<SetId> records(tuples.size() * r);
  for (size_t t = 0; t < tuples.size(); ++t) {
    const ValueCode* codes = tuples.tuple(t);
    for (size_t j = 0; j < r; ++j) {
      records[t * r + j] = level_rows[j][codes[j]];
    }
  }
  return records;
}

// The generalized records the k-checks have seen, across ascent rounds,
// and the closure counters of interning every row of every checked table:
// a row whose record was already seen is a hit, the first one a miss.
struct SeenRecords {
  explicit SeenRecords(size_t r) : records(r) {}
  RowInterner records;
  size_t hits = 0;

  void ExportCounters(EngineCounters* counters) const {
    if (counters == nullptr) return;
    counters->closure_hits += hits;
    counters->closure_misses += records.size();
  }
};

// Group-size check of the table a level vector yields, over the distinct
// tuples: each tuple's generalized record is interned once and stands for
// its rows, so the counters are exactly those of interning every row.
bool LevelsAreKAnonymous(SeenRecords* seen, const TupleTable& tuples,
                         const std::vector<const SetId*>& level_rows,
                         size_t k) {
  const std::vector<SetId> records = GeneralizeTuples(tuples, level_rows);
  std::vector<uint32_t> ids(tuples.size());
  for (size_t t = 0; t < tuples.size(); ++t) {
    bool inserted = false;
    ids[t] = seen->records.Intern(&records[t * tuples.r], &inserted);
    seen->hits += tuples.count[t] - (inserted ? 1 : 0);
  }
  std::vector<size_t> rows(seen->records.size(), 0);
  for (size_t t = 0; t < tuples.size(); ++t) rows[ids[t]] += tuples.count[t];
  for (uint32_t id : ids) {
    if (rows[id] < k) return false;
  }
  return true;
}

// The published n-row table of a level vector: each tuple generalized
// once, then copied out per row.
GeneralizedTable ApplyLevels(
    const PrecomputedLoss& loss, const TupleTable& tuples,
    const std::vector<std::vector<std::vector<SetId>>>& tables,
    const std::vector<uint32_t>& levels) {
  const size_t r = tuples.r;
  const std::vector<SetId> records =
      GeneralizeTuples(tuples, LevelRows(tables, levels));
  std::vector<SetId> cells(tuples.tuple_of.size() * r);
  for (size_t i = 0; i < tuples.tuple_of.size(); ++i) {
    std::copy_n(&records[tuples.tuple_of[i] * r], r, &cells[i * r]);
  }
  return GeneralizedTable::FromCells(loss.scheme_ptr(), std::move(cells))
      .value();
}

}  // namespace

SetId LevelAncestor(const Hierarchy& hierarchy, ValueCode value,
                    uint32_t level) {
  const std::vector<SetId> chain = ChainOf(hierarchy, value);
  return chain[std::min<size_t>(level, chain.size() - 1)];
}

Result<GlobalRecodingResult> GlobalRecodingKAnonymize(
    const Dataset& dataset, const PrecomputedLoss& loss, size_t k,
    RunContext* ctx, int num_threads, EngineCounters* counters) {
  const size_t n = dataset.num_rows();
  const size_t r = dataset.num_attributes();
  KANON_RETURN_NOT_OK(CheckEngineArgs(dataset, loss, k));
  const GeneralizationScheme& scheme = loss.scheme();
  for (size_t j = 0; j < r; ++j) {
    if (!scheme.hierarchy(j).IsLaminar()) {
      return Status::FailedPrecondition(
          "global recoding requires laminar hierarchies (attribute '" +
          scheme.schema().attribute(j).name() + "' is not)");
    }
  }

  const auto tables = BuildLevelTables(scheme);
  std::vector<uint32_t> levels(r, 0);
  const TupleTable tuples = BuildTupleTable(dataset);

  SeenRecords seen(r);
  PhaseSpan ascent_span(CurrentTracer(), "full-domain/ascent");
  while (!LevelsAreKAnonymous(&seen, tuples, LevelRows(tables, levels), k)) {
    if (ctx != nullptr && ctx->CheckPoint("full-domain/ascent")) {
      // Degradation: jump every attribute to its top level. All records
      // become identical — k-anonymous for every k <= n.
      for (size_t j = 0; j < r; ++j) {
        levels[j] = static_cast<uint32_t>(tables[j].size() - 1);
      }
      ctx->NoteDegraded("full-domain/ascent");
      ctx->AddRecordsSuppressed(n);
      seen.ExportCounters(counters);
      return GlobalRecodingResult{ApplyLevels(loss, tuples, tables, levels),
                                  std::move(levels)};
    }
    KANON_FAILPOINT("full_domain.step");
    // Raise the attribute whose bump loses the least information. Each
    // trial prices the distinct tuples under one candidate level vector and
    // sums them over the rows, so the trials run as a parallel argmin;
    // maxed-out attributes opt out with +infinity. Smallest index wins
    // ties, exactly like a serial strict-< scan.
    if (counters != nullptr) {
      counters->parallel_chunks += ParallelChunkCount(r);
    }
    const ArgminResult best = ParallelArgmin(
        r, num_threads, nullptr, "full-domain/ascent", [&](size_t j) {
          if (levels[j] + 1 >= tables[j].size()) {
            return std::numeric_limits<double>::infinity();
          }
          std::vector<uint32_t> trial = levels;
          ++trial[j];
          return LevelLoss(loss, tuples, LevelRows(tables, trial));
        });
    KANON_CHECK(best.valid &&
                    best.value < std::numeric_limits<double>::infinity(),
                "all attributes fully suppressed must be k-anonymous");
    ++levels[best.index];
    if (counters != nullptr) ++counters->upgrade_steps;
  }
  seen.ExportCounters(counters);
  return GlobalRecodingResult{ApplyLevels(loss, tuples, tables, levels),
                              std::move(levels)};
}

}  // namespace kanon
