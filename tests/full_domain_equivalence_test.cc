// Equivalence of the distinct-tuple full-domain ascent, the one-buffer
// generalized-CSV writer and the hash-grouped anonymity groups with the code
// they replaced. `old::` below is a verbatim copy of the previous row-wise
// ascent (an n-row table per trial, TableLoss, a ClosureStore k-check), the
// per-cell std::ostream writer and the std::map grouping; the library must
// agree with it bit for bit: levels, table, loss bits, engine counters,
// output bytes, group order and the k-anonymity witness.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "kanon/algo/anonymizer.h"
#include "kanon/algo/core/closure_store.h"
#include "kanon/algo/global_recoding.h"
#include "kanon/anonymity/verify.h"
#include "kanon/common/failpoint.h"
#include "kanon/common/parallel.h"
#include "kanon/common/rng.h"
#include "kanon/datasets/adult.h"
#include "kanon/datasets/art.h"
#include "kanon/generalization/generalized_csv.h"
#include "kanon/loss/entropy_measure.h"
#include "kanon/loss/lm_measure.h"
#include "kanon/loss/table_metrics.h"
#include "test_util.h"

namespace kanon {
namespace {

using testing::SmallScheme;
using testing::Unwrap;

namespace old {

std::vector<SetId> ChainOf(const Hierarchy& h, ValueCode value) {
  std::vector<SetId> chain;
  for (SetId s = 0; s < h.num_sets(); ++s) {
    if (h.Contains(s, value)) {
      chain.push_back(s);
    }
  }
  return chain;
}

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

GeneralizedTable ApplyLevels(
    const Dataset& dataset,
    std::shared_ptr<const GeneralizationScheme> scheme,
    const std::vector<std::vector<std::vector<SetId>>>& tables,
    const std::vector<uint32_t>& levels) {
  GeneralizedTable table(scheme);
  const size_t r = dataset.num_attributes();
  std::vector<const SetId*> level_row(r);
  for (size_t j = 0; j < r; ++j) {
    level_row[j] = tables[j][levels[j]].data();
  }
  GeneralizedRecord record(r);
  for (size_t i = 0; i < dataset.num_rows(); ++i) {
    const RowView row = dataset.row_view(i);
    for (size_t j = 0; j < r; ++j) {
      record[j] = level_row[j][row[j]];
    }
    table.AppendRecord(record);
  }
  return table;
}

bool TableIsKAnonymous(ClosureStore* store, const GeneralizedTable& table,
                       size_t k) {
  const std::vector<ClosureStore::Id> ids = store->InternTable(table);
  std::vector<size_t> counts(store->size(), 0);
  for (ClosureStore::Id id : ids) ++counts[id];
  for (ClosureStore::Id id : ids) {
    if (counts[id] < k) return false;
  }
  return true;
}

Result<GlobalRecodingResult> GlobalRecodingKAnonymize(
    const Dataset& dataset, const PrecomputedLoss& loss, size_t k,
    RunContext* ctx, int num_threads, EngineCounters* counters) {
  const size_t n = dataset.num_rows();
  const size_t r = dataset.num_attributes();
  const auto tables = BuildLevelTables(loss.scheme());
  std::vector<uint32_t> levels(r, 0);
  ClosureStore store(loss);
  GeneralizedTable current =
      ApplyLevels(dataset, loss.scheme_ptr(), tables, levels);
  while (!TableIsKAnonymous(&store, current, k)) {
    if (ctx != nullptr && ctx->CheckPoint("full-domain/ascent")) {
      for (size_t j = 0; j < r; ++j) {
        levels[j] = static_cast<uint32_t>(tables[j].size() - 1);
      }
      ctx->NoteDegraded("full-domain/ascent");
      ctx->AddRecordsSuppressed(n);
      current = ApplyLevels(dataset, loss.scheme_ptr(), tables, levels);
      store.ExportCounters(counters);
      return GlobalRecodingResult{std::move(current), std::move(levels)};
    }
    KANON_FAILPOINT("full_domain.step");
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
          return loss.TableLoss(
              ApplyLevels(dataset, loss.scheme_ptr(), tables, trial));
        });
    KANON_CHECK(best.valid &&
                    best.value < std::numeric_limits<double>::infinity(),
                "all attributes fully suppressed must be k-anonymous");
    ++levels[best.index];
    if (counters != nullptr) ++counters->upgrade_steps;
    current = ApplyLevels(dataset, loss.scheme_ptr(), tables, levels);
  }
  store.ExportCounters(counters);
  return GlobalRecodingResult{std::move(current), std::move(levels)};
}

std::string CellText(const Hierarchy& h, const AttributeDomain& domain,
                     SetId set) {
  const size_t size = h.SizeOf(set);
  if (size == 1) {
    return domain.label(h.set(set).Values()[0]);
  }
  if (size == domain.size()) {
    return "*";
  }
  std::string out = "{";
  bool first = true;
  for (ValueCode v : h.set(set).Values()) {
    if (!first) out += ";";
    out += domain.label(v);
    first = false;
  }
  out += "}";
  return out;
}

Status WriteGeneralizedCsv(const GeneralizedTable& table,
                           std::ostream& output) {
  const GeneralizationScheme& scheme = table.scheme();
  const Schema& schema = scheme.schema();
  for (size_t j = 0; j < schema.num_attributes(); ++j) {
    if (j > 0) output << ',';
    output << schema.attribute(j).name();
  }
  output << '\n';
  for (size_t i = 0; i < table.num_rows(); ++i) {
    for (size_t j = 0; j < schema.num_attributes(); ++j) {
      if (j > 0) output << ',';
      output << CellText(scheme.hierarchy(j), schema.attribute(j),
                         table.at(i, j));
    }
    output << '\n';
  }
  if (!output) {
    return Status::IOError("failed writing generalized CSV output");
  }
  return Status::OK();
}

std::vector<std::vector<uint32_t>> GroupIdenticalRecords(
    const GeneralizedTable& table) {
  std::map<GeneralizedRecord, std::vector<uint32_t>> groups;
  for (size_t i = 0; i < table.num_rows(); ++i) {
    groups[table.record(i)].push_back(static_cast<uint32_t>(i));
  }
  std::vector<std::vector<uint32_t>> out;
  out.reserve(groups.size());
  for (auto& [record, rows] : groups) {
    out.push_back(std::move(rows));
  }
  return out;
}

}  // namespace old

// `base`'s rows drawn with replacement: a duplicate-heavy table.
Dataset Resampled(const Dataset& base, size_t n, uint64_t seed) {
  Rng rng(seed);
  Dataset out(base.schema());
  for (size_t i = 0; i < n; ++i) {
    KANON_CHECK(out.AppendRow(base.row(rng.NextBounded(base.num_rows()))).ok());
  }
  return out;
}

// `base` with every repeated row dropped: an all-distinct table.
Dataset Deduplicated(const Dataset& base) {
  std::map<Record, bool> seen;
  Dataset out(base.schema());
  for (size_t i = 0; i < base.num_rows(); ++i) {
    if (seen.emplace(base.row(i), true).second) {
      KANON_CHECK(out.AppendRow(base.row(i)).ok());
    }
  }
  return out;
}

struct Case {
  std::string name;
  Workload workload;
};

std::vector<Case> Cases() {
  const Workload art = Unwrap(MakeArtWorkload(2000, 3));
  const Workload adult = Unwrap(MakeAdultWorkload(300, 4));
  std::vector<Case> cases;
  cases.push_back({"art-duplicates",
                   {art.name, Resampled(art.dataset.Head(120), 1500, 9),
                    art.scheme}});
  cases.push_back(
      {"art-distinct", {art.name, Deduplicated(art.dataset), art.scheme}});
  cases.push_back({"adult-duplicates",
                   {adult.name, Resampled(adult.dataset.Head(40), 600, 10),
                    adult.scheme}});
  cases.push_back({"adult-distinct",
                   {adult.name, Deduplicated(adult.dataset), adult.scheme}});
  return cases;
}

void ExpectSameCounters(const EngineCounters& want, const EngineCounters& got) {
  EXPECT_EQ(want.merges, got.merges);
  EXPECT_EQ(want.rescans, got.rescans);
  EXPECT_EQ(want.heap_rebuilds, got.heap_rebuilds);
  EXPECT_EQ(want.closure_hits, got.closure_hits);
  EXPECT_EQ(want.closure_misses, got.closure_misses);
  EXPECT_EQ(want.upgrade_steps, got.upgrade_steps);
  EXPECT_EQ(want.parallel_chunks, got.parallel_chunks);
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

TEST(FullDomainEquivalenceTest, AscentMatchesRowWiseAscent) {
  for (const Case& c : Cases()) {
    const Dataset& d = c.workload.dataset;
    const size_t n = d.num_rows();
    for (const bool lm : {false, true}) {
      const PrecomputedLoss loss =
          lm ? PrecomputedLoss(c.workload.scheme, d, LmMeasure())
             : PrecomputedLoss(c.workload.scheme, d, EntropyMeasure());
      for (const size_t k : {size_t{1}, size_t{2}, size_t{20}, n}) {
        for (const int threads : {1, 2, 4}) {
          SCOPED_TRACE(c.name + (lm ? " LM" : " EM") + " k=" +
                       std::to_string(k) + " threads=" +
                       std::to_string(threads));
          EngineCounters want_counters;
          const GlobalRecodingResult want =
              Unwrap(old::GlobalRecodingKAnonymize(d, loss, k, nullptr,
                                                   threads, &want_counters));
          EngineCounters got_counters;
          const GlobalRecodingResult got = Unwrap(GlobalRecodingKAnonymize(
              d, loss, k, nullptr, threads, &got_counters));
          EXPECT_EQ(want.levels, got.levels);
          EXPECT_TRUE(want.table == got.table);
          ExpectSameCounters(want_counters, got_counters);

          AnonymizerConfig config;
          config.k = k;
          config.method = AnonymizationMethod::kFullDomain;
          config.num_threads = threads;
          const AnonymizationResult run = Unwrap(Anonymize(d, loss, config));
          EXPECT_TRUE(SameBits(loss.TableLoss(want.table), run.loss));
          ExpectSameCounters(want_counters, run.counters);
        }
      }
    }
  }
}

TEST(FullDomainEquivalenceTest, DegradedAscentMatches) {
  for (const Case& c : Cases()) {
    const Dataset& d = c.workload.dataset;
    const PrecomputedLoss loss(c.workload.scheme, d, EntropyMeasure());
    for (const size_t steps : {size_t{1}, size_t{2}, size_t{3}}) {
      SCOPED_TRACE(c.name + " max-steps=" + std::to_string(steps));
      RunContext want_ctx;
      want_ctx.set_step_budget(steps);
      EngineCounters want_counters;
      const GlobalRecodingResult want = Unwrap(old::GlobalRecodingKAnonymize(
          d, loss, 20, &want_ctx, 2, &want_counters));
      RunContext got_ctx;
      got_ctx.set_step_budget(steps);
      EngineCounters got_counters;
      const GlobalRecodingResult got = Unwrap(
          GlobalRecodingKAnonymize(d, loss, 20, &got_ctx, 2, &got_counters));
      EXPECT_EQ(want.levels, got.levels);
      EXPECT_TRUE(want.table == got.table);
      ExpectSameCounters(want_counters, got_counters);
      EXPECT_EQ(want_ctx.stats().degraded, got_ctx.stats().degraded);
      EXPECT_EQ(want_ctx.stats().records_suppressed,
                got_ctx.stats().records_suppressed);
      EXPECT_EQ(want_ctx.stats().iterations_completed,
                got_ctx.stats().iterations_completed);
    }
  }
}

// Two attributes with one hierarchy and every row also present with the
// two swapped, shuffled: bumping either attribute costs the same multiset of
// row costs, so the trials tie but for rounding, and only summing the row
// costs in row order reproduces which one wins.
Workload MirroredWorkload(uint64_t seed) {
  Rng rng(seed);
  const int m = 4 + static_cast<int>(rng.NextBounded(5));
  const Schema schema = Unwrap(Schema::Create(
      {AttributeDomain::IntegerRange("a", 0, m - 1),
       AttributeDomain::IntegerRange("b", 0, m - 1),
       AttributeDomain::IntegerRange("c", 0, 3)}));
  const Hierarchy band = Unwrap(Hierarchy::Intervals(m, {2, 4}));
  auto scheme = std::make_shared<const GeneralizationScheme>(
      Unwrap(GeneralizationScheme::Create(
          schema, {band, band, Unwrap(Hierarchy::Intervals(4, {2}))})));
  std::vector<Record> rows;
  const size_t half = 10 + rng.NextBounded(60);
  for (size_t i = 0; i < half; ++i) {
    const auto a = static_cast<ValueCode>(rng.NextBounded(m));
    const auto b = static_cast<ValueCode>(rng.NextBounded(m));
    const auto c = static_cast<ValueCode>(rng.NextBounded(4));
    rows.push_back({a, b, c});
    rows.push_back({b, a, c});
  }
  for (size_t i = rows.size(); i > 1; --i) {
    std::swap(rows[i - 1], rows[rng.NextBounded(i)]);
  }
  Dataset dataset(schema);
  for (const Record& row : rows) KANON_CHECK(dataset.AppendRow(row).ok());
  return {"mirrored", std::move(dataset), scheme};
}

TEST(FullDomainEquivalenceTest, NearTiesBreakAsInRowOrder) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    const Workload w = MirroredWorkload(seed);
    for (const bool lm : {false, true}) {
      const PrecomputedLoss loss =
          lm ? PrecomputedLoss(w.scheme, w.dataset, LmMeasure())
             : PrecomputedLoss(w.scheme, w.dataset, EntropyMeasure());
      for (const size_t k : {size_t{3}, size_t{5}, size_t{7}}) {
        SCOPED_TRACE("seed " + std::to_string(seed) + (lm ? " LM" : " EM") +
                     " k=" + std::to_string(k));
        const GlobalRecodingResult want = Unwrap(
            old::GlobalRecodingKAnonymize(w.dataset, loss, k, nullptr, 1,
                                          nullptr));
        const GlobalRecodingResult got =
            Unwrap(GlobalRecodingKAnonymize(w.dataset, loss, k));
        EXPECT_EQ(want.levels, got.levels);
        EXPECT_TRUE(want.table == got.table);
      }
    }
  }
}

// Tables over SmallScheme with singleton, band ({a;b}) and "*" cells.
GeneralizedTable RandomTable(size_t n, size_t distinct, uint64_t seed) {
  auto scheme = SmallScheme();
  Rng rng(seed);
  std::vector<GeneralizedRecord> records(distinct);
  for (GeneralizedRecord& record : records) {
    for (size_t j = 0; j < 2; ++j) {
      record.push_back(static_cast<SetId>(
          rng.NextBounded(scheme->hierarchy(j).num_sets())));
    }
  }
  GeneralizedTable table(scheme);
  for (size_t i = 0; i < n; ++i) {
    table.AppendRecord(records[rng.NextBounded(distinct)]);
  }
  return table;
}

std::vector<GeneralizedTable> SampleTables() {
  std::vector<GeneralizedTable> tables;
  tables.push_back(RandomTable(0, 1, 1));
  tables.push_back(RandomTable(1, 1, 2));
  tables.push_back(RandomTable(50, 3, 3));
  tables.push_back(RandomTable(400, 40, 4));
  // Over 1 MiB of output: the writer flushes its buffer several times.
  tables.push_back(RandomTable(300000, 25, 5));
  for (const Case& c : Cases()) {
    const PrecomputedLoss loss(c.workload.scheme, c.workload.dataset,
                               EntropyMeasure());
    tables.push_back(
        Unwrap(GlobalRecodingKAnonymize(c.workload.dataset, loss, 5)).table);
  }
  return tables;
}

// The offset of the first byte where `a` and `b` differ, or npos. Outputs
// run to megabytes, too large for gtest to diff.
size_t FirstDifference(const std::string& a, const std::string& b) {
  const auto [ia, ib] = std::mismatch(a.begin(), a.end(), b.begin(), b.end());
  if (ia == a.end() && ib == b.end()) return std::string::npos;
  return static_cast<size_t>(ia - a.begin());
}

TEST(FullDomainEquivalenceTest, SerializationBytesMatch) {
  for (const GeneralizedTable& table : SampleTables()) {
    std::ostringstream want;
    std::ostringstream got;
    ASSERT_TRUE(old::WriteGeneralizedCsv(table, want).ok());
    ASSERT_TRUE(WriteGeneralizedCsv(table, got).ok());
    EXPECT_EQ(FirstDifference(want.str(), got.str()), std::string::npos)
        << want.str().size() << " vs " << got.str().size() << " bytes";
  }
  // The cell kinds are all exercised.
  std::ostringstream out;
  ASSERT_TRUE(WriteGeneralizedCsv(SampleTables()[3], out).ok());
  EXPECT_NE(out.str().find('{'), std::string::npos);
  EXPECT_NE(out.str().find('*'), std::string::npos);
}

// A stream that accepts `capacity` bytes and then fails every write.
class FailingBuf : public std::streambuf {
 public:
  explicit FailingBuf(size_t capacity) : left_(capacity) {}

 protected:
  int_type overflow(int_type c) override {
    if (left_ == 0) return traits_type::eof();
    --left_;
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    const auto taken =
        std::min<std::streamsize>(n, static_cast<std::streamsize>(left_));
    left_ -= static_cast<size_t>(taken);
    return taken;
  }

 private:
  size_t left_;
};

TEST(FullDomainEquivalenceTest, FailingStreamIsAnIOError) {
  const GeneralizedTable small = RandomTable(50, 3, 3);
  const GeneralizedTable large = RandomTable(300000, 25, 5);
  for (const GeneralizedTable* table : {&small, &large}) {
    for (const size_t capacity : {size_t{0}, size_t{10}, size_t{1} << 20}) {
      FailingBuf want_buf(capacity);
      std::ostream want_out(&want_buf);
      FailingBuf got_buf(capacity);
      std::ostream got_out(&got_buf);
      const Status want = old::WriteGeneralizedCsv(*table, want_out);
      const Status got = WriteGeneralizedCsv(*table, got_out);
      EXPECT_EQ(want.ok(), got.ok()) << capacity;
      EXPECT_EQ(want.code(), got.code());
      EXPECT_EQ(want.message(), got.message());
    }
  }
  std::ostringstream bad;
  bad.setstate(std::ios::badbit);
  const Status status = WriteGeneralizedCsv(small, bad);
  EXPECT_EQ(status.code(), StatusCode::kIOError);
}

TEST(FullDomainEquivalenceTest, GroupOrderAndWitnessMatch) {
  for (const GeneralizedTable& table : SampleTables()) {
    const std::vector<std::vector<uint32_t>> want =
        old::GroupIdenticalRecords(table);
    EXPECT_EQ(want, GroupIdenticalRecords(table));
    size_t largest = 1;
    for (const auto& group : want) largest = std::max(largest, group.size());
    for (size_t k = 1; k <= largest + 1; k += std::max<size_t>(1, k / 2)) {
      // The witness is the first group, in record order, smaller than k.
      const NotionWitness witness = Unwrap(WitnessKAnonymity(table, k));
      const auto small = std::find_if(
          want.begin(), want.end(),
          [k](const std::vector<uint32_t>& group) { return group.size() < k; });
      ASSERT_EQ(witness.satisfied, small == want.end()) << "k=" << k;
      if (small == want.end()) continue;
      EXPECT_EQ(witness.row, small->front()) << "k=" << k;
      EXPECT_EQ(witness.cluster, small->front()) << "k=" << k;
      EXPECT_EQ(witness.observed, small->size()) << "k=" << k;
    }
  }
}

}  // namespace
}  // namespace kanon
