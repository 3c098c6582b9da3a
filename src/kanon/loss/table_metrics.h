#ifndef KANON_LOSS_TABLE_METRICS_H_
#define KANON_LOSS_TABLE_METRICS_H_

#include <cstdint>
#include <vector>

#include "kanon/data/dataset.h"
#include "kanon/generalization/generalized_table.h"

namespace kanon {

/// Partitions the rows of a generalized table into groups of identical
/// generalized records (the anonymity groups of a k-anonymized table).
/// Groups are ordered by their record (lexicographic set ids) and hold
/// ascending row indices. Rows are grouped by hash, so the cost is one
/// probe per row plus a sort of the groups.
std::vector<std::vector<uint32_t>> GroupIdenticalRecords(
    const GeneralizedTable& table);

/// The discernibility metric DM of Bayardo & Agrawal: Σ_G |G|² over the
/// groups of identical generalized records. Lower is better; a table of n
/// distinct records scores n, a fully suppressed one scores n².
uint64_t DiscernibilityMetric(const GeneralizedTable& table);

/// The classification metric CM of Iyengar: the fraction of rows whose
/// class label differs from the majority class of their anonymity group.
/// Requires `dataset.has_class_column()` and equal row counts.
double ClassificationMetric(const Dataset& dataset,
                            const GeneralizedTable& table);

/// Sizes of the anonymity groups (sorted ascending) — handy for stats.
std::vector<size_t> GroupSizes(const GeneralizedTable& table);

}  // namespace kanon

#endif  // KANON_LOSS_TABLE_METRICS_H_
