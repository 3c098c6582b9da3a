#ifndef KANON_GENERALIZATION_GENERALIZED_CSV_H_
#define KANON_GENERALIZATION_GENERALIZED_CSV_H_

#include <iosfwd>
#include <memory>
#include <string>

#include "kanon/common/result.h"
#include "kanon/generalization/generalized_table.h"

namespace kanon {

/// Serialization of generalized tables as CSV, the format a data owner
/// would actually publish:
///   - a header with the attribute names,
///   - one row per generalized record,
///   - a cell is a plain value label ("34"), a set of labels
///     ("{30;31;32}" — ';' separates members so ',' stays the column
///     delimiter), or "*" for the full domain.
///
/// Reading requires the same GeneralizationScheme: every parsed subset must
/// be permissible in it (the round trip is exact).
Status WriteGeneralizedCsv(const GeneralizedTable& table,
                           std::ostream& output);
Status WriteGeneralizedCsvFile(const GeneralizedTable& table,
                               const std::string& path);

Result<GeneralizedTable> ReadGeneralizedCsv(
    std::shared_ptr<const GeneralizationScheme> scheme, std::istream& input);

}  // namespace kanon

#endif  // KANON_GENERALIZATION_GENERALIZED_CSV_H_
