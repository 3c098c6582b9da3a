#ifndef KANON_DATA_CSV_H_
#define KANON_DATA_CSV_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "kanon/common/result.h"
#include "kanon/data/dataset.h"

namespace kanon {

/// Longest accepted input line, in bytes. A line beyond this is rejected
/// with InvalidArgument rather than buffered: the UCI-style files this
/// library targets have short lines, so an over-long one signals a binary
/// or corrupt input, not data.
inline constexpr size_t kMaxCsvLineLength = 1 << 20;  // 1 MiB.

/// Options for the CSV reader. The format is plain comma-separated text
/// without quoting (the UCI files this library targets use none); fields are
/// trimmed of surrounding whitespace. CRLF line endings, a missing trailing
/// newline, and a UTF-8 BOM are tolerated; truncated streams (read errors)
/// and over-long lines are reported as errors.
struct CsvOptions {
  char delimiter = ',';
  bool has_header = true;
  /// Rows containing this field (e.g. "?" in UCI Adult) are skipped entirely.
  std::string missing_marker = "?";
  bool skip_rows_with_missing = true;
};

/// Row iterator over CSV text: the one tokenizer behind every CSV reader of
/// the library (the whole-file readers in this header, the out-of-core
/// sharded driver in src/kanon/shard/, and ReadGeneralizedCsv). Each line is
/// split in place into `std::string_view` fields, trimmed by Trim()'s
/// isspace rules; nothing is copied until a caller asks for strings.
///
/// It reads from one of two sources:
///   - a stream, one line at a time: memory is one line, however long the
///     input (what the whole-file readers and the sharded driver ingest
///     through);
///   - caller-owned text, in place.
///
/// Next() applies the same hardened parsing to every source: CRLF endings
/// and a UTF-8 BOM on the first line are tolerated, blank lines and rows
/// carrying the missing-value marker are skipped, over-long lines and
/// truncated streams (stream errors) are reported as Status failures. With
/// options.has_header the header line is consumed (and exposed via
/// header()) before the first data row; an input that ends before the
/// header is an error.
///
/// Usage:
///   RowReader reader(input, options);
///   std::vector<std::string> fields;
///   while (true) {
///     KANON_ASSIGN_OR_RETURN(bool got, reader.Next(&fields));
///     if (!got) break;
///     ...  // one row in `fields`; reader.line_number() names its line
///   }
class RowReader {
 public:
  /// Streams `input` one line at a time; `input` must outlive the reader.
  RowReader(std::istream& input, CsvOptions options = CsvOptions());

  /// Reads rows in place out of `text`, which must outlive the reader.
  RowReader(std::string_view text, CsvOptions options = CsvOptions());

  /// Advances to the next data row. Returns true with `*fields` filled,
  /// false at a clean end of input, or an error Status on malformed or
  /// truncated input.
  Result<bool> Next(std::vector<std::string>* fields);

  /// Next() without the copies: `*fields` views the row's text. On a
  /// streaming reader the views last until the next call; otherwise as
  /// long as the text they point into.
  Result<bool> NextFields(std::vector<std::string_view>* fields);

  /// The header row's fields. Populated once Next() has been called at
  /// least once (on a has_header stream); empty otherwise.
  const std::vector<std::string>& header() const { return header_; }
  bool header_seen() const { return saw_header_; }

  /// 1-based input line of the row Next() last returned (0 before the
  /// first row) — what error messages should point at.
  size_t line_number() const { return row_line_number_; }

  /// Data rows returned so far.
  size_t rows_read() const { return rows_read_; }

 private:
  // The next physical line, without its '\n'; false at the end of input.
  bool NextLine(std::string_view* line);

  std::istream* input_ = nullptr;  // Null when reading text.
  std::string line_;               // The current line of a stream.
  std::string_view text_;          // The text, when not streaming.
  size_t text_pos_ = 0;
  const CsvOptions options_;
  std::vector<std::string> header_;
  std::vector<std::string_view> views_;  // Next()'s scratch.
  bool saw_header_ = false;
  bool done_ = false;
  size_t line_number_ = 0;      // Lines consumed from the input.
  size_t row_line_number_ = 0;  // Line of the last returned row.
  size_t rows_read_ = 0;
};

/// Streams `input` once and infers an attribute domain per column from the
/// distinct values seen (labels sorted lexicographically), without
/// materializing the rows: memory is bounded by the domain sizes, not the
/// row count. With a header, attribute names come from it; otherwise they
/// are "col0", "col1", .... This is pass 1 of the sharded driver's
/// two-pass ingestion.
Result<Schema> InferCsvSchema(std::istream& input,
                              const CsvOptions& options = CsvOptions());
Result<Schema> InferCsvSchemaFile(const std::string& path,
                                  const CsvOptions& options = CsvOptions());

/// Streams the data rows of a CSV whose columns match `schema` (by
/// position) through `row(index, fields)`, index counting from 0. A header
/// row, when present, must name the attributes in order, and every row must
/// carry one field per attribute. Errors of the check and of `row` name the
/// input line. Memory is one line of text: this is both passes of the
/// sharded driver's ingestion.
Status ForEachCsvRow(
    std::istream& input, const Schema& schema, const CsvOptions& options,
    const std::function<Status(uint64_t, const std::vector<std::string>&)>&
        row);

/// Reads a dataset whose columns match `schema` (ForEachCsvRow's checks).
/// Unknown value labels produce an error.
Result<Dataset> ReadCsv(const Schema& schema, std::istream& input,
                        const CsvOptions& options = CsvOptions());
Result<Dataset> ReadCsvFile(const Schema& schema, const std::string& path,
                            const CsvOptions& options = CsvOptions());

/// Reads a CSV and infers an attribute domain per column from the distinct
/// values seen (labels sorted lexicographically). With a header, attribute
/// names come from it; otherwise they are "col0", "col1", .... Lines are
/// tokenized in place one at a time; each column's labels are interned
/// through a hash table and renumbered in sorted order.
Result<Dataset> ReadCsvInferSchema(std::istream& input,
                                   const CsvOptions& options = CsvOptions());
Result<Dataset> ReadCsvInferSchemaFile(
    const std::string& path, const CsvOptions& options = CsvOptions());
/// The same, over CSV text already in memory (tokenized in place).
Result<Dataset> ReadCsvInferSchemaText(
    std::string_view text, const CsvOptions& options = CsvOptions());

/// Writes a dataset (value labels, with a header; the class column, when
/// present, is appended as the last column).
Status WriteCsv(const Dataset& dataset, std::ostream& output,
                char delimiter = ',');

}  // namespace kanon

#endif  // KANON_DATA_CSV_H_
