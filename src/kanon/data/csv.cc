#include "kanon/data/csv.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <numeric>
#include <utility>

#include "kanon/common/failpoint.h"
#include "kanon/common/hash.h"
#include "kanon/common/id_table.h"
#include "kanon/common/text.h"

namespace kanon {

namespace {

// Trim() of one field (or line), skipping the call when neither end byte
// can be whitespace: a printable ASCII byte is never isspace in any locale.
std::string_view TrimField(std::string_view field) {
  if (!field.empty()) {
    const auto front = static_cast<unsigned char>(field.front());
    const auto back = static_cast<unsigned char>(field.back());
    if (front > ' ' && front < 0x7F && back > ' ' && back < 0x7F) {
      return field;
    }
  }
  return Trim(field);
}

// The one line tokenizer: splits `line` in place on `delimiter` into
// trimmed fields, keeping empty ones ("a,,b" -> {"a", "", "b"}).
void SplitLine(std::string_view line, char delimiter,
               std::vector<std::string_view>* fields) {
  fields->clear();
  const char* begin = line.data();
  const char* const end = begin + line.size();
  for (const char* p = begin; p != end; ++p) {
    if (*p == delimiter) {
      fields->push_back(TrimField(std::string_view(begin, p - begin)));
      begin = p + 1;
    }
  }
  fields->push_back(TrimField(std::string_view(begin, end - begin)));
}

bool HasMissing(const std::vector<std::string_view>& fields,
                const CsvOptions& options) {
  if (!options.skip_rows_with_missing || options.missing_marker.empty()) {
    return false;
  }
  return std::find(fields.begin(), fields.end(), options.missing_marker) !=
         fields.end();
}

// One column's distinct labels, numbered in first-occurrence order.
// TakeSorted() then orders them by std::string comparison — the order a
// std::set<std::string> would hold them in, which the domains publish.
class LabelInterner {
 public:
  uint32_t Intern(std::string_view label) {
    bool inserted = false;
    const uint32_t code = ids_.Intern(
        HashOf(label), [&](uint32_t code) { return labels_[code] == label; },
        [this](uint32_t code) { return HashOf(labels_[code]); }, &inserted);
    if (inserted) labels_.emplace_back(label);
    return code;
  }

  /// Moves the labels out in sorted order; ranks[code] is each one's
  /// position among them.
  std::vector<std::string> TakeSorted(std::vector<uint32_t>* ranks) {
    std::vector<uint32_t> order(labels_.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [this](uint32_t a, uint32_t b) {
      return labels_[a] < labels_[b];
    });
    ranks->assign(labels_.size(), 0);
    std::vector<std::string> sorted(labels_.size());
    for (uint32_t rank = 0; rank < order.size(); ++rank) {
      (*ranks)[order[rank]] = rank;
      sorted[rank] = std::move(labels_[order[rank]]);
    }
    return sorted;
  }

 private:
  static uint64_t HashOf(std::string_view label) {
    return Fnv1a(label.data(), label.size());
  }

  IdTable ids_;
  std::vector<std::string> labels_;
};

Status RaggedRow(size_t line, size_t fields, size_t expected) {
  return Status::InvalidArgument("line " + std::to_string(line) + " has " +
                                 std::to_string(fields) +
                                 " fields; expected " +
                                 std::to_string(expected));
}

// Interns every data row of `reader` column by column into `*columns`
// (sized by the first row) and, when `codes` is non-null, appends each
// row's first-occurrence codes to it — truncated to 16 bits, which only a
// column too large to become a domain overflows. A row whose field count
// differs from the first row's is an error; with `defer_ragged` it is
// reported only after the rest of the input read cleanly, so a reader error
// further down wins.
Status InternRows(RowReader* reader, bool defer_ragged,
                  std::vector<LabelInterner>* columns,
                  std::vector<ValueCode>* codes) {
  std::vector<std::string_view> fields;
  Status ragged = Status::OK();
  while (true) {
    KANON_ASSIGN_OR_RETURN(bool got, reader->NextFields(&fields));
    if (!got) break;
    if (reader->rows_read() == 1) {
      columns->resize(fields.size());
    } else if (fields.size() != columns->size() && ragged.ok()) {
      ragged = RaggedRow(reader->line_number(), fields.size(),
                         columns->size());
      if (!defer_ragged) return ragged;
    }
    if (!ragged.ok()) continue;
    for (size_t j = 0; j < fields.size(); ++j) {
      const uint32_t code = (*columns)[j].Intern(fields[j]);
      if (codes != nullptr) codes->push_back(static_cast<ValueCode>(code));
    }
  }
  return ragged;
}

// The inferred schema of the rows InternRows read: column j's labels in
// sorted order, named from the header (or "col<j>"). `(*ranks)[j][code]` is
// the domain code of first-occurrence code `code`.
Result<Schema> BuildSchema(const RowReader& reader, const CsvOptions& options,
                           std::vector<LabelInterner>* columns,
                           std::vector<std::vector<uint32_t>>* ranks) {
  if (reader.rows_read() == 0) {
    return Status::InvalidArgument("CSV input has no data rows");
  }
  const size_t num_cols = columns->size();
  if (options.has_header && reader.header().size() != num_cols) {
    return Status::InvalidArgument("header/data column count mismatch");
  }
  ranks->resize(num_cols);
  std::vector<AttributeDomain> attributes;
  for (size_t j = 0; j < num_cols; ++j) {
    std::string name =
        options.has_header ? reader.header()[j] : "col" + std::to_string(j);
    KANON_ASSIGN_OR_RETURN(
        AttributeDomain domain,
        AttributeDomain::Create(std::move(name),
                                (*columns)[j].TakeSorted(&(*ranks)[j])));
    attributes.push_back(std::move(domain));
  }
  return Schema::Create(std::move(attributes));
}

Result<Dataset> InferAndCode(RowReader* reader, const CsvOptions& options) {
  std::vector<LabelInterner> columns;
  std::vector<ValueCode> cells;
  KANON_RETURN_NOT_OK(
      InternRows(reader, /*defer_ragged=*/true, &columns, &cells));
  std::vector<std::vector<uint32_t>> ranks;
  KANON_ASSIGN_OR_RETURN(Schema schema,
                         BuildSchema(*reader, options, &columns, &ranks));
  // Every domain was created, so no code was truncated: renumber in place.
  const size_t r = columns.size();
  for (size_t row = 0; row < cells.size(); row += r) {
    for (size_t j = 0; j < r; ++j) {
      cells[row + j] = static_cast<ValueCode>(ranks[j][cells[row + j]]);
    }
  }
  return Dataset::FromCells(std::move(schema), std::move(cells));
}

}  // namespace

RowReader::RowReader(std::istream& input, CsvOptions options)
    : input_(&input), options_(std::move(options)) {}

RowReader::RowReader(std::string_view text, CsvOptions options)
    : text_(text), options_(std::move(options)) {}

bool RowReader::NextLine(std::string_view* line) {
  if (input_ != nullptr) {
    if (!std::getline(*input_, line_)) return false;
    *line = line_;
    return true;
  }
  if (text_pos_ >= text_.size()) return false;
  const char* const start = text_.data() + text_pos_;
  const size_t left = text_.size() - text_pos_;
  const void* newline = std::memchr(start, '\n', left);
  const size_t length =
      newline != nullptr ? static_cast<const char*>(newline) - start : left;
  *line = std::string_view(start, length);
  text_pos_ += newline != nullptr ? length + 1 : length;
  return true;
}

Result<bool> RowReader::NextFields(std::vector<std::string_view>* fields) {
  if (done_) return false;
  std::string_view line;
  while (NextLine(&line)) {
    ++line_number_;
    KANON_FAILPOINT("csv.read_row");
    if (line.size() > kMaxCsvLineLength) {
      return Status::InvalidArgument(
          "line " + std::to_string(line_number_) + " is " +
          std::to_string(line.size()) + " bytes long (limit " +
          std::to_string(kMaxCsvLineLength) + "); is this a text file?");
    }
    // Tolerate CRLF endings and a UTF-8 BOM on the first line.
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line_number_ == 1 && line.substr(0, 3) == "\xEF\xBB\xBF") {
      line.remove_prefix(3);
    }
    if (TrimField(line).empty()) continue;
    SplitLine(line, options_.delimiter, fields);
    if (options_.has_header && !saw_header_) {
      header_.assign(fields->begin(), fields->end());
      saw_header_ = true;
      continue;
    }
    if (HasMissing(*fields, options_)) continue;
    row_line_number_ = line_number_;
    ++rows_read_;
    return true;
  }
  done_ = true;
  // A stream stops on EOF (fine, with or without a trailing newline) or on
  // a stream error — a truncated or unreadable input must not pass for a
  // short-but-valid file.
  if (input_ != nullptr && input_->bad()) {
    return Status::IOError("stream error after line " +
                           std::to_string(line_number_) +
                           "; input truncated or unreadable");
  }
  if (options_.has_header && !saw_header_) {
    return Status::IOError("CSV input is empty; expected a header row");
  }
  return false;
}

Result<bool> RowReader::Next(std::vector<std::string>* fields) {
  KANON_ASSIGN_OR_RETURN(bool got, NextFields(&views_));
  if (got) {
    fields->resize(views_.size());
    for (size_t j = 0; j < views_.size(); ++j) (*fields)[j] = views_[j];
  }
  return got;
}

Result<Schema> InferCsvSchema(std::istream& input,
                              const CsvOptions& options) {
  RowReader reader(input, options);
  std::vector<LabelInterner> columns;
  KANON_RETURN_NOT_OK(
      InternRows(&reader, /*defer_ragged=*/false, &columns, nullptr));
  std::vector<std::vector<uint32_t>> ranks;
  return BuildSchema(reader, options, &columns, &ranks);
}

Result<Schema> InferCsvSchemaFile(const std::string& path,
                                  const CsvOptions& options) {
  KANON_FAILPOINT("csv.open");
  std::ifstream file(path);
  if (!file) {
    return Status::IOError("cannot open '" + path + "' for reading");
  }
  return InferCsvSchema(file, options);
}

namespace {

Status CheckHeader(const Schema& schema,
                   const std::vector<std::string>& header) {
  if (header.size() != schema.num_attributes()) {
    return Status::InvalidArgument(
        "CSV header has " + std::to_string(header.size()) +
        " columns, schema has " + std::to_string(schema.num_attributes()));
  }
  for (size_t j = 0; j < header.size(); ++j) {
    if (header[j] != schema.attribute(j).name()) {
      return Status::InvalidArgument("CSV column '" + header[j] +
                                     "' does not match schema attribute '" +
                                     schema.attribute(j).name() + "'");
    }
  }
  return Status::OK();
}

}  // namespace

Status ForEachCsvRow(
    std::istream& input, const Schema& schema, const CsvOptions& options,
    const std::function<Status(uint64_t, const std::vector<std::string>&)>&
        row) {
  RowReader reader(input, options);
  std::vector<std::string> fields;
  bool header_checked = !options.has_header;
  for (uint64_t index = 0;; ++index) {
    KANON_ASSIGN_OR_RETURN(bool got, reader.Next(&fields));
    if (!header_checked && reader.header_seen()) {
      KANON_RETURN_NOT_OK(CheckHeader(schema, reader.header()));
      header_checked = true;
    }
    if (!got) return Status::OK();
    // A short or long row is an error, so a truncated final line cannot
    // slip in as a narrower record.
    if (fields.size() != schema.num_attributes()) {
      return Status::InvalidArgument(
          "line " + std::to_string(reader.line_number()) + " has " +
          std::to_string(fields.size()) + " fields; schema has " +
          std::to_string(schema.num_attributes()));
    }
    Status s = row(index, fields);
    if (!s.ok()) {
      return Status(s.code(), "line " + std::to_string(reader.line_number()) +
                                  ": " + s.message());
    }
  }
}

Result<Dataset> ReadCsv(const Schema& schema, std::istream& input,
                        const CsvOptions& options) {
  // Rows go straight into the coded Dataset, so peak memory is the dataset
  // plus one line of text.
  Dataset dataset(schema);
  KANON_RETURN_NOT_OK(ForEachCsvRow(
      input, schema, options,
      [&dataset](uint64_t, const std::vector<std::string>& fields) {
        return dataset.AppendRowLabels(fields);
      }));
  return dataset;
}

Result<Dataset> ReadCsvFile(const Schema& schema, const std::string& path,
                            const CsvOptions& options) {
  KANON_FAILPOINT("csv.open");
  std::ifstream file(path);
  if (!file) {
    return Status::IOError("cannot open '" + path + "' for reading");
  }
  return ReadCsv(schema, file, options);
}

Result<Dataset> ReadCsvInferSchema(std::istream& input,
                                   const CsvOptions& options) {
  RowReader reader(input, options);
  return InferAndCode(&reader, options);
}

Result<Dataset> ReadCsvInferSchemaText(std::string_view text,
                                       const CsvOptions& options) {
  RowReader reader(text, options);
  return InferAndCode(&reader, options);
}

Result<Dataset> ReadCsvInferSchemaFile(const std::string& path,
                                       const CsvOptions& options) {
  KANON_FAILPOINT("csv.open");
  std::ifstream file(path);
  if (!file) {
    return Status::IOError("cannot open '" + path + "' for reading");
  }
  return ReadCsvInferSchema(file, options);
}

Status WriteCsv(const Dataset& dataset, std::ostream& output,
                char delimiter) {
  const Schema& schema = dataset.schema();
  for (size_t j = 0; j < schema.num_attributes(); ++j) {
    if (j > 0) output << delimiter;
    output << schema.attribute(j).name();
  }
  if (dataset.has_class_column()) {
    output << delimiter << dataset.class_domain().name();
  }
  output << '\n';
  for (size_t i = 0; i < dataset.num_rows(); ++i) {
    for (size_t j = 0; j < schema.num_attributes(); ++j) {
      if (j > 0) output << delimiter;
      output << schema.attribute(j).label(dataset.at(i, j));
    }
    if (dataset.has_class_column()) {
      output << delimiter << dataset.class_domain().label(dataset.class_of(i));
    }
    output << '\n';
  }
  if (!output) {
    return Status::IOError("failed writing CSV output");
  }
  return Status::OK();
}

}  // namespace kanon
