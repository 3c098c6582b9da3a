#include "kanon/generalization/generalized_csv.h"

#include <fstream>
#include <string_view>

#include "kanon/common/text.h"
#include "kanon/data/csv.h"

namespace kanon {

namespace {

// Renders one generalized cell: label, "{a;b;c}", or "*".
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

Result<SetId> ParseCell(const Hierarchy& h, const AttributeDomain& domain,
                        std::string_view text) {
  if (text == "*") {
    return h.FullSetId();
  }
  if (!text.empty() && text.front() == '{' && text.back() == '}') {
    ValueSet set(domain.size());
    for (const std::string& part :
         Split(text.substr(1, text.size() - 2), ';')) {
      KANON_ASSIGN_OR_RETURN(ValueCode code,
                             domain.CodeOf(std::string(Trim(part))));
      set.Insert(code);
    }
    Result<SetId> id = h.IdOf(set);
    if (!id.ok()) {
      return Status::InvalidArgument("subset " + std::string(text) +
                                     " is not permissible for attribute '" +
                                     domain.name() + "'");
    }
    return id;
  }
  KANON_ASSIGN_OR_RETURN(ValueCode code, domain.CodeOf(std::string(text)));
  return h.LeafOf(code);
}

}  // namespace

Status WriteGeneralizedCsv(const GeneralizedTable& table,
                           std::ostream& output) {
  const GeneralizationScheme& scheme = table.scheme();
  const Schema& schema = scheme.schema();
  const size_t r = schema.num_attributes();
  // Each used (attribute, subset) cell text is rendered once; rows are
  // appended into one buffer that goes out in ~1 MiB writes.
  std::vector<std::vector<std::string>> texts(r);
  std::vector<std::vector<bool>> rendered(r);
  for (size_t j = 0; j < r; ++j) {
    texts[j].resize(scheme.hierarchy(j).num_sets());
    rendered[j].resize(scheme.hierarchy(j).num_sets(), false);
  }
  constexpr size_t kFlushBytes = size_t{1} << 20;
  std::string buffer;
  for (size_t j = 0; j < r; ++j) {
    if (j > 0) buffer += ',';
    buffer += schema.attribute(j).name();
  }
  buffer += '\n';
  for (size_t i = 0; i < table.num_rows(); ++i) {
    for (size_t j = 0; j < r; ++j) {
      if (j > 0) buffer += ',';
      const SetId set = table.at(i, j);
      if (!rendered[j][set]) {
        texts[j][set] =
            CellText(scheme.hierarchy(j), schema.attribute(j), set);
        rendered[j][set] = true;
      }
      buffer += texts[j][set];
    }
    buffer += '\n';
    if (buffer.size() >= kFlushBytes) {
      output.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
      buffer.clear();
    }
  }
  output.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
  if (!output) {
    return Status::IOError("failed writing generalized CSV output");
  }
  return Status::OK();
}

Status WriteGeneralizedCsvFile(const GeneralizedTable& table,
                               const std::string& path) {
  std::ofstream file(path);
  if (!file) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  return WriteGeneralizedCsv(table, file);
}

Result<GeneralizedTable> ReadGeneralizedCsv(
    std::shared_ptr<const GeneralizationScheme> scheme, std::istream& input) {
  if (scheme == nullptr) {
    return Status::InvalidArgument("scheme must not be null");
  }
  const Schema& schema = scheme->schema();
  GeneralizedTable table(scheme);

  // The shared CSV tokenizer, with the header taken as the first row (so an
  // empty input keeps this reader's own message) and no missing marker: a
  // "?" cell is an unknown label here, not a row to skip.
  CsvOptions options;
  options.has_header = false;
  options.skip_rows_with_missing = false;
  RowReader reader(input, options);
  std::vector<std::string_view> fields;
  bool saw_header = false;
  GeneralizedRecord record(schema.num_attributes());
  while (true) {
    KANON_ASSIGN_OR_RETURN(bool got, reader.NextFields(&fields));
    if (!got) break;
    if (!saw_header) {
      if (fields.size() != schema.num_attributes()) {
        return Status::InvalidArgument("header has " +
                                       std::to_string(fields.size()) +
                                       " columns; expected " +
                                       std::to_string(schema.num_attributes()));
      }
      for (size_t j = 0; j < fields.size(); ++j) {
        if (fields[j] != schema.attribute(j).name()) {
          return Status::InvalidArgument(
              "header column '" + std::string(fields[j]) +
              "' does not match attribute '" + schema.attribute(j).name() +
              "'");
        }
      }
      saw_header = true;
      continue;
    }
    const size_t line_number = reader.line_number();
    if (fields.size() != schema.num_attributes()) {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     " has " + std::to_string(fields.size()) +
                                     " fields; expected " +
                                     std::to_string(schema.num_attributes()));
    }
    for (size_t j = 0; j < fields.size(); ++j) {
      Result<SetId> id =
          ParseCell(scheme->hierarchy(j), schema.attribute(j), fields[j]);
      if (!id.ok()) {
        return Status(id.status().code(), "line " +
                                              std::to_string(line_number) +
                                              ": " + id.status().message());
      }
      record[j] = id.value();
    }
    table.AppendRecord(record);
  }
  if (!saw_header) {
    return Status::IOError("generalized CSV input is empty");
  }
  return table;
}

}  // namespace kanon
