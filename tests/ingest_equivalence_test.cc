// Equivalence of the in-place CSV tokenizer with the reader it replaced.
// `old::` below is a verbatim copy of the previous getline/Split/Trim
// reader (RowReader, InferCsvSchema, ReadCsvInferSchema and the generalized
// CSV reader); the library must agree with it on every row, code and
// schema, and on the error code and message of every rejected input.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <sstream>
#include <string>
#include <vector>

#include "kanon/common/failpoint.h"
#include "kanon/common/rng.h"
#include "kanon/common/text.h"
#include "kanon/data/csv.h"
#include "kanon/generalization/generalized_csv.h"
#include "test_util.h"

namespace kanon {
namespace {

using testing::SmallScheme;

namespace old {

std::vector<std::string> SplitFields(const std::string& line, char delimiter) {
  std::vector<std::string> fields = Split(line, delimiter);
  for (std::string& f : fields) {
    f = std::string(Trim(f));
  }
  return fields;
}

bool HasMissing(const std::vector<std::string>& fields,
                const CsvOptions& options) {
  if (!options.skip_rows_with_missing || options.missing_marker.empty()) {
    return false;
  }
  return std::find(fields.begin(), fields.end(), options.missing_marker) !=
         fields.end();
}

class RowReader {
 public:
  RowReader(std::istream& input, CsvOptions options)
      : input_(input), options_(std::move(options)) {}

  Result<bool> Next(std::vector<std::string>* fields) {
    if (done_) return false;
    std::string line;
    while (std::getline(input_, line)) {
      ++line_number_;
      KANON_FAILPOINT("csv.read_row");
      if (line.size() > kMaxCsvLineLength) {
        return Status::InvalidArgument(
            "line " + std::to_string(line_number_) + " is " +
            std::to_string(line.size()) + " bytes long (limit " +
            std::to_string(kMaxCsvLineLength) + "); is this a text file?");
      }
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line_number_ == 1 && line.compare(0, 3, "\xEF\xBB\xBF") == 0) {
        line.erase(0, 3);
      }
      if (Trim(line).empty()) continue;
      std::vector<std::string> split = SplitFields(line, options_.delimiter);
      if (options_.has_header && !saw_header_) {
        header_ = std::move(split);
        saw_header_ = true;
        continue;
      }
      if (HasMissing(split, options_)) continue;
      *fields = std::move(split);
      row_line_number_ = line_number_;
      ++rows_read_;
      return true;
    }
    done_ = true;
    if (input_.bad()) {
      return Status::IOError("stream error after line " +
                             std::to_string(line_number_) +
                             "; input truncated or unreadable");
    }
    if (options_.has_header && !saw_header_) {
      return Status::IOError("CSV input is empty; expected a header row");
    }
    return false;
  }

  const std::vector<std::string>& header() const { return header_; }
  bool header_seen() const { return saw_header_; }
  size_t line_number() const { return row_line_number_; }
  size_t rows_read() const { return rows_read_; }

 private:
  std::istream& input_;
  const CsvOptions options_;
  std::vector<std::string> header_;
  bool saw_header_ = false;
  bool done_ = false;
  size_t line_number_ = 0;
  size_t row_line_number_ = 0;
  size_t rows_read_ = 0;
};

Result<Schema> InferCsvSchema(std::istream& input, const CsvOptions& options) {
  RowReader reader(input, options);
  std::vector<std::string> fields;
  std::vector<std::set<std::string>> distinct;
  size_t num_cols = 0;
  while (true) {
    KANON_ASSIGN_OR_RETURN(bool got, reader.Next(&fields));
    if (!got) break;
    if (reader.rows_read() == 1) {
      num_cols = fields.size();
      distinct.resize(num_cols);
    } else if (fields.size() != num_cols) {
      return Status::InvalidArgument(
          "line " + std::to_string(reader.line_number()) + " has " +
          std::to_string(fields.size()) + " fields; expected " +
          std::to_string(num_cols));
    }
    for (size_t j = 0; j < num_cols; ++j) {
      distinct[j].insert(fields[j]);
    }
  }
  if (reader.rows_read() == 0) {
    return Status::InvalidArgument("CSV input has no data rows");
  }
  if (options.has_header && reader.header().size() != num_cols) {
    return Status::InvalidArgument("header/data column count mismatch");
  }
  std::vector<AttributeDomain> attributes;
  for (size_t j = 0; j < num_cols; ++j) {
    std::string name =
        options.has_header ? reader.header()[j] : "col" + std::to_string(j);
    KANON_ASSIGN_OR_RETURN(
        AttributeDomain domain,
        AttributeDomain::Create(
            std::move(name), std::vector<std::string>(distinct[j].begin(),
                                                      distinct[j].end())));
    attributes.push_back(std::move(domain));
  }
  return Schema::Create(std::move(attributes));
}

Result<Dataset> ReadCsvInferSchema(std::istream& input,
                                   const CsvOptions& options) {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
  std::vector<size_t> line_numbers;
  {
    RowReader reader(input, options);
    std::vector<std::string> fields;
    while (true) {
      Result<bool> got = reader.Next(&fields);
      if (!got.ok()) return got.status();
      if (!got.value()) break;
      rows.push_back(std::move(fields));
      line_numbers.push_back(reader.line_number());
    }
    if (reader.header_seen()) header = reader.header();
  }
  if (rows.empty()) {
    return Status::InvalidArgument("CSV input has no data rows");
  }
  const size_t num_cols = rows[0].size();
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].size() != num_cols) {
      return Status::InvalidArgument(
          "line " + std::to_string(line_numbers[i]) + " has " +
          std::to_string(rows[i].size()) + " fields; expected " +
          std::to_string(num_cols));
    }
  }
  if (options.has_header && header.size() != num_cols) {
    return Status::InvalidArgument("header/data column count mismatch");
  }
  std::vector<AttributeDomain> attributes;
  for (size_t j = 0; j < num_cols; ++j) {
    std::set<std::string> distinct;
    for (const auto& row : rows) {
      distinct.insert(row[j]);
    }
    std::string name =
        options.has_header ? header[j] : "col" + std::to_string(j);
    KANON_ASSIGN_OR_RETURN(
        AttributeDomain domain,
        AttributeDomain::Create(
            std::move(name),
            std::vector<std::string>(distinct.begin(), distinct.end())));
    attributes.push_back(std::move(domain));
  }
  KANON_ASSIGN_OR_RETURN(Schema schema, Schema::Create(std::move(attributes)));
  Dataset dataset(std::move(schema));
  for (const auto& row : rows) {
    KANON_RETURN_NOT_OK(dataset.AppendRowLabels(row));
  }
  return dataset;
}

Result<SetId> ParseCell(const Hierarchy& h, const AttributeDomain& domain,
                        const std::string& text) {
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
      return Status::InvalidArgument("subset " + text +
                                     " is not permissible for attribute '" +
                                     domain.name() + "'");
    }
    return id;
  }
  KANON_ASSIGN_OR_RETURN(ValueCode code, domain.CodeOf(text));
  return h.LeafOf(code);
}

Result<GeneralizedTable> ReadGeneralizedCsv(
    std::shared_ptr<const GeneralizationScheme> scheme, std::istream& input) {
  const Schema& schema = scheme->schema();
  GeneralizedTable table(scheme);
  std::string line;
  bool saw_header = false;
  size_t line_number = 0;
  while (std::getline(input, line)) {
    ++line_number;
    if (Trim(line).empty()) continue;
    std::vector<std::string> fields = Split(line, ',');
    for (std::string& f : fields) f = std::string(Trim(f));
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
              "header column '" + fields[j] + "' does not match attribute '" +
              schema.attribute(j).name() + "'");
        }
      }
      saw_header = true;
      continue;
    }
    if (fields.size() != schema.num_attributes()) {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     " has " + std::to_string(fields.size()) +
                                     " fields; expected " +
                                     std::to_string(schema.num_attributes()));
    }
    GeneralizedRecord record(fields.size());
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

}  // namespace old

// Renders an input for failure messages: control and high bytes escaped.
std::string Shown(const std::string& text) {
  std::string out;
  for (unsigned char c : text.substr(0, 200)) {
    if (c >= 0x20 && c < 0x7F) {
      out += static_cast<char>(c);
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\x%02X", c);
      out += buf;
    }
  }
  return text.size() > 200 ? out + "..." : out;
}

template <typename T>
void ExpectSameStatus(const Result<T>& want, const Result<T>& got,
                      const std::string& input) {
  ASSERT_EQ(want.ok(), got.ok())
      << Shown(input) << "\nold: " << want.status().ToString()
      << "\nnew: " << got.status().ToString();
  if (!want.ok()) {
    EXPECT_EQ(want.status().code(), got.status().code()) << Shown(input);
    EXPECT_EQ(want.status().message(), got.status().message())
        << Shown(input);
  }
}

void ExpectSameDataset(const Result<Dataset>& want, const Result<Dataset>& got,
                       const std::string& input) {
  ExpectSameStatus(want, got, input);
  if (!want.ok() || !got.ok()) return;
  ASSERT_TRUE(want->schema().Equals(got->schema())) << Shown(input);
  ASSERT_EQ(want->num_rows(), got->num_rows()) << Shown(input);
  for (size_t i = 0; i < want->num_rows(); ++i) {
    for (size_t j = 0; j < want->num_attributes(); ++j) {
      ASSERT_EQ(want->at(i, j), got->at(i, j))
          << Shown(input) << " row " << i << " col " << j;
    }
  }
}

// Every reader over one input and one set of options: the row stream, the
// streaming schema inference, and the whole-file reader.
void ExpectReadersAgree(const std::string& input, const CsvOptions& options) {
  SCOPED_TRACE(Shown(input));
  {
    std::istringstream want_in(input);
    std::istringstream got_in(input);
    old::RowReader want(want_in, options);
    RowReader got(got_in, options);
    std::vector<std::string> want_fields;
    std::vector<std::string> got_fields;
    while (true) {
      const Result<bool> w = want.Next(&want_fields);
      const Result<bool> g = got.Next(&got_fields);
      ExpectSameStatus(w, g, input);
      if (!w.ok() || !g.ok()) break;
      ASSERT_EQ(w.value(), g.value());
      EXPECT_EQ(want.header_seen(), got.header_seen());
      EXPECT_EQ(want.header(), got.header());
      if (!w.value()) break;
      ASSERT_EQ(want_fields, got_fields);
      EXPECT_EQ(want.line_number(), got.line_number());
      EXPECT_EQ(want.rows_read(), got.rows_read());
    }
  }
  {
    std::istringstream want_in(input);
    std::istringstream got_in(input);
    const Result<Schema> want = old::InferCsvSchema(want_in, options);
    const Result<Schema> got = InferCsvSchema(got_in, options);
    ExpectSameStatus(want, got, input);
    if (want.ok() && got.ok()) {
      EXPECT_TRUE(want->Equals(*got));
    }
  }
  {
    std::istringstream want_in(input);
    std::istringstream got_in(input);
    ExpectSameDataset(old::ReadCsvInferSchema(want_in, options),
                      ReadCsvInferSchema(got_in, options), input);
  }
}

std::vector<CsvOptions> OptionSets() {
  std::vector<CsvOptions> sets(5);
  sets[1].has_header = false;
  sets[2].skip_rows_with_missing = false;
  sets[3].delimiter = ';';
  sets[3].missing_marker = "NA";
  sets[4].delimiter = '\t';
  sets[4].missing_marker = "";
  return sets;
}

std::string OverLongLine() {
  return std::string(kMaxCsvLineLength + 1, 'x');
}

TEST(IngestEquivalenceTest, PinnedCorpus) {
  std::string many_labels = "v\n";
  for (int i = 0; i < 70000; ++i) {
    many_labels += 'l';
    many_labels += std::to_string(i);
    many_labels += '\n';
  }
  const std::vector<std::string> corpus = {
      // Labels with bytes >= 0x80 sort as unsigned bytes.
      "name,city\n\xC3\xA9t\xC3\xA9,b\nzeta,\xFF\nAlpha,a\n\x80,\x7F\n",
      // Lexicographic, not numeric, order.
      "v\na10\na2\na1\nb\nA\na\n",
      // \v \f \t padding is trimmed; interior whitespace is kept.
      "a,b\n \v x\f\t, \t y \n\fx,y\v\nx y, y\n",
      "a,b\r\n1,2\r\n3,4\r\n",
      "\xEF\xBB\xBF" "a,b\n1,2\n",
      "a,b\n\xEF\xBB\xBF" "1,2\n",
      "\xEF\xBB\xBF\n\xEF\xBB\xBF" "a,b\n1,2\n",
      "a,b\n1,?\n2,3\n?,?\n ? ,4\n",
      "a;b\n1;NA\n2;3\n",
      "\n\na,b\n\n 1,2\n   \n\t\n3,4\n\n",
      "a,b,c\n1,2,\n3,4,\n",
      "a,b\n1,2\n3\n",
      "a,b\n1,2\n3,4,5\n",
      "a,b\n1,2\n3\n4,5\n6,7,8\n",
      "a,b\n1," + OverLongLine() + "\n",
      "a,b\n1,2\n3\n" + OverLongLine() + "\n",
      "a\n" + std::string(kMaxCsvLineLength, 'x') + "\n",
      "a,b\n",
      "a,b",
      "",
      " \n\t\n",
      "\r\n",
      "a,b\n1,2",
      "a,a\n1,2\n",
      "a,b,c\n1,2\n",
      "a,b\n1\r,2\n3,4\r\r\n",
      "a,b\n,\n,\n",
      "a\tb\n 1 \t 2 \n3\t\t\n",
      std::string("x\n\0y\n\0\n", 7),
      many_labels,
  };
  for (const CsvOptions& options : OptionSets()) {
    for (const std::string& input : corpus) {
      ExpectReadersAgree(input, options);
    }
  }
}

TEST(IngestEquivalenceTest, RandomInputs) {
  const std::string alphabet = std::string(",;?\t\v\f\r\n  xyzAB") +
                               "\xC3\xA9\xEF\xBB\xBF" + std::string(1, '\0');
  Rng rng(17);
  const std::vector<CsvOptions> options = OptionSets();
  for (int trial = 0; trial < 400; ++trial) {
    std::string input;
    if (rng.NextBounded(4) == 0) input = "\xEF\xBB\xBF";
    const size_t len = rng.NextBounded(120);
    for (size_t i = 0; i < len; ++i) {
      input += alphabet[rng.NextBounded(alphabet.size())];
    }
    ExpectReadersAgree(input, options[trial % options.size()]);
  }
}

TEST(IngestEquivalenceTest, FailpointFiresOnTheSameLine) {
  const std::string input = "a,b\n\n1,2\n3,4\n5,6\n";
  for (int after = 0; after < 6; ++after) {
    failpoint::Arm("csv.read_row", after);
    std::istringstream want_in(input);
    const Result<Dataset> want = old::ReadCsvInferSchema(want_in, {});
    failpoint::DisarmAll();
    failpoint::Arm("csv.read_row", after);
    std::istringstream got_in(input);
    const Result<Dataset> got = ReadCsvInferSchema(got_in);
    failpoint::DisarmAll();
    ExpectSameDataset(want, got, input);
  }
}

// Hands out `text` `chunk` bytes per refill, then throws once `fail_at`
// bytes have gone out: a stream that breaks mid-read (istream turns the
// exception into badbit). It cannot seek.
class BreakingBuf : public std::streambuf {
 public:
  BreakingBuf(std::string text, size_t chunk, size_t fail_at)
      : text_(std::move(text)), chunk_(chunk), fail_at_(fail_at) {}

 protected:
  int_type underflow() override {
    if (pos_ >= fail_at_) throw std::runtime_error("device error");
    if (pos_ >= text_.size()) return traits_type::eof();
    const size_t n = std::min({chunk_, text_.size() - pos_, fail_at_ - pos_});
    setg(text_.data() + pos_, text_.data() + pos_, text_.data() + pos_ + n);
    pos_ += n;
    return traits_type::to_int_type(text_[pos_ - n]);
  }

 private:
  std::string text_;
  size_t chunk_;
  size_t fail_at_;
  size_t pos_ = 0;
};

TEST(IngestEquivalenceTest, BrokenStreamIsTheSameIOError) {
  const std::string input = "a,b\n1,2\n3,4\n5,6\n7,8";
  for (size_t chunk : {size_t{1}, size_t{3}, size_t{64}}) {
    for (size_t fail_at = 0; fail_at <= input.size() + 1; ++fail_at) {
      SCOPED_TRACE("chunk " + std::to_string(chunk) + " fail_at " +
                   std::to_string(fail_at));
      BreakingBuf want_buf(input, chunk, fail_at);
      std::istream want_in(&want_buf);
      BreakingBuf got_buf(input, chunk, fail_at);
      std::istream got_in(&got_buf);
      ExpectSameDataset(old::ReadCsvInferSchema(want_in, {}),
                        ReadCsvInferSchema(got_in), input);
    }
  }
}

// The generalized-table reader now runs on the shared tokenizer; on every
// input without a BOM or an over-long line (which it now handles like the
// other readers) it must agree with its old getline loop.
TEST(IngestEquivalenceTest, GeneralizedCsvReaderAgrees) {
  auto scheme = SmallScheme();
  std::vector<std::string> corpus = {
      "zip,sex\n{0;1},M\n*,F\n3,*\n",
      "zip,sex\r\n{0;1},M\r\n*,F\r\n",
      " zip , sex \n\n { 0 ; 1 } , M \n\t\n7,F",
      "zip,sex\n?,M\n",
      "zip,sex\n{0;1;2},M\n",
      "zip,sex\n9,M\n",
      "zip,sex\n1\n",
      "zip,sex,x\n1,M\n",
      "sex,zip\n",
      "zip,sex\n",
      "",
      "\n \n",
  };
  Rng rng(5);
  const std::string alphabet = ",;{}*?\r\n\t 0137MFzipsex";
  for (int trial = 0; trial < 300; ++trial) {
    std::string input = "zip,sex\n";
    const size_t len = rng.NextBounded(60);
    for (size_t i = 0; i < len; ++i) {
      input += alphabet[rng.NextBounded(alphabet.size())];
    }
    corpus.push_back(input);
  }
  for (const std::string& input : corpus) {
    std::istringstream want_in(input);
    std::istringstream got_in(input);
    const Result<GeneralizedTable> want =
        old::ReadGeneralizedCsv(scheme, want_in);
    const Result<GeneralizedTable> got = ReadGeneralizedCsv(scheme, got_in);
    ExpectSameStatus(want, got, input);
    if (want.ok() && got.ok()) {
      EXPECT_TRUE(*want == *got) << Shown(input);
    }
  }
}

}  // namespace
}  // namespace kanon
