// Coverage-guided fuzz target for the CSV tokenizer (src/kanon/data/csv.h):
// the same bytes go through every reader built on it, and besides never
// crashing, hanging or tripping a sanitizer, the readers must agree:
//   - ReadCsvInferSchema over a stream and ReadCsvInferSchemaText over the
//     bytes give the same status, schema and codes;
//   - RowReader over a trickling, unseekable stream (a few bytes per read,
//     so lines and fields straddle every internal buffer) returns the same
//     rows, line numbers and errors as RowReader over the text;
//   - InferCsvSchema's streaming schema is the whole-file reader's schema;
//   - ReadGeneralizedCsv gives the same table or error on both streams.
// A disagreement aborts, which the fuzzer reports as a crash.
//
// Built as `csv_fuzzer` with -fsanitize=fuzzer under clang, and always as
// `csv_fuzz_replay` (replay_main.cc), which ctest runs over the checked-in
// corpus in corpus/csv/.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <memory>
#include <sstream>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "kanon/data/csv.h"
#include "kanon/generalization/generalized_csv.h"

namespace kanon {
namespace {

void Require(bool condition, const char* what) {
  if (!condition) {
    std::fprintf(stderr, "csv_fuzz: readers disagree: %s\n", what);
    std::abort();
  }
}

// Hands out `text` a few bytes per underflow and cannot seek.
class TrickleBuf : public std::streambuf {
 public:
  explicit TrickleBuf(std::string_view text) : text_(text) {}

 protected:
  int_type underflow() override {
    if (pos_ >= text_.size()) return traits_type::eof();
    const size_t n = std::min<size_t>(7, text_.size() - pos_);
    char* begin = const_cast<char*>(text_.data()) + pos_;
    setg(begin, begin, begin + n);
    pos_ += n;
    return traits_type::to_int_type(*begin);
  }

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

template <typename T>
bool SameStatus(const Result<T>& a, const Result<T>& b) {
  return a.ok() == b.ok() &&
         (a.ok() || (a.status().code() == b.status().code() &&
                     a.status().message() == b.status().message()));
}

bool SameDataset(const Dataset& a, const Dataset& b) {
  if (!a.schema().Equals(b.schema()) || a.num_rows() != b.num_rows()) {
    return false;
  }
  for (size_t i = 0; i < a.num_rows(); ++i) {
    for (size_t j = 0; j < a.num_attributes(); ++j) {
      if (a.at(i, j) != b.at(i, j)) return false;
    }
  }
  return true;
}

void CheckRowStreams(std::string_view text, const CsvOptions& options) {
  TrickleBuf trickle(text);
  std::istream stream(&trickle);
  RowReader streamed(stream, options);
  RowReader in_place(text, options);
  std::vector<std::string> streamed_fields;
  std::vector<std::string> in_place_fields;
  while (true) {
    const Result<bool> a = streamed.Next(&streamed_fields);
    const Result<bool> b = in_place.Next(&in_place_fields);
    Require(SameStatus(a, b), "RowReader status");
    if (!a.ok() || !a.value()) break;
    Require(streamed_fields == in_place_fields, "RowReader fields");
    Require(streamed.line_number() == in_place.line_number(),
            "RowReader line number");
    Require(streamed.header() == in_place.header(), "RowReader header");
  }
}

void CheckWholeFile(std::string_view text, const CsvOptions& options) {
  TrickleBuf trickle(text);
  std::istream stream(&trickle);
  const Result<Dataset> streamed = ReadCsvInferSchema(stream, options);
  const Result<Dataset> in_place = ReadCsvInferSchemaText(text, options);
  Require(SameStatus(streamed, in_place), "ReadCsvInferSchema status");
  if (!in_place.ok()) return;
  Require(SameDataset(*streamed, *in_place), "ReadCsvInferSchema dataset");
  TrickleBuf again(text);
  std::istream schema_stream(&again);
  const Result<Schema> schema = InferCsvSchema(schema_stream, options);
  Require(schema.ok() && schema->Equals(in_place->schema()),
          "InferCsvSchema schema");
}

void CheckGeneralized(std::string_view text) {
  static const std::shared_ptr<const GeneralizationScheme> scheme = [] {
    const AttributeDomain zip = AttributeDomain::IntegerRange("zip", 0, 7);
    const AttributeDomain sex =
        AttributeDomain::Create("sex", {"M", "F"}).value();
    const Schema schema = Schema::Create({zip, sex}).value();
    return std::make_shared<const GeneralizationScheme>(
        GeneralizationScheme::Create(
            schema, {Hierarchy::Intervals(8, {2, 4}).value(),
                     Hierarchy::SuppressionOnly(2).value()})
            .value());
  }();
  TrickleBuf trickle(text);
  std::istream stream(&trickle);
  std::istringstream whole{std::string(text)};
  const Result<GeneralizedTable> a = ReadGeneralizedCsv(scheme, stream);
  const Result<GeneralizedTable> b = ReadGeneralizedCsv(scheme, whole);
  Require(SameStatus(a, b), "ReadGeneralizedCsv status");
  Require(!a.ok() || *a == *b, "ReadGeneralizedCsv table");
}

}  // namespace
}  // namespace kanon

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using namespace kanon;
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  std::vector<CsvOptions> option_sets(3);
  option_sets[1].has_header = false;
  option_sets[1].skip_rows_with_missing = false;
  option_sets[2].delimiter = ';';
  option_sets[2].missing_marker = "NA";
  for (const CsvOptions& options : option_sets) {
    CheckRowStreams(text, options);
    CheckWholeFile(text, options);
  }
  CheckGeneralized(text);
  return 0;
}
