#ifndef KANON_SERVE_TABLE_STORE_H_
#define KANON_SERVE_TABLE_STORE_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "kanon/common/result.h"
#include "kanon/data/dataset.h"
#include "kanon/generalization/generalized_table.h"

namespace kanon {
namespace serve {

/// One published anonymization: the original dataset D, the released table
/// g(D), and the scheme both are coded against. This is what the fast
/// read-path queries (`verify`, `attack`) run over — the paper's
/// Definitions 4.1/4.4/4.6 checks and the Section IV-A match-reduction
/// attack all take exactly this triple.
struct PublishedTable {
  std::shared_ptr<const GeneralizationScheme> scheme;
  Dataset dataset;
  GeneralizedTable table;

  PublishedTable(std::shared_ptr<const GeneralizationScheme> scheme_in,
                 Dataset dataset_in, GeneralizedTable table_in)
      : scheme(std::move(scheme_in)),
        dataset(std::move(dataset_in)),
        table(std::move(table_in)) {}
};

/// A bounded, thread-safe, in-memory registry of published tables, keyed
/// by client-chosen names. Entries are immutable once registered (lookups
/// hand out shared_ptr<const>, so a re-registration never invalidates a
/// query already running against the old table).
class TableStore {
 public:
  explicit TableStore(size_t capacity) : capacity_(capacity) {}

  /// Registers (or replaces) `name`. A new name fails with
  /// FailedPrecondition once the store holds `capacity` distinct names —
  /// the read path's admission bound, mirroring the job queue's. Nothing
  /// removes a name, so a full store only accepts re-registrations.
  Status Register(const std::string& name,
                  std::shared_ptr<const PublishedTable> table);

  /// nullptr when `name` was never registered.
  std::shared_ptr<const PublishedTable> Find(const std::string& name) const;

  size_t size() const;

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<const PublishedTable>> tables_;
};

}  // namespace serve
}  // namespace kanon

#endif  // KANON_SERVE_TABLE_STORE_H_
