#include "kanon/serve/table_store.h"

namespace kanon {
namespace serve {

Status TableStore::Register(const std::string& name,
                            std::shared_ptr<const PublishedTable> table) {
  if (name.empty()) {
    return Status::InvalidArgument("table name must not be empty");
  }
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = tables_.find(name);
  if (it == tables_.end() && tables_.size() >= capacity_) {
    return Status::FailedPrecondition(
        "table store is full: it holds at most " + std::to_string(capacity_) +
        " tables; re-registering an existing name replaces that table");
  }
  tables_[name] = std::move(table);
  return Status::OK();
}

std::shared_ptr<const PublishedTable> TableStore::Find(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second;
}

size_t TableStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tables_.size();
}

}  // namespace serve
}  // namespace kanon
