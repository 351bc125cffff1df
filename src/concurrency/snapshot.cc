#include "concurrency/snapshot.h"

#include <utility>

#include "common/check.h"
#include "concurrency/table_version.h"
#include "obs/metrics.h"

namespace auxview {

namespace {

obs::Gauge* PinsGauge() {
  static obs::Gauge* g =
      obs::MetricsRegistry::Global().GetGauge("concurrency.snapshot_pins");
  return g;
}

obs::Counter* PublishRowsCopied() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "concurrency.publish_rows_copied");
  return c;
}

/// The fold rule: deriving one more version from `prev` would copy its
/// overlay; fold instead once the rows copied since the base was taken
/// would reach the base's size (a fold clones about that many rows).
bool ShouldFold(const Table& prev) {
  const auto* version = dynamic_cast<const TableVersion*>(&prev);
  if (version == nullptr) return prev.distinct_rows() == 0;
  return version->rows_copied_since_fold() + version->overlay_rows() >=
         version->base().distinct_rows();
}

}  // namespace

SnapshotRef::SnapshotRef(SnapshotRef&& other) noexcept
    : manager_(other.manager_), snapshot_(std::move(other.snapshot_)) {
  other.manager_ = nullptr;
  other.snapshot_.reset();
}

SnapshotRef& SnapshotRef::operator=(SnapshotRef&& other) noexcept {
  if (this != &other) {
    Release();
    manager_ = other.manager_;
    snapshot_ = std::move(other.snapshot_);
    other.manager_ = nullptr;
    other.snapshot_.reset();
  }
  return *this;
}

SnapshotRef::~SnapshotRef() { Release(); }

void SnapshotRef::Release() {
  if (manager_ != nullptr && snapshot_ != nullptr) {
    manager_->Unpin(snapshot_->epoch());
  }
  manager_ = nullptr;
  snapshot_.reset();
}

SnapshotManager::SnapshotManager() {
  snapshot_counter_.set_enabled(false);
  current_ = std::make_shared<const Snapshot>(
      0, std::map<std::string, std::shared_ptr<const Table>>{});
}

void SnapshotManager::PublishAll(const Database& db) {
  std::map<std::string, std::shared_ptr<const Table>> tables;
  for (const std::string& name : db.TableNames()) {
    tables.emplace(name, db.FindTable(name)->Clone(&snapshot_counter_));
  }
  std::lock_guard<std::mutex> lock(mu_);
  current_ = std::make_shared<const Snapshot>(current_->epoch(),
                                              std::move(tables));
}

uint64_t SnapshotManager::Publish(const Database& db,
                                  const std::vector<UndoLog::Entry>& changes) {
  // Start from the previous epoch's versions; only changed tables get a new
  // one. Reading `db` here is safe: Publish runs under the commit lock, so
  // no commit is mutating the tables concurrently.
  std::map<std::string, std::shared_ptr<const Table>> tables;
  {
    std::lock_guard<std::mutex> lock(mu_);
    tables = current_->tables();
  }
  // Sharded relations log changes against their sub-tables, which carry the
  // relation's name.
  std::map<std::string, std::vector<const UndoLog::Entry*>> by_table;
  for (const UndoLog::Entry& e : changes) {
    by_table[e.table->name()].push_back(&e);
  }
  int64_t copied = 0;
  for (const auto& [name, entries] : by_table) {
    const Table* live = db.FindTable(name);
    AUXVIEW_CHECK_MSG(live != nullptr,
                      ("committed change to a missing table: " + name).c_str());
    std::shared_ptr<const Table>& slot = tables[name];
    if (slot == nullptr || ShouldFold(*slot)) {
      slot = live->Clone(&snapshot_counter_);
      copied += live->distinct_rows();
      continue;
    }
    auto version = std::make_shared<TableVersion>(slot);
    copied += version->overlay_rows();
    for (const UndoLog::Entry* e : entries) {
      version->ApplyChange(e->row, e->count);
    }
    slot = std::move(version);
  }
  PublishRowsCopied()->Add(copied);
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t epoch = current_->epoch() + 1;
  current_ = std::make_shared<const Snapshot>(epoch, std::move(tables));
  return epoch;
}

SnapshotRef SnapshotManager::Pin() {
  std::lock_guard<std::mutex> lock(mu_);
  pinned_epochs_.insert(current_->epoch());
  PinsGauge()->Add(1);
  return SnapshotRef(this, current_);
}

uint64_t SnapshotManager::current_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_->epoch();
}

uint64_t SnapshotManager::MinPinnedEpoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (pinned_epochs_.empty()) return current_->epoch();
  return *pinned_epochs_.begin();
}

void SnapshotManager::Unpin(uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pinned_epochs_.find(epoch);
  if (it != pinned_epochs_.end()) pinned_epochs_.erase(it);
  PinsGauge()->Add(-1);
}

}  // namespace auxview
