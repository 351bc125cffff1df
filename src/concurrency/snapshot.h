#ifndef AUXVIEW_CONCURRENCY_SNAPSHOT_H_
#define AUXVIEW_CONCURRENCY_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "storage/database.h"
#include "storage/page_counter.h"
#include "storage/table.h"
#include "storage/undo_log.h"

namespace auxview {

/// An immutable image of the database — base tables *and* materialized
/// views — published at one commit epoch. Table versions are refcounted
/// (shared_ptr): publishing a new epoch derives a TableVersion (shared base
/// plus overlay, src/concurrency/table_version.h) for each table the commit
/// changed and shares every other version with the previous snapshot, so a
/// commit costs O(|delta|) amortized, not O(database) or O(table).
///
/// A Snapshot is a TableSource, so the executor can run any query against
/// it directly; its tables charge a permanently disabled PageCounter, making
/// snapshot scans free of both modeled I/O and cross-thread counter writes —
/// reads are lock-free once the snapshot pointer is in hand.
class Snapshot : public TableSource {
 public:
  Snapshot(uint64_t epoch,
           std::map<std::string, std::shared_ptr<const Table>> tables)
      : epoch_(epoch), tables_(std::move(tables)) {}

  /// Commit epoch this snapshot reflects (0 = the initial publication).
  uint64_t epoch() const { return epoch_; }

  const Table* ResolveTable(const std::string& name) const override {
    auto it = tables_.find(name);
    return it == tables_.end() ? nullptr : it->second.get();
  }

  /// The refcounted version of one table (nullptr when absent).
  std::shared_ptr<const Table> Version(const std::string& name) const {
    auto it = tables_.find(name);
    return it == tables_.end() ? nullptr : it->second;
  }

  const std::map<std::string, std::shared_ptr<const Table>>& tables() const {
    return tables_;
  }

 private:
  uint64_t epoch_;
  std::map<std::string, std::shared_ptr<const Table>> tables_;
};

class SnapshotManager;

/// A pin on one snapshot: while alive, the conflict tracker retains every
/// commit footprint a writer holding this snapshot might need to validate
/// against, and the `concurrency.snapshot_pins` gauge counts it. Movable,
/// not copyable; must not outlive its SnapshotManager.
class SnapshotRef {
 public:
  SnapshotRef() = default;
  SnapshotRef(SnapshotRef&& other) noexcept;
  SnapshotRef& operator=(SnapshotRef&& other) noexcept;
  ~SnapshotRef();

  SnapshotRef(const SnapshotRef&) = delete;
  SnapshotRef& operator=(const SnapshotRef&) = delete;

  bool valid() const { return snapshot_ != nullptr; }
  const Snapshot& operator*() const { return *snapshot_; }
  const Snapshot* operator->() const { return snapshot_.get(); }
  const Snapshot* get() const { return snapshot_.get(); }
  uint64_t epoch() const { return snapshot_ ? snapshot_->epoch() : 0; }

  /// Drops the pin early (idempotent).
  void Release();

 private:
  friend class SnapshotManager;
  SnapshotRef(SnapshotManager* manager,
              std::shared_ptr<const Snapshot> snapshot)
      : manager_(manager), snapshot_(std::move(snapshot)) {}

  SnapshotManager* manager_ = nullptr;
  std::shared_ptr<const Snapshot> snapshot_;
};

/// Publishes and pins snapshots. `Publish` runs under the commit lock (the
/// controller's funnel); `Pin` and pin release are internally synchronized
/// so reader threads never contend with anything but a brief mutex around a
/// shared_ptr copy.
class SnapshotManager {
 public:
  SnapshotManager();

  /// Clones every table of `db` as epoch 0 — the initial publication.
  void PublishAll(const Database& db);

  /// Publishes the next epoch from the commit's physical row changes (the
  /// committed undo-log entries, in commit order): each changed table gets a
  /// new TableVersion — the previous version's overlay plus `changes` — and
  /// every other table shares its previous version. Folding rule (ski
  /// rental): once the overlay rows copied since a table's last fold would
  /// reach its base's row count, the table instead folds into a fresh base,
  /// one Clone of the live table. Amortized copies per commit are then
  /// about sqrt(2 * rows * |delta|), counted in
  /// `concurrency.publish_rows_copied`. Runs under the commit lock, with
  /// `db` holding the committed state. Returns the new epoch.
  uint64_t Publish(const Database& db,
                   const std::vector<UndoLog::Entry>& changes);

  /// Pins the latest snapshot.
  SnapshotRef Pin();

  /// Epoch of the latest published snapshot.
  uint64_t current_epoch() const;

  /// Oldest epoch still pinned (current epoch when nothing is pinned) — the
  /// horizon below which the conflict tracker may prune commit footprints.
  uint64_t MinPinnedEpoch() const;

 private:
  friend class SnapshotRef;
  void Unpin(uint64_t epoch);

  mutable std::mutex mu_;
  /// Disabled forever: snapshot tables never charge modeled I/O, and a
  /// never-written counter is what makes concurrent snapshot reads race-free.
  PageCounter snapshot_counter_;
  std::shared_ptr<const Snapshot> current_;
  std::multiset<uint64_t> pinned_epochs_;
};

}  // namespace auxview

#endif  // AUXVIEW_CONCURRENCY_SNAPSHOT_H_
