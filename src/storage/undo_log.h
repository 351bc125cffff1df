#ifndef AUXVIEW_STORAGE_UNDO_LOG_H_
#define AUXVIEW_STORAGE_UNDO_LOG_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "common/value.h"

namespace auxview {

class Database;
class Table;

/// Physical undo log for atomic transaction application.
///
/// While attached to a set of tables (ScopedUndo), every successful mutation
/// — a bag Apply or one pair of an in-place ModifyBatch — appends its net
/// effect as signed (row, count) entries. RollBack() replays the entries in
/// reverse with the sign flipped, restoring rows *and* hash indexes to the
/// exact pre-transaction state; it runs with page-I/O charging disabled (an
/// abort costs whatever the forward work cost, not double) and failpoints
/// suspended (rollback itself must be infallible).
///
/// Live size is exported as the `storage.undo_log_bytes` gauge; the
/// per-transaction peak is observed into the
/// `storage.undo_log_highwater_bytes` histogram each time a non-empty log
/// is consumed (Commit, RollBack or destruction).
class UndoLog {
 public:
  /// One recorded mutation: `count` (signed) copies of `row` applied to
  /// `table`. Sharded relations record against the sub-table that mutated,
  /// whose name() is the relation's.
  struct Entry {
    Table* table;
    Row row;
    int64_t count;  // the applied delta; undo applies -count
  };

  UndoLog();
  ~UndoLog();

  UndoLog(const UndoLog&) = delete;
  UndoLog& operator=(const UndoLog&) = delete;

  /// Appends the net effect of a successful Table mutation. Called by Table;
  /// no-op while a rollback is replaying.
  void RecordApply(Table* table, const Row& row, int64_t count);

  /// Snapshots the catalog's statistics so RollBack can restore optimizer
  /// state (stats + epoch) refreshed mid-transaction, not just table data.
  /// Called by ScopedUndo when given a mutable catalog.
  void SnapshotCatalog(Catalog* catalog);

  /// Undoes every recorded entry (newest first) and clears the log. Returns
  /// Internal if an undo application fails — which means the log no longer
  /// matches the table state, i.e. a bug, not a recoverable condition.
  Status RollBack();

  /// Forgets the recorded entries (the transaction committed).
  void Commit();

  /// Commit() that hands the recorded entries, oldest first, to the caller:
  /// the committed transaction's net physical changes, from which snapshot
  /// publication derives new table versions.
  std::vector<Entry> TakeCommitted();

  bool empty() const { return entries_.empty(); }
  int64_t entry_count() const { return static_cast<int64_t>(entries_.size()); }
  /// Approximate live heap footprint of the log.
  int64_t bytes() const { return bytes_; }

  /// Peak bytes() since the log was last consumed.
  int64_t highwater_bytes() const { return highwater_; }

 private:
  /// Flushes the pending high-water reading into the histogram (no-op for
  /// a log that recorded nothing since last consume).
  void ObserveHighwater();

  std::vector<Entry> entries_;
  Catalog* catalog_ = nullptr;
  std::optional<Catalog::StatsSnapshot> stats_snapshot_;
  int64_t bytes_ = 0;
  int64_t highwater_ = 0;
  bool rolling_back_ = false;
};

/// RAII guard attaching an undo log to every table of a database for one
/// transaction's scope. Detaches on destruction; the log's contents survive
/// so the caller decides between Commit() and RollBack(). When a catalog is
/// supplied, its statistics are snapshotted too, making RollBack restore
/// optimizer state alongside table data.
class ScopedUndo {
 public:
  ScopedUndo(Database* db, UndoLog* log, Catalog* catalog = nullptr);
  ~ScopedUndo();

  ScopedUndo(const ScopedUndo&) = delete;
  ScopedUndo& operator=(const ScopedUndo&) = delete;

 private:
  Database* db_;
};

}  // namespace auxview

#endif  // AUXVIEW_STORAGE_UNDO_LOG_H_
