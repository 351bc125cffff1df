#include "storage/undo_log.h"

#include "common/failpoint.h"
#include "storage/database.h"
#include "storage/table.h"

namespace auxview {

namespace {

obs::Gauge* UndoBytesGauge() {
  static obs::Gauge* gauge =
      obs::MetricsRegistry::Global().GetGauge("storage.undo_log_bytes");
  return gauge;
}

/// Per-transaction peak log size, observed once per consumed log (Commit,
/// RollBack or destruction) — the distribution answers "how much undo state
/// does a transaction hold at worst", which the live gauge cannot.
obs::Histogram* UndoHighwaterHist() {
  static obs::Histogram* hist = obs::MetricsRegistry::Global().GetHistogram(
      "storage.undo_log_highwater_bytes",
      {64, 256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304});
  return hist;
}

int64_t RowBytes(const Row& row) {
  int64_t bytes = static_cast<int64_t>(row.size() * sizeof(Value));
  for (const Value& v : row) {
    if (v.type() == ValueType::kString) {
      bytes += static_cast<int64_t>(v.str().size());
    }
  }
  return bytes;
}

}  // namespace

UndoLog::UndoLog() = default;

UndoLog::~UndoLog() {
  // A destroyed log zeroes its share of the gauge even if the owner forgot
  // to Commit (the entries die with it either way).
  if (bytes_ != 0) {
    UndoBytesGauge()->Add(-bytes_);
  }
  ObserveHighwater();
}

void UndoLog::RecordApply(Table* table, const Row& row, int64_t count) {
  if (rolling_back_ || count == 0) return;
  entries_.push_back(Entry{table, row, count});
  const int64_t delta = static_cast<int64_t>(sizeof(Entry)) + RowBytes(row);
  bytes_ += delta;
  if (bytes_ > highwater_) highwater_ = bytes_;
  UndoBytesGauge()->Add(delta);
}

void UndoLog::ObserveHighwater() {
  // Only logs that recorded something contribute: a read-only transaction
  // holding an (empty) log is not an interesting zero observation.
  if (highwater_ > 0) {
    UndoHighwaterHist()->Observe(static_cast<double>(highwater_));
    highwater_ = 0;
  }
}

void UndoLog::SnapshotCatalog(Catalog* catalog) {
  if (catalog == nullptr || catalog_ != nullptr) return;
  catalog_ = catalog;
  stats_snapshot_ = catalog->SnapshotStats();
}

Status UndoLog::RollBack() {
  // Rollback must be unconditional: no fault injection, no I/O charging
  // (the paper's counters account the forward work; an abort does not pay
  // twice), no re-recording into this same log.
  FailpointSuspension no_faults;
  rolling_back_ = true;
  Status first_error;
  for (size_t i = entries_.size(); i-- > 0;) {
    const Entry& e = entries_[i];
    ScopedCountingDisabled guard(e.table->counter());
    Status st = e.table->Apply(e.row, -e.count);
    if (!st.ok() && first_error.ok()) {
      first_error = Status::Internal("undo log replay failed on " +
                                     e.table->name() + ": " + st.ToString());
    }
  }
  rolling_back_ = false;
  // Group-level rollback of optimizer state: stat refreshes made inside the
  // transaction must not survive its abort (a cheap epoch check keeps the
  // common no-refresh abort free of map copies).
  if (stats_snapshot_.has_value() &&
      catalog_->stats_epoch() != stats_snapshot_->epoch) {
    catalog_->RestoreStats(*stats_snapshot_);
  }
  Commit();  // the entries are consumed either way
  return first_error;
}

void UndoLog::Commit() {
  entries_.clear();
  catalog_ = nullptr;
  stats_snapshot_.reset();
  if (bytes_ != 0) {
    UndoBytesGauge()->Add(-bytes_);
    bytes_ = 0;
  }
  ObserveHighwater();
}

std::vector<UndoLog::Entry> UndoLog::TakeCommitted() {
  std::vector<Entry> committed = std::move(entries_);
  entries_.clear();
  Commit();
  return committed;
}

ScopedUndo::ScopedUndo(Database* db, UndoLog* log, Catalog* catalog)
    : db_(db) {
  for (const std::string& name : db_->TableNames()) {
    db_->FindTable(name)->set_undo_log(log);
  }
  if (log != nullptr) log->SnapshotCatalog(catalog);
}

ScopedUndo::~ScopedUndo() {
  for (const std::string& name : db_->TableNames()) {
    db_->FindTable(name)->set_undo_log(nullptr);
  }
}

}  // namespace auxview
