#include "concurrency/controller.h"

#include <utility>

#include "obs/metrics.h"

namespace auxview {

namespace {

obs::Counter* CommitsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("concurrency.commits");
  return c;
}

obs::Counter* ConflictsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("concurrency.conflicts");
  return c;
}

/// The write footprint of an already-built concrete transaction (the serial
/// path has no DeltaSet): every inserted row, deleted row, and both halves
/// of each modify.
std::map<std::string, TxnFootprint::RowSet> WritesOf(const ConcreteTxn& txn) {
  std::map<std::string, TxnFootprint::RowSet> writes;
  for (const TableUpdate& u : txn.updates) {
    TxnFootprint::RowSet& rows = writes[u.relation];
    for (const auto& [row, count] : u.inserts) rows.insert(row);
    for (const auto& [row, count] : u.deletes) rows.insert(row);
    for (const auto& [old_row, new_row] : u.modifies) {
      rows.insert(old_row);
      rows.insert(new_row);
    }
  }
  return writes;
}

}  // namespace

ConcurrencyController::ConcurrencyController(
    const Catalog* catalog, Database* db, ViewManager* manager,
    std::vector<TransactionType> workload, TrackFn track_fn)
    : catalog_(catalog),
      db_(db),
      manager_(manager),
      workload_(std::move(workload)),
      track_fn_(std::move(track_fn)) {
  snapshots_.PublishAll(*db_);
}

StatusOr<CommitOutcome> ConcurrencyController::Commit(
    const DeltaSet& delta, uint64_t snapshot_epoch) {
  std::lock_guard<std::mutex> lock(commit_mu_);
  if (std::optional<std::string> conflict =
          tracker_.Validate(delta.footprint(), snapshot_epoch)) {
    ConflictsCounter()->Add(1);
    return CommitOutcome{CommitOutcome::Kind::kConflict,
                         snapshots_.current_epoch(), *std::move(conflict)};
  }
  ConcreteTxn txn = delta.ToConcreteTxn();
  if (txn.updates.empty()) {
    // A read-only transaction that validated clean: nothing to apply or
    // publish, and nothing for later writers to conflict with.
    CommitsCounter()->Add(1);
    return CommitOutcome{CommitOutcome::Kind::kCommitted,
                         snapshots_.current_epoch(), ""};
  }
  const TransactionType type = DeriveTransactionType(txn, workload_, *catalog_);
  txn.type_name = type.name;
  AUXVIEW_ASSIGN_OR_RETURN(UpdateTrack track, track_fn_(type));
  return ApplyAndPublish(txn, type, track, delta.footprint().writes);
}

StatusOr<CommitOutcome> ConcurrencyController::CommitSerialLocked(
    const ConcreteTxn& txn, const TransactionType& type,
    const UpdateTrack& track) {
  return ApplyAndPublish(txn, type, track, WritesOf(txn));
}

StatusOr<CommitOutcome> ConcurrencyController::ApplyAndPublish(
    const ConcreteTxn& txn, const TransactionType& type,
    const UpdateTrack& track,
    const std::map<std::string, TxnFootprint::RowSet>& writes) {
  std::vector<UndoLog::Entry> changes;
  const Status applied =
      manager_->ApplyTransaction(txn, type, track, &changes);
  if (!applied.ok()) {
    if (applied.code() == StatusCode::kAborted &&
        !manager_->aborted_assertion().empty()) {
      return CommitOutcome{CommitOutcome::Kind::kRejected,
                           snapshots_.current_epoch(),
                           manager_->aborted_assertion()};
    }
    return applied;  // injected fault or genuine error — rolled back
  }
  const uint64_t epoch = snapshots_.Publish(*db_, changes);
  tracker_.RecordCommit(epoch, writes, manager_->last_commit_tables());
  tracker_.PruneThrough(snapshots_.MinPinnedEpoch());
  CommitsCounter()->Add(1);
  return CommitOutcome{CommitOutcome::Kind::kCommitted, epoch, ""};
}

}  // namespace auxview
