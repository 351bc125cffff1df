#include "maintain/view_manager.h"

#include <algorithm>

#include "common/failpoint.h"
#include "exec/executor.h"
#include "obs/metrics.h"
#include "storage/undo_log.h"
#include "storage/wal/wal.h"

namespace auxview {

namespace {

/// Page I/Os charged during one maintenance pass, observed into `hist`
/// when the guard leaves scope (the paper's per-transaction cost unit).
class ScopedIoDelta {
 public:
  ScopedIoDelta(const PageCounter& counter, obs::Histogram* hist)
      : counter_(counter), hist_(hist), start_(counter.total()) {}
  ~ScopedIoDelta() {
    hist_->Observe(static_cast<double>(counter_.total() - start_));
  }

  ScopedIoDelta(const ScopedIoDelta&) = delete;
  ScopedIoDelta& operator=(const ScopedIoDelta&) = delete;

 private:
  const PageCounter& counter_;
  obs::Histogram* hist_;
  int64_t start_;
};

/// 1/2/5-per-decade bounds for per-transaction page-I/O histograms.
std::vector<double> PageIoBounds() {
  std::vector<double> bounds;
  for (double decade = 1; decade <= 1e6; decade *= 10) {
    bounds.push_back(decade);
    bounds.push_back(decade * 2);
    bounds.push_back(decade * 5);
  }
  return bounds;
}

}  // namespace

ViewManager::ViewManager(const Memo* memo, const Catalog* catalog,
                         Database* db, MaintainOptions options)
    : memo_(memo),
      catalog_(catalog),
      db_(db),
      options_(options),
      engine_(memo, catalog, db) {
  engine_.set_threads(options_.threads);
  engine_.set_adaptive_partitioning(options_.adaptive_partitioning);
}

namespace {

/// Drops attributes functionally determined by the rest (minimal cover).
std::vector<std::string> FdReduce(std::vector<std::string> attrs,
                                  FdAnalysis* fds, GroupId g) {
  for (size_t i = attrs.size(); i-- > 0 && attrs.size() > 1;) {
    std::set<std::string> rest;
    for (size_t j = 0; j < attrs.size(); ++j) {
      if (j != i) rest.insert(attrs[j]);
    }
    if (fds->Fds(g).Determines(rest, {attrs[i]})) {
      attrs.erase(attrs.begin() + static_cast<long>(i));
    }
  }
  return attrs;
}

}  // namespace

std::vector<std::string> ViewManager::ChooseIndexAttrs(const Memo& memo,
                                                       const Catalog& catalog,
                                                       GroupId g) {
  g = memo.Find(g);
  FdAnalysis fds(&memo, &catalog);
  // Prefer the attributes parent operation nodes probe this group by.
  for (int eid : memo.ParentExprsOf(g)) {
    const MemoExpr& e = memo.expr(eid);
    if (e.kind() == OpKind::kJoin) {
      return FdReduce(e.op->join_attrs(), &fds, g);
    }
  }
  for (int eid : memo.ParentExprsOf(g)) {
    const MemoExpr& e = memo.expr(eid);
    if (e.kind() == OpKind::kAggregate && !e.op->group_by().empty()) {
      return FdReduce(e.op->group_by(), &fds, g);
    }
  }
  // Fall back to the group's own grouping structure.
  for (int eid : memo.group(g).exprs) {
    const MemoExpr& e = memo.expr(eid);
    if (e.dead) continue;
    if (e.kind() == OpKind::kAggregate && !e.op->group_by().empty()) {
      return FdReduce(e.op->group_by(), &fds, g);
    }
    if (e.kind() == OpKind::kJoin) {
      return FdReduce(e.op->join_attrs(), &fds, g);
    }
  }
  if (memo.group(g).schema.num_columns() > 0) {
    return {memo.group(g).schema.column(0).name};
  }
  return {};
}

Status ViewManager::Materialize(const ViewSet& views) {
  static obs::Counter* materialized =
      obs::MetricsRegistry::Global().GetCounter(
          "maintain.views_materialized");
  views_.clear();
  for (GroupId g : views) views_.insert(memo_->Find(g));
  views_.insert(memo_->root());

  ScopedCountingDisabled guard(&db_->counter());
  Executor executor(db_);
  for (GroupId g : views_) {
    if (memo_->group(g).is_leaf) continue;
    AUXVIEW_ASSIGN_OR_RETURN(Expr::Ptr tree, memo_->ExtractOriginalTree(g));
    AUXVIEW_ASSIGN_OR_RETURN(Relation contents, executor.Execute(*tree));
    TableDef def;
    def.name = MaterializedViewName(g);
    def.schema = memo_->group(g).schema;
    std::vector<std::string> idx = ChooseIndexAttrs(*memo_, *catalog_, g);
    if (!idx.empty()) def.indexes.push_back(IndexDef{idx});
    index_attrs_[g] = idx;
    if (db_->HasTable(def.name)) {
      AUXVIEW_RETURN_IF_ERROR(db_->DropTable(def.name));
    }
    AUXVIEW_ASSIGN_OR_RETURN(Table * table, db_->CreateTable(std::move(def)));
    for (const auto& [row, count] : contents.rows()) {
      if (count < 0) {
        return Status::Internal("negative multiplicity when materializing");
      }
      AUXVIEW_RETURN_IF_ERROR(table->Insert(row, count));
    }
    materialized->Add(1);
  }
  return Status::Ok();
}

void ViewManager::DeclareAssertion(const std::string& name, GroupId g) {
  assertions_[memo_->Find(g)] = name;
}

Status ViewManager::CheckAssertionVerdict(
    const std::map<GroupId, Relation>& deltas) {
  static obs::Counter* aborted = obs::MetricsRegistry::Global().GetCounter(
      "maintain.txns_aborted_assertion");
  for (const auto& [g, name] : assertions_) {
    auto it = deltas.find(g);
    if (it == deltas.end() || it->second.empty()) continue;  // unaffected
    // Pre-update contents of the assertion view: a maintained view is a
    // free inspection (the paper's Section 4 point); an unmaterialized
    // assertion group answers from the cheapest plan, uncharged — the
    // verdict is bookkeeping, not track I/O.
    AUXVIEW_ASSIGN_OR_RETURN(Relation current, [&]() -> StatusOr<Relation> {
      if (views_.count(g) > 0) return ViewContents(g);
      ScopedCountingDisabled guard(&db_->counter());
      return engine_.FetchMatching(g, {}, {}, views_);
    }());
    Relation next = current;
    next.AddAll(it->second);  // zero-multiplicity rows drop out, so
                              // emptiness is exact
    if (!next.empty()) {
      aborted_assertion_ = name;
      aborted->Add(1);
      return Status::Aborted("assertion '" + name +
                             "' would be violated; transaction rejected");
    }
  }
  return Status::Ok();
}

Status ViewManager::CommitTransaction(
    const ConcreteTxn& txn, const std::map<GroupId, Relation>& deltas) {
  // Apply the staged deltas to the materialized views.
  const GroupId root = memo_->root();
  for (const TableUpdate& update : txn.updates) {
    if (!update.empty()) last_commit_tables_.push_back(update.relation);
  }
  for (GroupId g : views_) {
    if (memo_->group(g).is_leaf) continue;
    auto it = deltas.find(g);
    if (it == deltas.end() || it->second.empty()) continue;
    last_commit_tables_.push_back(MaterializedViewName(g));
    Table* table = db_->FindTable(MaterializedViewName(g));
    if (table == nullptr) {
      return Status::Internal("materialized view table missing for N" +
                              std::to_string(g));
    }
    AUXVIEW_FAILPOINT("maintain.apply_view_delta");
    const bool charge = g != root || options_.charge_root_update;
    if (charge) {
      AUXVIEW_RETURN_IF_ERROR(
          ApplyDeltaToTable(table, it->second, index_attrs_[g]));
    } else {
      ScopedCountingDisabled guard(&db_->counter());
      AUXVIEW_RETURN_IF_ERROR(
          ApplyDeltaToTable(table, it->second, index_attrs_[g]));
    }
  }

  // Apply the base-relation updates.
  ScopedCountingDisabled base_guard(&db_->counter());
  if (options_.charge_base_updates) db_->counter().set_enabled(true);
  for (const TableUpdate& update : txn.updates) {
    Table* table = db_->FindTable(update.relation);
    if (table == nullptr) {
      return Status::NotFound("updated base table missing: " +
                              update.relation);
    }
    AUXVIEW_FAILPOINT("maintain.apply_base");
    for (const auto& [row, count] : update.inserts) {
      AUXVIEW_RETURN_IF_ERROR(table->Insert(row, count));
    }
    for (const auto& [row, count] : update.deletes) {
      AUXVIEW_RETURN_IF_ERROR(table->Delete(row, count));
    }
    // One batch, not per-pair calls: a pair's new row may equal another
    // pair's old row (an UPDATE chain), which only the batch's two-phase
    // application keeps order-independent.
    AUXVIEW_RETURN_IF_ERROR(table->ModifyBatch(update.modifies));
  }
  return Status::Ok();
}

Status ViewManager::ApplyTransaction(const ConcreteTxn& txn,
                                     const TransactionType& type,
                                     const UpdateTrack& track,
                                     std::vector<UndoLog::Entry>* changes) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  static obs::Counter* txns = reg.GetCounter("maintain.txns_applied");
  static obs::Counter* rollbacks = reg.GetCounter("maintain.txns_rolled_back");
  static obs::Histogram* io_hist =
      reg.GetHistogram("maintain.txn_page_ios", PageIoBounds());
  static obs::Histogram* timing = reg.GetHistogram("maintain.apply_txn_us");
  txns->Add(1);
  obs::ScopedTimer timer(timing);
  ScopedIoDelta io_delta(db_->counter(), io_hist);
  aborted_assertion_.clear();
  last_commit_tables_.clear();

  // Phase 1 (compute): every delta query and the assertion verdict run
  // against the pre-update state. Nothing has been mutated, so a failure
  // anywhere in this phase aborts with no cleanup.
  AUXVIEW_ASSIGN_OR_RETURN(auto deltas,
                           engine_.ComputeDeltas(txn, type, track, views_));
  AUXVIEW_RETURN_IF_ERROR(CheckAssertionVerdict(deltas));

  // Write-ahead: the transaction's deltas reach the durable log before any
  // in-memory attach, so a crash after this point replays it. Skipped while
  // recovery itself is replaying (the record already exists).
  WriteAheadLog* wal = db_->wal();
  uint64_t lsn = 0;
  if (wal != nullptr && !wal->replaying()) {
    AUXVIEW_ASSIGN_OR_RETURN(lsn, wal->AppendTxn(txn));
  }

  // Phase 2 (commit): all-or-nothing. Every table mutation records its net
  // effect in the undo log; a mid-commit failure (injected fault, missing
  // table, negative multiplicity) rolls everything back, leaving tables
  // and indexes bit-identical to the pre-transaction state.
  UndoLog undo;
  Status committed;
  {
    ScopedUndo undo_scope(db_, &undo, mutable_catalog_);
    committed = CommitTransaction(txn, deltas);
  }
  if (!committed.ok()) {
    rollbacks->Add(1);
    last_commit_tables_.clear();
    AUXVIEW_RETURN_IF_ERROR(undo.RollBack());
    // Compensate the already-durable record. Best-effort: if even the abort
    // append fails, recovery would replay a transaction whose effects
    // memory lost — the same state a crash-before-rollback leaves, and one
    // recovery is defined to reconstruct.
    if (lsn != 0) (void)wal->AppendAbort(lsn);
    return committed;
  }
  if (changes != nullptr) {
    *changes = undo.TakeCommitted();
  } else {
    undo.Commit();
  }
  return Status::Ok();
}

Status ViewManager::ApplyTransactionByRecompute(const ConcreteTxn& txn,
                                                const TransactionType& type) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  static obs::Counter* txns = reg.GetCounter("maintain.txns_recomputed");
  static obs::Histogram* io_hist =
      reg.GetHistogram("maintain.recompute_page_ios", PageIoBounds());
  static obs::Histogram* timing =
      reg.GetHistogram("maintain.recompute_txn_us");
  txns->Add(1);
  obs::ScopedTimer timer(timing);
  ScopedIoDelta io_delta(db_->counter(), io_hist);
  aborted_assertion_.clear();
  last_commit_tables_.clear();
  // Write-ahead, as in ApplyTransaction.
  WriteAheadLog* wal = db_->wal();
  uint64_t lsn = 0;
  if (wal != nullptr && !wal->replaying()) {
    AUXVIEW_ASSIGN_OR_RETURN(lsn, wal->AppendTxn(txn));
  }
  // Unlike the staged path, the baseline mutates before it knows the
  // assertion verdict, so the whole mutating body runs under the undo log
  // and an assertion violation (or injected fault) rolls everything back.
  UndoLog undo;
  Status committed;
  {
    ScopedUndo undo_scope(db_, &undo, mutable_catalog_);
    committed = [&]() -> Status {
      // 1. Apply the base updates (uncharged, as in ApplyTransaction).
      {
        ScopedCountingDisabled guard(&db_->counter());
        if (options_.charge_base_updates) db_->counter().set_enabled(true);
        for (const TableUpdate& update : txn.updates) {
          Table* table = db_->FindTable(update.relation);
          if (table == nullptr) {
            return Status::NotFound("updated base table missing: " +
                                    update.relation);
          }
          if (!update.empty()) last_commit_tables_.push_back(update.relation);
          AUXVIEW_FAILPOINT("maintain.apply_base");
          for (const auto& [row, count] : update.inserts) {
            AUXVIEW_RETURN_IF_ERROR(table->Insert(row, count));
          }
          for (const auto& [row, count] : update.deletes) {
            AUXVIEW_RETURN_IF_ERROR(table->Delete(row, count));
          }
          AUXVIEW_RETURN_IF_ERROR(table->ModifyBatch(update.modifies));
        }
      }

      // 2. Recompute every affected view with charged reads and writes. The
      //    base tables just changed, so cached fetches are stale.
      engine_.ClearFetchCache();
      StatsAnalysis stats(memo_, catalog_);
      DeltaAnalysis analysis(memo_, catalog_, &stats);
      const std::set<GroupId> affected = analysis.AffectedGroups(type);
      const GroupId root = memo_->root();
      for (GroupId g : views_) {
        if (memo_->group(g).is_leaf || affected.count(g) == 0) continue;
        const bool charge = g != root || options_.charge_root_update;
        // Read through the DAG with only base relations available: the cost
        // of evaluating the view as a query.
        AUXVIEW_ASSIGN_OR_RETURN(Relation contents,
                                 [&]() -> StatusOr<Relation> {
          if (!charge) {
            ScopedCountingDisabled guard(&db_->counter());
            return engine_.FetchMatching(g, {}, {}, {});
          }
          return engine_.FetchMatching(g, {}, {}, {});
        }());
        Table* table = db_->FindTable(MaterializedViewName(g));
        if (table == nullptr) {
          return Status::Internal("materialized view table missing for N" +
                                  std::to_string(g));
        }
        last_commit_tables_.push_back(MaterializedViewName(g));
        AUXVIEW_FAILPOINT("maintain.apply_view_delta");
        // Rewrite the table in place.
        ScopedCountingDisabled guard(&db_->counter());
        if (charge) db_->counter().set_enabled(true);
        for (const CountedRow& cr : table->SnapshotUncharged()) {
          AUXVIEW_RETURN_IF_ERROR(table->Delete(cr.row, cr.count));
        }
        for (const auto& [row, count] : contents.rows()) {
          if (count < 0) return Status::Internal("negative recomputed count");
          AUXVIEW_RETURN_IF_ERROR(table->Insert(row, count));
        }
      }

      // 3. Post-recompute assertion verdict.
      return CheckAssertionViewsEmpty();
    }();
  }
  if (!committed.ok()) {
    last_commit_tables_.clear();
    AUXVIEW_RETURN_IF_ERROR(undo.RollBack());
    // Rolled-back views are current again, but cached fetches taken between
    // the base update and the rollback are not.
    engine_.ClearFetchCache();
    if (lsn != 0) (void)wal->AppendAbort(lsn);  // best-effort compensation
    return committed;
  }
  undo.Commit();
  return Status::Ok();
}

Status ViewManager::CheckAssertionViewsEmpty() {
  static obs::Counter* aborted = obs::MetricsRegistry::Global().GetCounter(
      "maintain.txns_aborted_assertion");
  for (const auto& [g, name] : assertions_) {
    AUXVIEW_ASSIGN_OR_RETURN(Relation contents, [&]() -> StatusOr<Relation> {
      if (views_.count(g) > 0) return ViewContents(g);
      ScopedCountingDisabled guard(&db_->counter());
      return engine_.FetchMatching(g, {}, {}, views_);
    }());
    if (!contents.empty()) {
      aborted_assertion_ = name;
      aborted->Add(1);
      return Status::Aborted("assertion '" + name +
                             "' would be violated; transaction rejected");
    }
  }
  return Status::Ok();
}

const Table* ViewManager::ViewTable(GroupId g) const {
  return db_->FindTable(MaterializedViewName(memo_->Find(g)));
}

StatusOr<Relation> ViewManager::ViewContents(GroupId g) const {
  const Table* table = ViewTable(g);
  if (table == nullptr) {
    return Status::NotFound("group not materialized: N" +
                            std::to_string(memo_->Find(g)));
  }
  Relation out(table->schema());
  for (const CountedRow& cr : table->SnapshotUncharged()) {
    out.Add(cr.row, cr.count);
  }
  return out;
}

Status ViewManager::CheckConsistency() const {
  ScopedCountingDisabled guard(&db_->counter());
  Executor executor(db_);
  for (GroupId g : views_) {
    if (memo_->group(g).is_leaf) continue;
    AUXVIEW_ASSIGN_OR_RETURN(Expr::Ptr tree, memo_->ExtractOriginalTree(g));
    AUXVIEW_ASSIGN_OR_RETURN(Relation expected, executor.Execute(*tree));
    AUXVIEW_ASSIGN_OR_RETURN(Relation actual, ViewContents(g));
    if (!expected.BagEquals(actual)) {
      return Status::FailedPrecondition(
          "maintained view N" + std::to_string(g) +
          " diverged from recomputation.\nexpected:\n" + expected.ToString() +
          "actual:\n" + actual.ToString());
    }
  }
  return Status::Ok();
}

}  // namespace auxview
