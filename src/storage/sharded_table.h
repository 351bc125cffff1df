#ifndef AUXVIEW_STORAGE_SHARDED_TABLE_H_
#define AUXVIEW_STORAGE_SHARDED_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "storage/table.h"

namespace auxview {

/// The shard a key row hashes to under `shard_count` shards. Shared by the
/// storage router and the delta engine's per-shard partitioning so "same
/// shard-key value" means "same shard index" everywhere in the process.
int ShardIndexFor(const Row& key, int shard_count);

/// A hash-sharded stored relation: N sub-tables (each a plain Table with the
/// same definition) behind the Table interface, rows routed by
/// hash(projection onto TableDef::shard_key) % N. Callers — the executor,
/// the delta engine, snapshots, the undo log — see one Table.
///
/// The hard invariant (docs/SHARDING.md, "Charge identity"): logical
/// contents, fingerprints and charged page I/O are bit-identical to the
/// unsharded table. Contents follow from deterministic routing; fingerprints
/// are composed from sub-shard state in the unsharded format; charges are
/// replicated at the router where per-shard delegation would diverge:
///
///  - Apply and bucket-local lookups (the resolved index covers the shard
///    key, so a probed bucket lives wholly in one shard) delegate charged to
///    one sub-table — identical cost by construction.
///  - Index lookups whose bucket spans shards fan out uncharged and the
///    router bills one index-page read per key plus the merged bucket's
///    tuple instances — what the single unsharded bucket would have cost.
///  - Scan-fallback lookups and ScanAll always fan out charged across every
///    shard: per-shard scans sum to exactly the whole-table scan (routing to
///    one shard would make sharded execution cheaper and break identity).
///  - A ModifyBatch whose old and new rows all land in one shard delegates
///    charged; a cross-shard batch replays the unsharded two-phase cost at
///    the router (one index read for the batch, an index write per changed
///    index projection, read+write per tuple) and moves rows through
///    uncharged sub-table applies (undo still recorded, so rollback works).
///
/// Per-relation metric attribution: sub-table charges land in
/// storage.rel.[<label>.]<name>.shard.<i>.* and the shard's
/// storage.[<label>.]shard.<i>.* counter scope; router-level charges land in
/// the parent-level storage.rel.[<label>.]<name>.*. Global storage.*
/// totals are identical to unsharded either way (PageCounter forwarding).
class ShardedTable : public Table {
 public:
  /// `shard_counters` must have one entry per shard and outlive the table;
  /// `parent_counter` is the database-level counter router charges go to.
  ShardedTable(TableDef def, PageCounter* parent_counter,
               const std::vector<PageCounter*>& shard_counters,
               const std::string& metric_scope = "");

  std::unique_ptr<Table> Clone(PageCounter* counter) const override;

  int shard_count() const { return static_cast<int>(shards_.size()); }
  const Table& shard(int i) const { return *shards_[i]; }

  /// The shard `row` (a full-arity table row) routes to.
  int ShardOf(const Row& row) const;

  int64_t distinct_rows() const override;
  int64_t row_count() const override;

  Status Apply(const Row& row, int64_t count) override;
  Status ModifyBatch(const std::vector<std::pair<Row, Row>>& pairs) override;
  int64_t CountOf(const Row& row) const override;
  std::vector<CountedRow> Lookup(const std::vector<std::string>& attrs,
                                 const Row& key) const override;
  std::vector<std::vector<CountedRow>> LookupBatch(
      const std::vector<std::string>& attrs,
      const std::vector<Row>& keys) const override;
  std::vector<std::vector<CountedRow>> LookupBatchUncharged(
      const std::vector<std::string>& attrs,
      const std::vector<Row>& keys) const override;
  std::vector<CountedRow> ScanAll() const override;
  void ForEachRow(
      const std::function<void(const Row&, int64_t)>& fn) const override;
  RelationStats ComputeStats() const override;
  std::string Fingerprint() const override;
  void set_undo_log(UndoLog* log) override;

 private:
  std::vector<std::vector<CountedRow>> LookupBatchImpl(
      const std::vector<std::string>& attrs, const std::vector<Row>& keys,
      bool charged) const;

  /// Schema positions of the shard-key attributes (TableDef::shard_key
  /// order).
  std::vector<int> shard_cols_;
  std::vector<std::unique_ptr<Table>> shards_;
};

}  // namespace auxview

#endif  // AUXVIEW_STORAGE_SHARDED_TABLE_H_
