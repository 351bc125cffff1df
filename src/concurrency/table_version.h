#ifndef AUXVIEW_CONCURRENCY_TABLE_VERSION_H_
#define AUXVIEW_CONCURRENCY_TABLE_VERSION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "storage/table.h"

namespace auxview {

/// A read-only version of a stored relation: a shared, immutable base table
/// (a plain or sharded clone taken at the last fold) plus an overlay of the
/// rows whose multiplicity in this version differs from the base — the
/// catapult BaseSetDelta layering (SNIPPETS.md 1). Snapshot publication
/// derives each touched table's next version from the previous one in
/// O(overlay + delta) instead of cloning the table, and a writer's private
/// overlay is a version over its pinned snapshot (docs/CONCURRENCY.md,
/// "Snapshots").
///
/// Reads never hash base rows: base rows the overlay overrides are hidden by
/// the address of their node in the base's row map, so a scan costs one
/// pointer probe per base row on top of the row copy any scan pays. Index
/// probes go through the base's hash indexes and patch the result with the
/// overlay.
///
/// A version never charges modeled page I/O (snapshot and overlay reads are
/// bookkeeping, not the paper's cost model) and rejects every mutation
/// through the Table interface; only ApplyChange, used while the version is
/// still private to its builder, changes it.
class TableVersion : public Table {
 public:
  /// A version with the same contents as `prev` — a snapshot table (plain or
  /// sharded) or another TableVersion, whose base it shares and whose
  /// overlay it copies. `prev` must not be mutated while this version lives.
  explicit TableVersion(std::shared_ptr<const Table> prev);

  /// Adds `count` (signed) to `row`'s multiplicity in this version. The
  /// result must not go negative. Only for a version not yet shared with
  /// other threads (publication, a writer's staging).
  void ApplyChange(const Row& row, int64_t count);

  /// The shared base this version overlays.
  const Table& base() const { return *base_; }
  /// Rows this version's overlay holds (the rows a derived version copies).
  int64_t overlay_rows() const { return static_cast<int64_t>(overlay_.size()); }
  /// Overlay rows copied into this version and its ancestors since the base
  /// was folded — the rent side of the snapshot manager's fold rule.
  int64_t rows_copied_since_fold() const { return copied_since_fold_; }

  /// A flat, independent copy with this version's contents (no overlay).
  std::unique_ptr<Table> Clone(PageCounter* counter) const override;

  int64_t distinct_rows() const override { return distinct_; }
  int64_t row_count() const override { return total_; }

  /// Read-only: both fail with FailedPrecondition.
  Status Apply(const Row& row, int64_t count) override;
  Status ModifyBatch(const std::vector<std::pair<Row, Row>>& pairs) override;
  /// Versions never join a transaction's undo scope; ignored.
  void set_undo_log(UndoLog* log) override { (void)log; }

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

 private:
  using RowMap = std::unordered_map<Row, int64_t, RowHash, RowEq>;
  using BaseNode = RowMap::value_type;

  struct OverlayRow {
    /// This version's multiplicity (0 = removed).
    int64_t count = 0;
    /// The base's stored node for the row, nullptr when the base lacks it.
    const BaseNode* base = nullptr;
  };

  /// The base's node for `row` (nullptr when absent).
  const BaseNode* FindBaseNode(const Row& row) const;
  /// Flat copy of this version's contents charging `counter`.
  std::unique_ptr<Table> Flatten(PageCounter* counter) const;

  std::shared_ptr<const Table> base_;
  /// The base's row maps: one for a plain table, one per shard otherwise.
  std::vector<const RowMap*> parts_;
  std::unordered_map<Row, OverlayRow, RowHash, RowEq> overlay_;
  /// Base nodes the overlay overrides (scans skip them).
  std::unordered_set<const BaseNode*> hidden_;
  int64_t distinct_ = 0;
  int64_t total_ = 0;
  int64_t copied_since_fold_ = 0;
};

}  // namespace auxview

#endif  // AUXVIEW_CONCURRENCY_TABLE_VERSION_H_
