#ifndef AUXVIEW_CONCURRENCY_DELTA_SET_H_
#define AUXVIEW_CONCURRENCY_DELTA_SET_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/value.h"
#include "concurrency/table_version.h"
#include "exec/relation.h"
#include "maintain/concrete.h"
#include "storage/table.h"

namespace auxview {

class Snapshot;

/// One unit of a writer's read footprint: either a whole-relation scan or a
/// conjunction of column = value equalities (an index-key read). Validation
/// tests it against the rows later commits wrote.
struct ReadPredicate {
  std::string relation;
  /// Column index -> value the writer's read filtered on. Empty means the
  /// whole relation was read (any write to it conflicts).
  std::vector<std::pair<int, Value>> equalities;

  bool Matches(const Row& row) const {
    for (const auto& [col, value] : equalities) {
      if (col < 0 || static_cast<size_t>(col) >= row.size()) return false;
      if (row[static_cast<size_t>(col)].Compare(value) != 0) return false;
    }
    return true;  // vacuously true for a whole-relation read
  }
};

/// The key footprint commit validation works on: every row this writer
/// writes (inserted rows, deleted rows, and both halves of each modify) and
/// every predicate its statement-building reads evaluated.
struct TxnFootprint {
  using RowSet = std::unordered_set<Row, RowHash, RowEq>;
  std::map<std::string, RowSet> writes;
  std::vector<ReadPredicate> reads;

  void AddWrite(const std::string& relation, const Row& row) {
    writes[relation].insert(row);
  }
  void AddScanRead(const std::string& relation) {
    reads.push_back(ReadPredicate{relation, {}});
  }
  void AddKeyRead(const std::string& relation,
                  std::vector<std::pair<int, Value>> equalities) {
    reads.push_back(ReadPredicate{relation, std::move(equalities)});
  }

  bool empty() const { return writes.empty() && reads.empty(); }
  void Clear() {
    writes.clear();
    reads.clear();
  }
};

/// A writer's private overlay: per relation, a signed bag of staged changes
/// relative to the pinned snapshot (positive = copies this transaction
/// inserts, negative = snapshot copies it removes; an update stages both
/// halves). Reads through the writer see snapshot ∪ this delta; nothing is
/// visible to other sessions until commit merges the set into one
/// ConcreteTxn and funnels it through the maintained pipeline.
///
/// Overlay reads go through a TableVersion over the snapshot's version of
/// the relation (src/concurrency/table_version.h), built on the first read
/// after the relation is staged — O(snapshot overlay + staged rows), never a
/// table copy — and then kept current by every later Stage* call in O(1),
/// so a k-row statement that reads and stages k times pays for one build
/// (the catapult BaseSetDelta layering, SNIPPETS.md 1 & 3).
class DeltaSet {
 public:
  /// Stages `count` copies of `row` into `relation`.
  void StageInsert(const std::string& relation, const Row& row,
                   int64_t count = 1);

  /// Stages removal of `count` copies (the caller guarantees the overlay
  /// holds at least that many, i.e. the row was read through the overlay).
  void StageDelete(const std::string& relation, const Row& row,
                   int64_t count = 1);

  /// Stages an update of `count` copies of `old_row` into `new_row` —
  /// sugar for delete(old) + insert(new), with both rows entering the write
  /// footprint.
  void StageModify(const std::string& relation, const Row& old_row,
                   const Row& new_row, int64_t count = 1);

  /// Signed staged multiplicity of `row` in `relation` (0 when untouched).
  int64_t DeltaOf(const std::string& relation, const Row& row) const;

  /// True when this set stages any change to `relation`.
  bool Touches(const std::string& relation) const;

  /// The merged read version of `relation`: the snapshot version with this
  /// set's staged delta applied. Returns the snapshot version for untouched
  /// relations; nullptr when the relation exists in neither. `snapshot` must
  /// be the same between Clear() calls; the returned table stays valid (and
  /// follows later staging) until Clear().
  const Table* OverlayTable(const std::string& relation,
                            const Snapshot& snapshot) const;

  /// Folds the staged overlays into one concrete transaction: per relation,
  /// negative rows become deletes and positive rows inserts. Relations in
  /// deterministic (name) order; rows in deterministic (sorted) order.
  ConcreteTxn ToConcreteTxn() const;

  TxnFootprint& footprint() { return footprint_; }
  const TxnFootprint& footprint() const { return footprint_; }

  bool empty() const;
  void Clear();

 private:
  /// Adds a staged change to the relation's signed bag and, once built, to
  /// its overlay version.
  void Stage(const std::string& relation, const Row& row, int64_t count);

  /// relation -> signed row bag (Relation reused as the signed-bag type).
  std::map<std::string, Relation> deltas_;
  TxnFootprint footprint_;
  /// Overlay versions built by OverlayTable, kept in step by Stage.
  mutable std::map<std::string, std::unique_ptr<TableVersion>> overlays_;
};

}  // namespace auxview

#endif  // AUXVIEW_CONCURRENCY_DELTA_SET_H_
