#include "concurrency/table_version.h"

#include <algorithm>

#include "common/check.h"
#include "storage/sharded_table.h"

namespace auxview {

TableVersion::TableVersion(std::shared_ptr<const Table> prev)
    : Table(prev->def(), prev->counter(), prev->metric_scope_,
            prev->metric_suffix_) {
  if (const auto* version = dynamic_cast<const TableVersion*>(prev.get())) {
    base_ = version->base_;
    parts_ = version->parts_;
    overlay_ = version->overlay_;
    hidden_ = version->hidden_;
    distinct_ = version->distinct_;
    total_ = version->total_;
    copied_since_fold_ = version->copied_since_fold_ + version->overlay_rows();
    return;
  }
  if (const auto* sharded = dynamic_cast<const ShardedTable*>(prev.get())) {
    for (int i = 0; i < sharded->shard_count(); ++i) {
      parts_.push_back(&sharded->shard(i).rows_);
    }
  } else {
    parts_.push_back(&prev->rows_);
  }
  distinct_ = prev->distinct_rows();
  total_ = prev->row_count();
  base_ = std::move(prev);
}

const TableVersion::BaseNode* TableVersion::FindBaseNode(const Row& row) const {
  for (const RowMap* part : parts_) {
    auto it = part->find(row);
    if (it != part->end()) return &*it;
  }
  return nullptr;
}

void TableVersion::ApplyChange(const Row& row, int64_t count) {
  if (count == 0) return;
  auto it = overlay_.find(row);
  if (it == overlay_.end()) {
    const BaseNode* node = FindBaseNode(row);
    it = overlay_.emplace(row, OverlayRow{node ? node->second : 0, node}).first;
    if (node != nullptr) hidden_.insert(node);
  }
  OverlayRow& entry = it->second;
  const int64_t next = entry.count + count;
  AUXVIEW_CHECK_MSG(next >= 0, ("table version multiplicity would go negative "
                                "in " + name() + " for row " +
                                RowToString(row)).c_str());
  if (entry.count == 0 && next > 0) ++distinct_;
  if (entry.count > 0 && next == 0) --distinct_;
  total_ += count;
  entry.count = next;
  // A row back at its base multiplicity needs no overlay entry.
  if (next == (entry.base != nullptr ? entry.base->second : 0)) {
    if (entry.base != nullptr) hidden_.erase(entry.base);
    overlay_.erase(it);
  }
}

std::unique_ptr<Table> TableVersion::Flatten(PageCounter* counter) const {
  auto flat =
      std::make_unique<Table>(def(), counter, metric_scope_, metric_suffix_);
  ForEachRow([&](const Row& row, int64_t count) {
    flat->rows_.emplace(row, count);
    flat->IndexInsert(row);
  });
  flat->total_count_ = total_;
  return flat;
}

std::unique_ptr<Table> TableVersion::Clone(PageCounter* counter) const {
  return Flatten(counter);
}

Status TableVersion::Apply(const Row& row, int64_t count) {
  (void)row;
  (void)count;
  return Status::FailedPrecondition("table version of " + name() +
                                    " is read-only");
}

Status TableVersion::ModifyBatch(
    const std::vector<std::pair<Row, Row>>& pairs) {
  (void)pairs;
  return Status::FailedPrecondition("table version of " + name() +
                                    " is read-only");
}

int64_t TableVersion::CountOf(const Row& row) const {
  auto it = overlay_.find(row);
  return it != overlay_.end() ? it->second.count : base_->CountOf(row);
}

std::vector<CountedRow> TableVersion::Lookup(
    const std::vector<std::string>& attrs, const Row& key) const {
  return LookupBatchUncharged(attrs, {key}).front();
}

std::vector<std::vector<CountedRow>> TableVersion::LookupBatch(
    const std::vector<std::string>& attrs,
    const std::vector<Row>& keys) const {
  return LookupBatchUncharged(attrs, keys);
}

std::vector<std::vector<CountedRow>> TableVersion::LookupBatchUncharged(
    const std::vector<std::string>& attrs,
    const std::vector<Row>& keys) const {
  std::vector<std::vector<CountedRow>> out =
      base_->LookupBatchUncharged(attrs, keys);
  if (overlay_.empty()) return out;
  std::vector<size_t> cols;
  cols.reserve(attrs.size());
  for (const std::string& a : attrs) {
    const int col = schema().IndexOf(a);
    AUXVIEW_CHECK_MSG(col >= 0, ("lookup attr missing: " + a).c_str());
    cols.push_back(static_cast<size_t>(col));
  }
  for (size_t k = 0; k < keys.size(); ++k) {
    std::vector<CountedRow>& rows = out[k];
    // The overlay's multiplicity replaces the base's for every row it holds.
    rows.erase(std::remove_if(rows.begin(), rows.end(),
                              [&](const CountedRow& cr) {
                                return overlay_.count(cr.row) > 0;
                              }),
               rows.end());
    for (const auto& [row, entry] : overlay_) {
      if (entry.count == 0) continue;
      bool match = true;
      for (size_t i = 0; i < cols.size() && match; ++i) {
        match = row[cols[i]] == keys[k][i];
      }
      if (match) rows.push_back(CountedRow{row, entry.count});
    }
  }
  return out;
}

std::vector<CountedRow> TableVersion::ScanAll() const {
  return SnapshotUncharged();
}

void TableVersion::ForEachRow(
    const std::function<void(const Row&, int64_t)>& fn) const {
  for (const RowMap* part : parts_) {
    for (const BaseNode& node : *part) {
      if (!hidden_.empty() && hidden_.count(&node) > 0) continue;
      fn(node.first, node.second);
    }
  }
  for (const auto& [row, entry] : overlay_) {
    if (entry.count > 0) fn(row, entry.count);
  }
}

RelationStats TableVersion::ComputeStats() const {
  return Flatten(counter())->ComputeStats();
}

std::string TableVersion::Fingerprint() const {
  // The flat copy's fingerprint is in the plain-table format, which is also
  // what a sharded live table prints — so versions compare equal to their
  // live table whatever its layout.
  return Flatten(counter())->Fingerprint();
}

}  // namespace auxview
