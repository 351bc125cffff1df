#include "concurrency/delta_set.h"

#include "concurrency/snapshot.h"

namespace auxview {

void DeltaSet::Stage(const std::string& relation, const Row& row,
                     int64_t count) {
  deltas_[relation].Add(row, count);
  auto overlay = overlays_.find(relation);
  if (overlay != overlays_.end()) overlay->second->ApplyChange(row, count);
}

void DeltaSet::StageInsert(const std::string& relation, const Row& row,
                           int64_t count) {
  if (count == 0) return;
  Stage(relation, row, count);
  footprint_.AddWrite(relation, row);
}

void DeltaSet::StageDelete(const std::string& relation, const Row& row,
                           int64_t count) {
  if (count == 0) return;
  Stage(relation, row, -count);
  footprint_.AddWrite(relation, row);
}

void DeltaSet::StageModify(const std::string& relation, const Row& old_row,
                           const Row& new_row, int64_t count) {
  if (count == 0) return;
  Stage(relation, old_row, -count);
  Stage(relation, new_row, count);
  footprint_.AddWrite(relation, old_row);
  footprint_.AddWrite(relation, new_row);
}

int64_t DeltaSet::DeltaOf(const std::string& relation, const Row& row) const {
  auto it = deltas_.find(relation);
  return it == deltas_.end() ? 0 : it->second.CountOf(row);
}

bool DeltaSet::Touches(const std::string& relation) const {
  auto it = deltas_.find(relation);
  return it != deltas_.end() && !it->second.empty();
}

const Table* DeltaSet::OverlayTable(const std::string& relation,
                                    const Snapshot& snapshot) const {
  auto cached = overlays_.find(relation);
  if (cached != overlays_.end()) return cached->second.get();
  std::shared_ptr<const Table> base = snapshot.Version(relation);
  auto delta_it = deltas_.find(relation);
  if (delta_it == deltas_.end() || delta_it->second.empty()) return base.get();
  if (base == nullptr) return nullptr;  // post-Prepare relations always exist
  auto version = std::make_unique<TableVersion>(std::move(base));
  // The signed bag holds one net count per row, and staging guarantees every
  // net multiplicity is non-negative, so application order is free.
  for (const auto& [row, count] : delta_it->second.rows()) {
    version->ApplyChange(row, count);
  }
  const Table* out = version.get();
  overlays_.emplace(relation, std::move(version));
  return out;
}

ConcreteTxn DeltaSet::ToConcreteTxn() const {
  ConcreteTxn txn;
  for (const auto& [relation, delta] : deltas_) {
    if (delta.empty()) continue;
    TableUpdate update;
    update.relation = relation;
    for (const auto& [row, count] : delta.SortedRows()) {
      if (count > 0) {
        update.inserts.emplace_back(row, count);
      } else if (count < 0) {
        update.deletes.emplace_back(row, -count);
      }
    }
    if (!update.empty()) txn.updates.push_back(std::move(update));
  }
  return txn;
}

bool DeltaSet::empty() const {
  for (const auto& [relation, delta] : deltas_) {
    if (!delta.empty()) return false;
  }
  return true;
}

void DeltaSet::Clear() {
  deltas_.clear();
  footprint_.Clear();
  overlays_.clear();
}

}  // namespace auxview
