#include "delta/transaction.h"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <utility>

#include "catalog/catalog.h"
#include "common/string_util.h"
#include "maintain/concrete.h"

namespace auxview {

const char* UpdateKindName(UpdateKind kind) {
  switch (kind) {
    case UpdateKind::kInsert:
      return "insert";
    case UpdateKind::kDelete:
      return "delete";
    case UpdateKind::kModify:
      return "modify";
  }
  return "?";
}

const UpdateSpec* TransactionType::SpecFor(const std::string& relation) const {
  for (const UpdateSpec& spec : updates) {
    if (spec.relation == relation) return &spec;
  }
  return nullptr;
}

std::string TransactionType::ToString() const {
  std::string out = name + " (weight " + std::to_string(weight) + "):";
  for (const UpdateSpec& spec : updates) {
    out += " " + std::string(UpdateKindName(spec.kind)) + " " +
           std::to_string(spec.count) + " of " + spec.relation;
    if (!spec.modified_attrs.empty()) {
      out += " [" + Join(spec.modified_attrs, ",") + "]";
    }
  }
  return out;
}

TransactionType SingleModifyTxn(std::string name, std::string relation,
                                std::vector<std::string> modified_attrs,
                                double weight, double count) {
  TransactionType txn;
  txn.name = std::move(name);
  txn.weight = weight;
  UpdateSpec spec;
  spec.relation = std::move(relation);
  spec.kind = UpdateKind::kModify;
  spec.count = count;
  spec.modified_attrs = std::move(modified_attrs);
  txn.updates.push_back(std::move(spec));
  return txn;
}

namespace {

/// The deletes and inserts of `update` as old -> new pairs when they match
/// one-to-one on `def`'s primary key with equal multiplicities — the shape a
/// TxnSession UPDATE commits in (its staged delta is a signed bag, so the
/// statement's modifies arrive as delete + insert). nullopt otherwise.
std::optional<std::vector<std::pair<Row, Row>>> PairByPrimaryKey(
    const TableUpdate& update, const TableDef& def) {
  if (def.primary_key.empty() ||
      update.deletes.size() != update.inserts.size()) {
    return std::nullopt;
  }
  std::vector<int> key_cols;
  for (const std::string& a : def.primary_key) {
    key_cols.push_back(def.schema.IndexOf(a));
  }
  const auto key_of = [&](const Row& row) {
    Row key;
    for (int col : key_cols) key.push_back(row[static_cast<size_t>(col)]);
    return key;
  };
  std::unordered_map<Row, const std::pair<Row, int64_t>*, RowHash, RowEq> old;
  for (const auto& del : update.deletes) {
    if (!old.emplace(key_of(del.first), &del).second) return std::nullopt;
  }
  std::vector<std::pair<Row, Row>> pairs;
  for (const auto& [row, count] : update.inserts) {
    auto it = old.find(key_of(row));
    if (it == old.end() || it->second->second != count) return std::nullopt;
    pairs.emplace_back(it->second->first, row);
    old.erase(it);
  }
  return pairs;
}

}  // namespace

TransactionType DeriveTransactionType(
    const ConcreteTxn& txn, const std::vector<TransactionType>& declared,
    const Catalog& catalog) {
  for (const TransactionType& type : declared) {
    if (type.name == txn.type_name) return type;
  }
  TransactionType derived;
  derived.name = txn.type_name;
  for (const TableUpdate& update : txn.updates) {
    if (update.empty()) continue;
    UpdateSpec spec;
    spec.relation = update.relation;
    const TableDef* def = catalog.FindTable(update.relation);
    std::optional<std::vector<std::pair<Row, Row>>> paired;
    if (update.modifies.empty() && !update.deletes.empty() && def != nullptr) {
      paired = PairByPrimaryKey(update, *def);
    }
    const std::vector<std::pair<Row, Row>>& modifies =
        paired.has_value() ? *paired : update.modifies;
    if (!modifies.empty()) {
      spec.kind = UpdateKind::kModify;
      spec.count = static_cast<double>(modifies.size());
      // The changed attributes are whatever differs across any pair.
      if (def != nullptr) {
        const auto& columns = def->schema.columns();
        std::vector<bool> changed(columns.size(), false);
        for (const auto& [old_row, new_row] : modifies) {
          for (size_t i = 0;
               i < columns.size() && i < old_row.size() && i < new_row.size();
               ++i) {
            if (!(old_row[i] == new_row[i])) changed[i] = true;
          }
        }
        for (size_t i = 0; i < columns.size(); ++i) {
          if (changed[i]) spec.modified_attrs.push_back(columns[i].name);
        }
      }
    } else if (update.deletes.empty()) {
      spec.kind = UpdateKind::kInsert;
      spec.count = static_cast<double>(update.inserts.size());
    } else {
      // Unpaired deletes, possibly with inserts: any delete can empty an
      // aggregate group or lower a MIN/MAX, so the update must be planned
      // as a delete — as an insert, SUM groups would self-maintain past
      // emptiness.
      spec.kind = UpdateKind::kDelete;
      spec.count = static_cast<double>(update.deletes.size() +
                                       update.inserts.size());
    }
    derived.updates.push_back(std::move(spec));
  }
  return derived;
}

}  // namespace auxview
