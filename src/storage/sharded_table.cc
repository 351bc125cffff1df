#include "storage/sharded_table.h"

#include <algorithm>
#include <iterator>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "common/failpoint.h"

namespace auxview {

int ShardIndexFor(const Row& key, int shard_count) {
  AUXVIEW_CHECK(shard_count > 0);
  return static_cast<int>(HashRow(key) % static_cast<size_t>(shard_count));
}

ShardedTable::ShardedTable(TableDef def, PageCounter* parent_counter,
                           const std::vector<PageCounter*>& shard_counters,
                           const std::string& metric_scope)
    : Table(std::move(def), parent_counter, metric_scope) {
  AUXVIEW_CHECK_MSG(!shard_counters.empty(),
                    "sharded table needs at least one shard counter");
  AUXVIEW_CHECK_MSG(!this->def().shard_key.empty(),
                    ("sharded table without a shard key: " + name()).c_str());
  for (const std::string& a : this->def().shard_key) {
    const int col = schema().IndexOf(a);
    AUXVIEW_CHECK_MSG(col >= 0,
                      ("shard key attr missing from schema: " + a).c_str());
    shard_cols_.push_back(col);
  }
  shards_.reserve(shard_counters.size());
  for (size_t i = 0; i < shard_counters.size(); ++i) {
    shards_.push_back(std::make_unique<Table>(this->def(), shard_counters[i],
                                              metric_scope,
                                              "shard." + std::to_string(i)));
  }
}

std::unique_ptr<Table> ShardedTable::Clone(PageCounter* counter) const {
  // Clones serve snapshot reads behind a (typically disabled) counter of
  // their own, so sub-tables charge `counter` directly instead of scoped
  // children. Metric names re-resolve to the same registry counters
  // (GetCounter is idempotent) and stay silent while the counter is off.
  std::vector<PageCounter*> sub_counters(shards_.size(), counter);
  auto clone = std::make_unique<ShardedTable>(def(), counter, sub_counters,
                                              metric_scope_);
  for (size_t i = 0; i < shards_.size(); ++i) {
    const Table& src = *shards_[i];
    Table& dst = *clone->shards_[i];
    dst.rows_ = src.rows_;
    dst.total_count_ = src.total_count_;
    dst.indexes_ = src.indexes_;
  }
  return clone;
}

int ShardedTable::ShardOf(const Row& row) const {
  Row key;
  key.reserve(shard_cols_.size());
  for (int col : shard_cols_) key.push_back(row[static_cast<size_t>(col)]);
  return ShardIndexFor(key, shard_count());
}

int64_t ShardedTable::distinct_rows() const {
  // Equal rows always route to the same shard, so per-shard distinct counts
  // partition the table's distinct rows.
  int64_t n = 0;
  for (const auto& shard : shards_) n += shard->distinct_rows();
  return n;
}

int64_t ShardedTable::row_count() const {
  int64_t n = 0;
  for (const auto& shard : shards_) n += shard->row_count();
  return n;
}

Status ShardedTable::Apply(const Row& row, int64_t count) {
  if (count == 0) return Status::Ok();
  if (static_cast<int>(row.size()) != schema().num_columns()) {
    // The unsharded table reports this before touching anything; ShardOf
    // would index out of bounds, so guard here with the identical error.
    return Status::InvalidArgument("row arity mismatch for table " + name());
  }
  // Single-shard delegation: the sub-table charges and records undo exactly
  // like the unsharded table would.
  return shards_[ShardOf(row)]->Apply(row, count);
}

Status ShardedTable::ModifyBatch(
    const std::vector<std::pair<Row, Row>>& pairs) {
  if (pairs.empty()) return Status::Ok();
  const int cols = schema().num_columns();
  // If every old and new row lives in one shard, the whole batch delegates
  // charged — per-tuple and per-index costs are identical by construction.
  bool single = true;
  int target = -1;
  for (const auto& [old_row, new_row] : pairs) {
    if (static_cast<int>(old_row.size()) != cols ||
        static_cast<int>(new_row.size()) != cols) {
      // Arity-mismatched rows surface as the unsharded NotFound on the
      // global path below.
      single = false;
      break;
    }
    const int so = ShardOf(old_row);
    const int sn = ShardOf(new_row);
    if (target == -1) target = so;
    if (so != target || sn != target) {
      single = false;
      break;
    }
  }
  if (single) return shards_[target]->ModifyBatch(pairs);

  // Cross-shard batch: replay the unsharded two-phase modify at the router.
  // Charges and batch-level failpoints fire here exactly as the unsharded
  // table fires them; rows move through uncharged sub-table applies, which
  // still record undo so a mid-batch fault rolls back precisely.
  AUXVIEW_FAILPOINT("storage.table.modify_batch");
  ChargeIndexRead(static_cast<int64_t>(indexes_.size()));
  RowEq eq;
  for (const IndexState& idx : indexes_) {
    for (const auto& [old_row, new_row] : pairs) {
      if (static_cast<int>(old_row.size()) != cols ||
          static_cast<int>(new_row.size()) != cols) {
        continue;
      }
      if (!eq(ProjectKey(idx, old_row), ProjectKey(idx, new_row))) {
        ChargeIndexWrite(1);
        break;
      }
    }
  }
  // Two phases, as in Table::ModifyBatch: detach every old row at its
  // pre-batch multiplicity, then attach every new row — UPDATE chains
  // (27->28, 28->29) stay order-independent even when the chain hops shards.
  std::vector<int64_t> counts(pairs.size());
  std::vector<int> new_shard(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    AUXVIEW_FAILPOINT("storage.table.modify_pair");
    const Row& old_row = pairs[i].first;
    const Row& new_row = pairs[i].second;
    if (static_cast<int>(old_row.size()) != cols ||
        static_cast<int>(new_row.size()) != cols) {
      // An arity-mismatched row cannot be stored anywhere.
      return Status::NotFound("modify of absent row in " + name() + ": " +
                              RowToString(old_row));
    }
    Table& src = *shards_[ShardOf(old_row)];
    counts[i] = src.CountOf(old_row);
    if (counts[i] == 0) {
      return Status::NotFound("modify of absent row in " + name() + ": " +
                              RowToString(old_row));
    }
    new_shard[i] = ShardOf(new_row);
    ChargeTupleRead(counts[i]);
    ChargeTupleWrite(counts[i]);
    Status s = src.ApplyInternal(old_row, -counts[i], /*charged=*/false);
    if (!s.ok()) return s;
  }
  for (size_t i = 0; i < pairs.size(); ++i) {
    Status s = shards_[static_cast<size_t>(new_shard[i])]->ApplyInternal(
        pairs[i].second, counts[i], /*charged=*/false);
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

int64_t ShardedTable::CountOf(const Row& row) const {
  if (static_cast<int>(row.size()) != schema().num_columns()) return 0;
  return shards_[ShardOf(row)]->CountOf(row);
}

std::vector<std::vector<CountedRow>> ShardedTable::LookupBatchImpl(
    const std::vector<std::string>& attrs, const std::vector<Row>& keys,
    bool charged) const {
  std::vector<std::vector<CountedRow>> out;
  out.reserve(keys.size());
  if (keys.empty()) return out;
  // Resolve against the (row-less) base: sub-tables share the def, so index
  // choice, key reordering and residual filters are identical everywhere.
  const ResolvedProbe router_probe = ResolveProbe(attrs);
  std::vector<ResolvedProbe> sub_probes;
  sub_probes.reserve(shards_.size());
  for (const auto& shard : shards_) {
    sub_probes.push_back(shard->ResolveProbe(attrs));
  }

  // Rule A — bucket-local index probe. When the chosen index's attributes
  // cover the shard key, every row of a probed bucket shares the shard-key
  // value, so the whole bucket (including residual-filtered rows the cost
  // model still bills) lives in one shard: delegate charged. Note that the
  // shard key merely appearing among the probe attrs is NOT enough — a
  // bucket keyed on fewer attributes spans shards and its scan cost must
  // cover all of them.
  if (router_probe.index != nullptr) {
    const std::vector<std::string>& index_attrs = router_probe.index->attrs;
    bool bucket_local = true;
    for (const std::string& a : def().shard_key) {
      if (std::find(index_attrs.begin(), index_attrs.end(), a) ==
          index_attrs.end()) {
        bucket_local = false;
        break;
      }
    }
    if (bucket_local) {
      std::vector<int> shard_key_pos;  // probe-key slot per shard-key attr
      shard_key_pos.reserve(def().shard_key.size());
      for (const std::string& a : def().shard_key) {
        auto it = std::find(attrs.begin(), attrs.end(), a);
        AUXVIEW_CHECK(it != attrs.end());  // index attrs ⊆ probe attrs
        shard_key_pos.push_back(static_cast<int>(it - attrs.begin()));
      }
      Row key_proj(shard_key_pos.size());
      for (const Row& key : keys) {
        for (size_t i = 0; i < shard_key_pos.size(); ++i) {
          key_proj[i] = key[static_cast<size_t>(shard_key_pos[i])];
        }
        const size_t s = static_cast<size_t>(
            ShardIndexFor(key_proj, shard_count()));
        out.push_back(shards_[s]->ProbeOnce(sub_probes[s], key, charged));
      }
      return out;
    }
    // Rule B — the bucket spans shards: probe every shard uncharged and
    // bill at the router what the single unsharded bucket would have cost —
    // one index-page read per key plus the merged bucket's tuple instances.
    for (const Row& key : keys) {
      std::vector<CountedRow> merged;
      int64_t scanned = 0;
      for (size_t s = 0; s < shards_.size(); ++s) {
        std::vector<CountedRow> part = shards_[s]->ProbeOnce(
            sub_probes[s], key, /*charged=*/false, &scanned);
        merged.insert(merged.end(), std::make_move_iterator(part.begin()),
                      std::make_move_iterator(part.end()));
      }
      if (charged) {
        ChargeIndexRead(1);
        ChargeTupleRead(scanned);
      }
      out.push_back(std::move(merged));
    }
    return out;
  }

  // Rule C — scan fallback: always fan out charged across every shard; the
  // per-shard scans sum to exactly the whole-table scan. Routing a
  // shard-key-covering probe to one shard here would make sharded execution
  // cheaper than unsharded and break charge identity.
  for (const Row& key : keys) {
    std::vector<CountedRow> merged;
    for (size_t s = 0; s < shards_.size(); ++s) {
      std::vector<CountedRow> part =
          shards_[s]->ProbeOnce(sub_probes[s], key, charged);
      merged.insert(merged.end(), std::make_move_iterator(part.begin()),
                    std::make_move_iterator(part.end()));
    }
    out.push_back(std::move(merged));
  }
  return out;
}

std::vector<CountedRow> ShardedTable::Lookup(
    const std::vector<std::string>& attrs, const Row& key) const {
  return std::move(LookupBatchImpl(attrs, {key}, /*charged=*/true).front());
}

std::vector<std::vector<CountedRow>> ShardedTable::LookupBatch(
    const std::vector<std::string>& attrs,
    const std::vector<Row>& keys) const {
  return LookupBatchImpl(attrs, keys, /*charged=*/true);
}

std::vector<std::vector<CountedRow>> ShardedTable::LookupBatchUncharged(
    const std::vector<std::string>& attrs,
    const std::vector<Row>& keys) const {
  return LookupBatchImpl(attrs, keys, /*charged=*/false);
}

std::vector<CountedRow> ShardedTable::ScanAll() const {
  std::vector<CountedRow> out;
  out.reserve(static_cast<size_t>(distinct_rows()));
  for (const auto& shard : shards_) {
    std::vector<CountedRow> part = shard->ScanAll();
    out.insert(out.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
  }
  return out;
}

void ShardedTable::ForEachRow(
    const std::function<void(const Row&, int64_t)>& fn) const {
  for (const auto& shard : shards_) shard->ForEachRow(fn);
}

RelationStats ShardedTable::ComputeStats() const {
  RelationStats stats;
  stats.row_count = static_cast<double>(row_count());
  for (int c = 0; c < schema().num_columns(); ++c) {
    std::unordered_map<Row, int, RowHash, RowEq> seen;
    for (const auto& shard : shards_) {
      for (const auto& [row, count] : shard->rows_) {
        (void)count;
        seen.try_emplace(Row{row[static_cast<size_t>(c)]}, 1);
      }
    }
    stats.distinct[schema().column(c).name] = static_cast<double>(seen.size());
  }
  return stats;
}

std::string ShardedTable::Fingerprint() const {
  // Composed from sub-shard state in the exact unsharded format — building a
  // merged temporary table would fire apply failpoints and charge I/O.
  std::vector<std::string> lines;
  int64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->total_count_;
    for (const auto& [row, count] : shard->rows_) {
      lines.push_back("row " + RowToString(row) + " x" +
                      std::to_string(count));
    }
  }
  std::sort(lines.begin(), lines.end());
  std::string out =
      "table " + name() + " total=" + std::to_string(total) + "\n";
  for (const std::string& line : lines) out += line + "\n";
  for (size_t i = 0; i < indexes_.size(); ++i) {
    std::unordered_map<Row, std::vector<std::string>, RowHash, RowEq> merged;
    for (const auto& shard : shards_) {
      for (const auto& [key, rows] : shard->indexes_[i].map) {
        auto& members = merged[key];
        for (const Row& r : rows) members.push_back(RowToString(r));
      }
    }
    std::vector<std::string> buckets;
    buckets.reserve(merged.size());
    for (auto& [key, members] : merged) {
      std::sort(members.begin(), members.end());
      std::string bucket = "  " + RowToString(key) + " ->";
      for (const std::string& m : members) bucket += " " + m;
      buckets.push_back(std::move(bucket));
    }
    std::sort(buckets.begin(), buckets.end());
    std::string attrs;
    for (const std::string& a : indexes_[i].attrs) attrs += a + ",";
    out += "index (" + attrs + ")\n";
    for (const std::string& b : buckets) out += b + "\n";
  }
  return out;
}

void ShardedTable::set_undo_log(UndoLog* log) {
  // The undo log records mutations against the sub-table that performed
  // them, so rollback replays into the right shard without routing again.
  Table::set_undo_log(log);
  for (auto& shard : shards_) shard->set_undo_log(log);
}

}  // namespace auxview
