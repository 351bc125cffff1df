#include "exec/executor.h"

#include <map>

#include "common/check.h"
#include "exec/kernels/kernels.h"
#include "obs/metrics.h"

namespace auxview {

namespace {

/// Per-operator executor metrics: exec.ops.<op> counts evaluations,
/// exec.rows_out.<op> counts result multiplicity. Handles are resolved once
/// per operator kind. (The kernel layer keeps its own exec.kernel.* metrics;
/// these count tree-node evaluations, which include Scan.)
void RecordOperator(OpKind kind, const RowBatch& result) {
  struct OpMetrics {
    obs::Counter* ops;
    obs::Counter* rows_out;
  };
  static const std::map<OpKind, OpMetrics>* metrics = [] {
    auto* m = new std::map<OpKind, OpMetrics>();
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    for (OpKind k : {OpKind::kScan, OpKind::kSelect, OpKind::kProject,
                     OpKind::kJoin, OpKind::kAggregate, OpKind::kDupElim}) {
      const std::string name = OpKindName(k);
      (*m)[k] = OpMetrics{reg.GetCounter("exec.ops." + name),
                          reg.GetCounter("exec.rows_out." + name)};
    }
    return m;
  }();
  const OpMetrics& om = metrics->at(kind);
  om.ops->Add(1);
  om.rows_out->Add(result.total_count());
}

}  // namespace

StatusOr<RowBatch> Executor::ScanBatch(const Expr& expr) const {
  const Table* table = db_->ResolveTable(expr.table());
  if (table == nullptr) {
    return Status::NotFound("scan of missing table: " + expr.table());
  }
  if (!(table->schema() == expr.output_schema())) {
    return Status::FailedPrecondition("schema mismatch for table " +
                                      expr.table());
  }
  RowBatch out(expr.output_schema());
  out.Reserve(table->distinct_rows());
  table->ForEachRow(
      [&](const Row& row, int64_t count) { out.Append(row, count); });
  return out;
}

StatusOr<RowBatch> Executor::ExecuteBatch(const Expr& expr) const {
  StatusOr<RowBatch> result = [&]() -> StatusOr<RowBatch> {
    switch (expr.kind()) {
      case OpKind::kScan:
        return ScanBatch(expr);
      case OpKind::kJoin: {
        AUXVIEW_ASSIGN_OR_RETURN(RowBatch left, ExecuteBatch(*expr.child(0)));
        AUXVIEW_ASSIGN_OR_RETURN(RowBatch right, ExecuteBatch(*expr.child(1)));
        return kernels::HashJoin(expr, left, right);
      }
      case OpKind::kSelect:
      case OpKind::kProject:
      case OpKind::kAggregate:
      case OpKind::kDupElim: {
        AUXVIEW_ASSIGN_OR_RETURN(RowBatch in, ExecuteBatch(*expr.child(0)));
        return kernels::ApplyUnary(expr, in);
      }
    }
    return Status::Internal("unhandled op kind in executor");
  }();
  if (result.ok()) RecordOperator(expr.kind(), *result);
  return result;
}

StatusOr<Relation> Executor::Execute(const Expr& expr) const {
  AUXVIEW_ASSIGN_OR_RETURN(RowBatch batch, ExecuteBatch(expr));
  return batch.ToRelation();
}

}  // namespace auxview
