#include "api/dml_util.h"

#include <algorithm>
#include <map>

#include "obs/metrics.h"

namespace auxview {
namespace dml {

StatusOr<Scalar::Ptr> ToTableScalar(const SqlExpr::Ptr& e,
                                    const std::string& table,
                                    const Schema& schema) {
  switch (e->kind) {
    case SqlExpr::Kind::kColumn:
      if (!e->qualifier.empty() && e->qualifier != table) {
        return Status::InvalidArgument("unknown qualifier: " + e->qualifier);
      }
      if (!schema.Contains(e->name)) {
        return Status::InvalidArgument("unknown column: " + e->name);
      }
      return Scalar::Column(e->name);
    case SqlExpr::Kind::kLiteral:
      return Scalar::Literal(e->literal);
    case SqlExpr::Kind::kUnaryNot: {
      AUXVIEW_ASSIGN_OR_RETURN(Scalar::Ptr inner,
                               ToTableScalar(e->args[0], table, schema));
      return Scalar::Not(inner);
    }
    case SqlExpr::Kind::kBinary: {
      AUXVIEW_ASSIGN_OR_RETURN(Scalar::Ptr l,
                               ToTableScalar(e->args[0], table, schema));
      AUXVIEW_ASSIGN_OR_RETURN(Scalar::Ptr r,
                               ToTableScalar(e->args[1], table, schema));
      static const std::map<std::string, ScalarOp> kOps = {
          {"+", ScalarOp::kAdd}, {"-", ScalarOp::kSub},
          {"*", ScalarOp::kMul}, {"/", ScalarOp::kDiv},
          {"=", ScalarOp::kEq},  {"<>", ScalarOp::kNe},
          {"<", ScalarOp::kLt},  {"<=", ScalarOp::kLe},
          {">", ScalarOp::kGt},  {">=", ScalarOp::kGe},
          {"AND", ScalarOp::kAnd}, {"OR", ScalarOp::kOr}};
      auto it = kOps.find(e->op);
      if (it == kOps.end()) {
        return Status::InvalidArgument("unsupported operator: " + e->op);
      }
      return Scalar::Binary(it->second, l, r);
    }
    case SqlExpr::Kind::kFuncCall:
      return Status::InvalidArgument("aggregates not allowed in DML");
  }
  return Status::Internal("unhandled SqlExpr");
}

StatusOr<Value> EvalConstant(const SqlExpr::Ptr& e) {
  static const Schema kEmpty;
  AUXVIEW_ASSIGN_OR_RETURN(Scalar::Ptr scalar, ToTableScalar(e, "", kEmpty));
  static const Row kNoRow;
  return scalar->Eval(kNoRow, kEmpty);
}

StatusOr<Value> Coerce(const Value& v, ValueType type,
                       const std::string& col) {
  if (v.is_null() || v.type() == type) return v;
  if (type == ValueType::kDouble && v.type() == ValueType::kInt64) {
    return Value::Double(static_cast<double>(v.int64()));
  }
  if (type == ValueType::kInt64 && v.type() == ValueType::kDouble &&
      v.dbl() == static_cast<double>(static_cast<int64_t>(v.dbl()))) {
    return Value::Int64(static_cast<int64_t>(v.dbl()));
  }
  return Status::InvalidArgument("type mismatch for column " + col + ": " +
                                 v.ToString());
}

namespace {

/// The (column index, coerced value) of a `column = literal` comparison,
/// either way round; nullopt for any other shape, an unknown column, or a
/// literal the column's type cannot hold.
std::optional<std::pair<int, Value>> ColumnEquality(const SqlExpr::Ptr& e,
                                                    const Schema& schema) {
  if (e->kind != SqlExpr::Kind::kBinary || e->op != "=") return std::nullopt;
  const SqlExpr::Ptr* column = nullptr;
  const SqlExpr::Ptr* literal = nullptr;
  if (e->args[0]->kind == SqlExpr::Kind::kColumn &&
      e->args[1]->kind == SqlExpr::Kind::kLiteral) {
    column = &e->args[0];
    literal = &e->args[1];
  } else if (e->args[1]->kind == SqlExpr::Kind::kColumn &&
             e->args[0]->kind == SqlExpr::Kind::kLiteral) {
    column = &e->args[1];
    literal = &e->args[0];
  } else {
    return std::nullopt;
  }
  const int idx = schema.IndexOf((*column)->name);
  if (idx < 0) return std::nullopt;
  StatusOr<Value> coerced =
      Coerce((*literal)->literal, schema.column(idx).type, (*column)->name);
  if (!coerced.ok()) return std::nullopt;
  return std::make_pair(idx, *std::move(coerced));
}

bool IsAnd(const SqlExpr::Ptr& e) {
  return e->kind == SqlExpr::Kind::kBinary && e->op == "AND";
}

bool CollectEqualities(const SqlExpr::Ptr& e, const Schema& schema,
                       std::vector<std::pair<int, Value>>* out) {
  if (IsAnd(e)) {
    return CollectEqualities(e->args[0], schema, out) &&
           CollectEqualities(e->args[1], schema, out);
  }
  std::optional<std::pair<int, Value>> eq = ColumnEquality(e, schema);
  if (!eq.has_value()) return false;
  out->push_back(*std::move(eq));
  return true;
}

/// The equalities among the top-level AND conjuncts of `e` as an index-probe
/// key — one per column; other conjuncts are left to the residual predicate.
void CollectProbeKey(const SqlExpr::Ptr& e, const Schema& schema,
                     std::vector<std::string>* attrs, Row* key) {
  if (IsAnd(e)) {
    CollectProbeKey(e->args[0], schema, attrs, key);
    CollectProbeKey(e->args[1], schema, attrs, key);
    return;
  }
  std::optional<std::pair<int, Value>> eq = ColumnEquality(e, schema);
  if (!eq.has_value()) return;
  const std::string& name = schema.column(eq->first).name;
  if (std::find(attrs->begin(), attrs->end(), name) != attrs->end()) return;
  attrs->push_back(name);
  key->push_back(std::move(eq->second));
}

}  // namespace

StatusOr<std::vector<CountedRow>> MatchingRows(const Table& table,
                                               const SqlExpr::Ptr& where) {
  static obs::Counter* scanned =
      obs::MetricsRegistry::Global().GetCounter("api.dml.rows_scanned");
  Scalar::Ptr pred;
  std::vector<CountedRow> candidates;
  if (where != nullptr) {
    AUXVIEW_ASSIGN_OR_RETURN(
        pred, ToTableScalar(where, table.name(), table.schema()));
    std::vector<std::string> attrs;
    Row key;
    CollectProbeKey(where, table.schema(), &attrs, &key);
    if (!attrs.empty() && table.HasIndexOn(attrs)) {
      candidates = std::move(table.LookupBatchUncharged(attrs, {key}).front());
    } else {
      candidates = table.SnapshotUncharged();
    }
  } else {
    candidates = table.SnapshotUncharged();
  }
  scanned->Add(static_cast<int64_t>(candidates.size()));
  std::vector<CountedRow> out;
  for (CountedRow& cr : candidates) {
    if (pred != nullptr) {
      AUXVIEW_ASSIGN_OR_RETURN(Value v, pred->Eval(cr.row, table.schema()));
      if (v.is_null() || !v.boolean()) continue;
    }
    out.push_back(std::move(cr));
  }
  return out;
}

std::optional<std::vector<std::pair<int, Value>>> ExtractEqualities(
    const SqlExpr::Ptr& where, const Schema& schema) {
  if (where == nullptr) return std::nullopt;
  std::vector<std::pair<int, Value>> out;
  if (!CollectEqualities(where, schema, &out)) return std::nullopt;
  return out;
}

}  // namespace dml
}  // namespace auxview
