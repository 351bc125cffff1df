#ifndef AUXVIEW_API_DML_UTIL_H_
#define AUXVIEW_API_DML_UTIL_H_

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "algebra/scalar.h"
#include "catalog/schema.h"
#include "common/status.h"
#include "common/value.h"
#include "parser/ast.h"
#include "storage/table.h"

namespace auxview {
namespace dml {

/// Converts a SQL expression over one table's columns to a Scalar
/// (qualifiers must match the table name when present).
StatusOr<Scalar::Ptr> ToTableScalar(const SqlExpr::Ptr& e,
                                    const std::string& table,
                                    const Schema& schema);

/// Evaluates a column-free expression (literal / arithmetic).
StatusOr<Value> EvalConstant(const SqlExpr::Ptr& e);

/// Coerces a value to a column type where lossless (int -> double).
StatusOr<Value> Coerce(const Value& v, ValueType type, const std::string& col);

/// Rows of `table` matching a WHERE predicate (nullptr = all rows), with
/// their multiplicities. When the predicate's top-level AND conjuncts
/// include `column = literal` comparisons (coerced as in ExtractEqualities)
/// that a hash index covers, only the rows one index probe returns are
/// evaluated; otherwise every row is. The full predicate decides either way.
/// Reads are uncharged — base-table DML is outside the paper's cost model —
/// and work identically against a live table, a snapshot version and a
/// writer's overlay. Evaluated rows count in `api.dml.rows_scanned`.
StatusOr<std::vector<CountedRow>> MatchingRows(const Table& table,
                                               const SqlExpr::Ptr& where);

/// If `where` is a conjunction of `column = constant` equalities over
/// `schema`, the (column index, coerced value) pairs — the key-read form a
/// writer records in its footprint so only matching later commits conflict.
/// nullopt for any other shape (callers fall back to a whole-relation read).
std::optional<std::vector<std::pair<int, Value>>> ExtractEqualities(
    const SqlExpr::Ptr& where, const Schema& schema);

}  // namespace dml
}  // namespace auxview

#endif  // AUXVIEW_API_DML_UTIL_H_
