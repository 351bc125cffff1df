// Differential test of DML row matching (dml::MatchingRows): the same
// UPDATE / DELETE runs against T, whose key and secondary indexes let the
// WHERE clause's `column = literal` conjuncts probe, and against U, an
// index-free twin holding the same rows, which always scans. Through both
// the serial Session and a TxnSession the two tables must end as the same
// bag with the same affected counts, and `api.dml.rows_scanned` shows which
// path each side took.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/session.h"
#include "api/txn_session.h"
#include "obs/metrics.h"

namespace auxview {
namespace {

constexpr char kDdl[] = R"sql(
CREATE TABLE T (K INT PRIMARY KEY, G STRING, X DOUBLE, Y INT,
                INDEX (G), INDEX (X));
CREATE TABLE U (K INT, G STRING, X DOUBLE, Y INT);
CREATE VIEW TByY (Y, S) AS SELECT Y, SUM(K) FROM T GROUPBY Y;
CREATE VIEW UByY (Y, S) AS SELECT Y, SUM(K) FROM U GROUPBY Y;
)sql";

constexpr int kRows = 30;

/// Row i: G is NULL for every 7th row, else one of three groups.
std::string RowValues(int i) {
  const std::string g =
      i % 7 == 0 ? "NULL" : "'g" + std::to_string(i % 3) + "'";
  return "(" + std::to_string(i) + ", " + g + ", " + std::to_string(i % 5) +
         ".0, " + std::to_string(i % 4) + ")";
}

struct Case {
  std::string where;
  /// Rows T's side evaluates the predicate on: the index probe's
  /// candidates, or kRows for a scan.
  int64_t t_scanned;
  /// Rows the predicate matches.
  int64_t matches;
};

const std::vector<Case>& Cases() {
  static const std::vector<Case> cases = {
      // Key equality, alone and with a residual range.
      {"K = 5", 1, 1},
      {"K = 6 AND Y > 1", 1, 1},
      {"Y >= 1 AND K = 4", 1, 0},
      // Equality on a column no index covers: a scan on both sides.
      {"Y = 3", kRows, 7},
      // A multi-column conjunction probes G's index; the probe's residual
      // filter on Y leaves 2 of the bucket's 8 rows as candidates.
      {"G = 'g1' AND Y = 2", 2, 2},
      // NULL never equals anything, though G's index holds NULL keys.
      {"G = NULL", 5, 0},
      // An INT literal on a DOUBLE column is coerced and probes X's index.
      {"X = 2", 6, 6},
      // Literals the column cannot hold fall back to a scan.
      {"Y = 'abc'", kRows, 0},
      {"K = 2.5", kRows, 0},
      {"K = 2.0", 1, 1},
      // OR predicates scan.
      {"K = 1 OR K = 2", kRows, 2},
      // Nothing matches.
      {"K = 999", 0, 0},
      {"K = 3 AND K = 4", 1, 0},
  };
  return cases;
}

std::unique_ptr<Session> MakeSession(bool concurrent) {
  auto session = std::make_unique<Session>();
  EXPECT_TRUE(session->Execute(kDdl).ok());
  std::string values;
  for (int i = 0; i < kRows; ++i) {
    values += (i == 0 ? "" : ", ") + RowValues(i);
  }
  EXPECT_TRUE(session->Execute("INSERT INTO T VALUES " + values + ";").ok());
  EXPECT_TRUE(session->Execute("INSERT INTO U VALUES " + values + ";").ok());
  EXPECT_TRUE(session->Prepare().ok());
  if (concurrent) {
    EXPECT_TRUE(session->EnableConcurrency().ok());
  }
  return session;
}

int64_t Scanned() {
  return obs::MetricsRegistry::Global()
      .GetCounter("api.dml.rows_scanned")
      ->value();
}

/// Sorted (row text, multiplicity) pairs of a SELECT result.
std::vector<std::pair<std::string, int64_t>> Bag(const ExecResult& result) {
  std::vector<std::pair<std::string, int64_t>> out;
  for (const auto& [row, count] : result.rows->rows()) {
    out.emplace_back(RowToString(row), count);
  }
  std::sort(out.begin(), out.end());
  return out;
}

enum class Mode { kSerial, kTxnSession };

class DmlMatchingTest : public ::testing::TestWithParam<Mode> {
 protected:
  /// On a fresh session, runs `sql_for(table)` on T then U and checks
  /// affected counts, rows scanned per side, and that the two tables still
  /// hold the same bag (before and after a TxnSession commits).
  void RunOnBoth(const std::string& label,
                 const std::function<std::string(const std::string&)>& sql_for,
                 const Case& c) {
    SCOPED_TRACE(label + " WHERE " + c.where);
    std::unique_ptr<Session> session =
        MakeSession(GetParam() == Mode::kTxnSession);
    std::unique_ptr<TxnSession> txn;
    if (GetParam() == Mode::kTxnSession) {
      auto opened = session->OpenSession();
      ASSERT_TRUE(opened.ok());
      txn = std::move(opened).value();
    }
    const auto run = [&](const std::string& sql) {
      return txn != nullptr ? txn->Execute(sql) : session->Execute(sql);
    };
    int64_t before = Scanned();
    auto t = run(sql_for("T"));
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    const int64_t t_scanned = Scanned() - before;
    before = Scanned();
    auto u = run(sql_for("U"));
    ASSERT_TRUE(u.ok()) << u.status().ToString();
    const int64_t u_scanned = Scanned() - before;

    EXPECT_EQ(t->affected, c.matches);
    EXPECT_EQ(u->affected, c.matches);
    EXPECT_EQ(t_scanned, c.t_scanned);
    EXPECT_EQ(u_scanned, kRows);
    const auto same_bags = [&]() {
      auto t_rows = run("SELECT K, G, X, Y FROM T;");
      auto u_rows = run("SELECT K, G, X, Y FROM U;");
      ASSERT_TRUE(t_rows.ok() && u_rows.ok());
      EXPECT_EQ(Bag(*t_rows), Bag(*u_rows));
    };
    same_bags();  // a TxnSession reads its own staged overlay here
    if (txn != nullptr) {
      auto outcome = txn->Commit();
      ASSERT_TRUE(outcome.ok() && outcome->committed());
      same_bags();
    }
    EXPECT_TRUE(session->CheckConsistency().ok());
  }
};

TEST_P(DmlMatchingTest, UpdateMatchesLikeAScan) {
  for (const Case& c : Cases()) {
    RunOnBoth(
        "UPDATE",
        [&](const std::string& table) {
          return "UPDATE " + table + " SET Y = Y + 100 WHERE " + c.where + ";";
        },
        c);
  }
}

TEST_P(DmlMatchingTest, DeleteMatchesLikeAScan) {
  for (const Case& c : Cases()) {
    RunOnBoth(
        "DELETE",
        [&](const std::string& table) {
          return "DELETE FROM " + table + " WHERE " + c.where + ";";
        },
        c);
  }
}

INSTANTIATE_TEST_SUITE_P(Paths, DmlMatchingTest,
                         ::testing::Values(Mode::kSerial, Mode::kTxnSession),
                         [](const ::testing::TestParamInfo<Mode>& info) {
                           return info.param == Mode::kSerial
                                      ? std::string("Session")
                                      : std::string("TxnSession");
                         });

}  // namespace
}  // namespace auxview
