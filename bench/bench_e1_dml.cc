// E1: end-to-end point DML as the table grows — the paper's promise that a
// point update's cost does not depend on database size, checked on the
// whole statement path (parse, match rows, build the transaction, maintain,
// publish the snapshot), not just maintenance.
//
// The payroll schema of examples/payroll_session.cc at 1k/10k/100k Emp rows
// (10 per department) runs 200 point `UPDATE Emp SET Salary = ... WHERE
// EName = ...` statements through the serial Session, then 200 more, each
// its own TxnSession Execute + Commit, through the concurrent funnel. The
// deterministic columns go into the goldens: rows the WHERE clause was
// evaluated on per statement (`api.dml.rows_scanned`, 1 with indexed
// matching), snapshot rows copied per commit (`concurrency.publish_rows_
// copied`) and the row count of the tables each commit republished. The
// `_us` medians are wall time and excluded from the goldens.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"

namespace auxview {
namespace {

constexpr int kEmpsPerDept = 10;
constexpr int kStatements = 200;

constexpr char kDdl[] = R"sql(
  CREATE TABLE Emp (EName STRING PRIMARY KEY, DName STRING, Salary INT,
                    INDEX (DName));
  CREATE TABLE Dept (DName STRING PRIMARY KEY, MName STRING, Budget INT);
  CREATE VIEW SumOfSals (DName, SalSum) AS
    SELECT DName, SUM(Salary) FROM Emp GROUPBY DName;
  CREATE ASSERTION DeptConstraint CHECK
    (NOT EXISTS (SELECT Dept.DName FROM Emp, Dept
                 WHERE Dept.DName = Emp.DName
                 GROUPBY Dept.DName, Budget
                 HAVING SUM(Salary) > Budget));
)sql";

void Check(const Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, st.ToString().c_str());
    std::abort();
  }
}

int64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->value();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0 : v[v.size() / 2];
}

/// Loads `emps` employees straight into the base tables (uncharged; a bulk
/// load is not what this table measures), then prepares.
std::unique_ptr<Session> SetUp(int emps) {
  auto session = std::make_unique<Session>();
  Check(session->Execute(kDdl).status(), "ddl");
  {
    ScopedCountingDisabled quiet(&session->db().counter());
    Table* emp = session->db().FindTable("Emp");
    Table* dept = session->db().FindTable("Dept");
    for (int d = 0; d < emps / kEmpsPerDept; ++d) {
      const std::string dname = "d" + std::to_string(d);
      Check(dept->Insert({Value::String(dname), Value::String("m"),
                          Value::Int64(1000000000)}),
            "load dept");
      for (int k = 0; k < kEmpsPerDept; ++k) {
        Check(emp->Insert({Value::String("e" + std::to_string(
                                                  d * kEmpsPerDept + k)),
                           Value::String(dname), Value::Int64(1000 + k)}),
              "load emp");
      }
    }
  }
  session->DeclareWorkload({SingleModifyTxn(">Emp", "Emp", {"Salary"}, 1)});
  Check(session->Prepare(), "prepare");
  return session;
}

std::string PointUpdate(Rng* rng, int emps) {
  return "UPDATE Emp SET Salary = " + std::to_string(rng->Uniform(1, 9999)) +
         " WHERE EName = 'e" + std::to_string(rng->Uniform(0, emps - 1)) +
         "';";
}

struct Measured {
  double serial_us = 0;
  double funnel_us = 0;
  double serial_scanned = 0;
  double funnel_scanned = 0;
  double copied = 0;
  double touched = 0;
};

Measured MeasureOne(int emps) {
  Measured out;
  std::unique_ptr<Session> session = SetUp(emps);
  Rng rng(static_cast<uint64_t>(emps));
  using Clock = std::chrono::steady_clock;
  const auto us_since = [](Clock::time_point start) {
    return std::chrono::duration<double, std::micro>(Clock::now() - start)
        .count();
  };

  std::vector<double> times;
  int64_t scanned = CounterValue("api.dml.rows_scanned");
  for (int i = 0; i < kStatements; ++i) {
    const std::string sql = PointUpdate(&rng, emps);
    const Clock::time_point start = Clock::now();
    auto r = session->Execute(sql);
    times.push_back(us_since(start));
    Check(r.status(), "serial update");
  }
  out.serial_us = Median(times);
  out.serial_scanned =
      static_cast<double>(CounterValue("api.dml.rows_scanned") - scanned) /
      kStatements;

  Check(session->EnableConcurrency(), "enable concurrency");
  auto opened = session->OpenSession();
  Check(opened.status(), "open session");
  std::unique_ptr<TxnSession> txn = std::move(opened).value();
  times.clear();
  scanned = CounterValue("api.dml.rows_scanned");
  const int64_t copied = CounterValue("concurrency.publish_rows_copied");
  int64_t touched = 0;
  for (int i = 0; i < kStatements; ++i) {
    const std::string sql = PointUpdate(&rng, emps);
    SnapshotRef before = session->controller()->Pin();
    const Clock::time_point start = Clock::now();
    auto r = txn->Execute(sql);
    Check(r.status(), "funnel update");
    auto outcome = txn->Commit();
    times.push_back(us_since(start));
    Check(outcome.status(), "funnel commit");
    if (!outcome->committed()) {
      Check(Status::Internal(outcome->detail), "funnel commit");
    }
    // Tables the commit republished: those whose version changed.
    SnapshotRef after = session->controller()->Pin();
    for (const auto& [name, table] : after->tables()) {
      if (before->Version(name) != table) touched += table->distinct_rows();
    }
  }
  out.funnel_us = Median(times);
  out.funnel_scanned =
      static_cast<double>(CounterValue("api.dml.rows_scanned") - scanned) /
      kStatements;
  out.copied = static_cast<double>(
                   CounterValue("concurrency.publish_rows_copied") - copied) /
               kStatements;
  out.touched = static_cast<double>(touched) / kStatements;
  Check(session->CheckConsistency(), "consistency");
  return out;
}

void PrintResult() {
  bench::PrintHeader(
      "E1: point UPDATE Emp by EName vs Emp size (200 statements per path; "
      "median us; rows scanned per statement; snapshot rows copied and "
      "republished-table rows per funnel commit)",
      {"serial_us", "funnel_us", "serial_scan", "funnel_scan", "copied",
       "touched", "copied_pct"});
  for (int emps : {1000, 10000, 100000}) {
    const Measured m = MeasureOne(emps);
    bench::PrintRow(std::to_string(emps) + " Emp rows",
                    {m.serial_us, m.funnel_us, m.serial_scanned,
                     m.funnel_scanned, m.copied, m.touched,
                     100.0 * m.copied / m.touched});
  }
  std::printf(
      "  (rows scanned stay at 1 and copies grow with sqrt(rows): the "
      "statement path is O(delta), amortized, outside maintenance.)\n");
}

void BM_PointUpdateFunnel(benchmark::State& state) {
  const int emps = static_cast<int>(state.range(0));
  std::unique_ptr<Session> session = SetUp(emps);
  Check(session->EnableConcurrency(), "enable concurrency");
  auto txn = std::move(session->OpenSession()).value();
  Rng rng(7);
  for (auto _ : state) {
    auto r = txn->Execute(PointUpdate(&rng, emps));
    auto outcome = txn->Commit();
    benchmark::DoNotOptimize(r.ok() && outcome.ok());
  }
}
BENCHMARK(BM_PointUpdateFunnel)->Arg(1000)->Arg(10000)->Arg(100000);

}  // namespace
}  // namespace auxview

int main(int argc, char** argv) {
  return auxview::bench::BenchMain("e1_dml", argc, argv,
                                   [] { auxview::PrintResult(); });
}
