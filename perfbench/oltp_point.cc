// oltp_point: the payroll schema of examples/payroll_session.cc at 10k
// employees and 1k departments, served through the concurrent API. Each DML
// statement is its own TxnSession Execute+Commit; reads go through
// Session::Execute on a pinned snapshot. After a fixed prefix of the stream
// the write-ahead log is copied, and Session::Recover on that copy must
// reproduce the view contents the live session had at that point.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <unordered_map>

#include "workloads.h"

namespace perfbench {

using namespace auxview;

namespace {

constexpr int kEmpsPerDept = 10;
constexpr int64_t kMinSalary = 1000;
constexpr int64_t kMaxSalary = 10000;
/// Statements before timing starts (caches and snapshots warm up).
constexpr int64_t kWarmup = 20;
/// Statements whose counters make the deterministic per-write counts; the
/// log is copied for recovery right after them.
constexpr int64_t kPrefix = 200;
/// Set-ups per run (setup_s is their median) and timed recoveries per
/// traced run.
constexpr int kSetups = 9;
constexpr int kRecoveries = 3;

constexpr const char* kDdl = R"sql(
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

/// Statement kinds, in a fixed cycle of 20: 4 reads, 12 salary updates,
/// 2 budget updates, 1 hire and 1 departure.
enum class Kind { kRead, kRaise, kBudget, kHire, kFire };

Kind KindAt(int64_t i) {
  switch (i % 20) {
    case 0: case 5: case 10: case 15: return Kind::kRead;
    case 3: case 13: return Kind::kBudget;
    case 8: return Kind::kHire;
    case 18: return Kind::kFire;
    default: return Kind::kRaise;
  }
}

std::string DeptName(int d) { return "d" + std::to_string(d); }
std::string EmpName(int64_t e) { return "e" + std::to_string(e); }

std::vector<TransactionType> Workload() {
  TransactionType hire{"+Emp", 1, {UpdateSpec{"Emp", UpdateKind::kInsert}}};
  TransactionType fire{"-Emp", 1, {UpdateSpec{"Emp", UpdateKind::kDelete}}};
  return {SingleModifyTxn(">Emp", "Emp", {"Salary"}, 12),
          SingleModifyTxn(">Dept", "Dept", {"Budget"}, 2), hire, fire};
}

/// What the benchmark issued, and therefore what the database must hold.
class Payroll {
 public:
  struct Emp {
    int dept;
    int64_t salary;
  };

  Payroll(int depts, Rng* rng) : sum_(depts), count_(depts), budget_(depts) {
    std::vector<int> slots;
    for (int d = 0; d < depts; ++d) {
      for (int k = 0; k < kEmpsPerDept; ++k) slots.push_back(d);
    }
    Shuffle(&slots, rng);
    for (int d : slots) {
      Hire(next_id_++, d, rng->Uniform(kMinSalary, kMaxSalary));
    }
    for (int d = 0; d < depts; ++d) {
      budget_[d] = sum_[d] + rng->Uniform(2000, 20000);
    }
  }

  int depts() const { return static_cast<int>(sum_.size()); }
  int64_t NewId() { return next_id_++; }
  int64_t RandomEmp(Rng* rng) const {
    return alive_[static_cast<size_t>(
        rng->Uniform(0, static_cast<int64_t>(alive_.size()) - 1))];
  }
  const Emp& emp(int64_t id) const { return emps_.at(id); }
  const std::vector<int64_t>& alive() const { return alive_; }
  int64_t sum(int d) const { return sum_[d]; }
  int64_t count(int d) const { return count_[d]; }
  int64_t budget(int d) const { return budget_[d]; }

  /// DeptConstraint's verdict on a department's new salary total, head
  /// count and budget.
  static bool Violates(int64_t new_sum, int64_t new_count, int64_t new_budget) {
    return new_count > 0 && new_sum > new_budget;
  }

  void Hire(int64_t id, int d, int64_t salary) {
    emps_[id] = Emp{d, salary};
    pos_[id] = alive_.size();
    alive_.push_back(id);
    sum_[d] += salary;
    ++count_[d];
  }
  void Fire(int64_t id) {
    const Emp e = emps_.at(id);
    sum_[e.dept] -= e.salary;
    --count_[e.dept];
    const size_t at = pos_.at(id);
    alive_[at] = alive_.back();
    pos_[alive_[at]] = at;
    alive_.pop_back();
    pos_.erase(id);
    emps_.erase(id);
  }
  void Raise(int64_t id, int64_t salary) {
    Emp& e = emps_.at(id);
    sum_[e.dept] += salary - e.salary;
    e.salary = salary;
  }
  void SetBudget(int d, int64_t budget) { budget_[d] = budget; }

 private:
  std::vector<int64_t> sum_;
  std::vector<int64_t> count_;
  std::vector<int64_t> budget_;
  std::unordered_map<int64_t, Emp> emps_;
  std::unordered_map<int64_t, size_t> pos_;
  std::vector<int64_t> alive_;
  int64_t next_id_ = 0;
};

/// Multi-row INSERT scripts loading the initial state, 500 rows each.
std::vector<std::string> LoadScripts(const Payroll& p) {
  std::vector<std::string> out;
  std::string sql;
  int rows = 0;
  const auto flush = [&]() {
    if (rows == 0) return;
    sql += ";";
    out.push_back(std::move(sql));
    sql.clear();
    rows = 0;
  };
  const auto add = [&](const std::string& table, const std::string& values) {
    sql += rows == 0 ? "INSERT INTO " + table + " VALUES " : ", ";
    sql += values;
    if (++rows == 500) flush();
  };
  for (int d = 0; d < p.depts(); ++d) {
    add("Dept", "('" + DeptName(d) + "', 'm" + std::to_string(d) + "', " +
                    std::to_string(p.budget(d)) + ")");
  }
  flush();
  for (int64_t id : p.alive()) {
    const Payroll::Emp& e = p.emp(id);
    add("Emp", "('" + EmpName(id) + "', '" + DeptName(e.dept) + "', " +
                   std::to_string(e.salary) + ")");
  }
  flush();
  return out;
}

SessionOptions WalOptions(const std::string& dir) {
  SessionOptions options;
  options.durability.wal_dir = dir;
  options.durability.wal_fsync = WalFsync::kCommit;
  return options;
}

/// Builds the served database: schema, bulk load, Prepare, concurrency.
StatusOr<std::unique_ptr<Session>> SetUp(const std::string& wal_dir,
                                         const std::vector<std::string>& load,
                                         TimedPrepare* prepare) {
  auto session = std::make_unique<Session>(WalOptions(wal_dir));
  AUXVIEW_RETURN_IF_ERROR(session->Execute(kDdl).status());
  for (const std::string& sql : load) {
    AUXVIEW_RETURN_IF_ERROR(session->Execute(sql).status());
  }
  session->DeclareWorkload(Workload());
  *prepare = RunPrepare(session.get());
  AUXVIEW_RETURN_IF_ERROR(prepare->status);
  AUXVIEW_RETURN_IF_ERROR(session->EnableConcurrency());
  return session;
}

bool SameSums(const Relation& rel, const Payroll& p, std::string* why) {
  std::map<std::string, int64_t> expected;
  for (int d = 0; d < p.depts(); ++d) {
    if (p.count(d) > 0) expected[DeptName(d)] = p.sum(d);
  }
  const auto rows = rel.SortedRows();
  if (rows.size() != expected.size()) {
    *why = std::to_string(rows.size()) + " groups, expected " +
           std::to_string(expected.size());
    return false;
  }
  for (const auto& [row, count] : rows) {
    auto it = expected.find(row[0].str());
    if (count != 1 || it == expected.end() ||
        row[1].AsDouble() != static_cast<double>(it->second)) {
      *why = "group " + RowToString(row);
      return false;
    }
  }
  return true;
}

}  // namespace

void RunOltpPoint(const RunOptions& opts, Oracle* oracle, Report* report) {
  namespace fs = std::filesystem;
  Rng data_rng(opts.seed * 2 + 1);
  const int depts = std::max(10, static_cast<int>(1000 * opts.scale));
  const Payroll initial(depts, &data_rng);
  const std::vector<std::string> load = LoadScripts(initial);

  Tracer tracer(opts.trace);
  Layers layers;
  EndToEnd e2e;
  std::unique_ptr<Session> session;
  std::string wal_dir;
  for (int r = 0; r < kSetups; ++r) {
    session.reset();
    if (!wal_dir.empty()) fs::remove_all(wal_dir);
    e2e.calibration.Sample(4);
    wal_dir = opts.work_dir + "/wal-" + std::to_string(r);
    const Clock::time_point start = Clock::now();
    TimedPrepare prepare;
    StatusOr<std::unique_ptr<Session>> built = SetUp(wal_dir, load, &prepare);
    const double setup_ms = MsSince(start);
    if (!oracle->Check(built.ok(), "setup: " + built.status().ToString())) {
      return;
    }
    session = std::move(built).value();
    e2e.setup_s.Add(e2e.Scale(setup_ms / 1e3));
    if (opts.trace) {
      const Status split = AddPrepare(kDdl, *session, prepare, &layers);
      oracle->Check(split.ok(), "prepare breakdown: " + split.ToString());
    }
  }
  e2e.space_ratio = SpaceRatio(session->db());

  auto opened = session->OpenSession();
  if (!oracle->Check(opened.ok(), "open session")) return;
  std::unique_ptr<TxnSession> txn = std::move(opened).value();

  Payroll model = initial;
  Rng rng(opts.seed * 2 + 2);
  StreamHash stream;
  LayerTally tally;
  Relation live_at_prefix;
  const std::string golden = opts.work_dir + "/wal-prefix";
  // Wall time of the timed statements: the run's length.
  double run_s = 0;
  int64_t writes = 0;
  int64_t rejections = 0;
  for (int64_t i = 0; i < kPrefix || run_s < opts.seconds; ++i) {
    const Clock::time_point stmt_start = Clock::now();
    const bool timed = i >= kWarmup;
    const bool in_prefix = i < kPrefix;
    const Kind kind = KindAt(i);

    // Generate the statement and predict its outcome from the model.
    std::string sql;
    bool reject = false;
    int dept = 0;
    int64_t id = 0;
    int64_t value = 0;
    switch (kind) {
      case Kind::kRead:
        dept = static_cast<int>(rng.Uniform(0, depts - 1));
        sql = "SELECT * FROM SumOfSals WHERE DName = '" + DeptName(dept) + "';";
        break;
      case Kind::kRaise: {
        id = model.RandomEmp(&rng);
        const Payroll::Emp& e = model.emp(id);
        value = rng.Uniform(kMinSalary, kMaxSalary - 1);
        if (value >= e.salary) ++value;  // never a no-op
        dept = e.dept;
        reject = Payroll::Violates(model.sum(dept) - e.salary + value,
                                   model.count(dept), model.budget(dept));
        sql = "UPDATE Emp SET Salary = " + std::to_string(value) +
              " WHERE EName = '" + EmpName(id) + "';";
        break;
      }
      case Kind::kBudget:
        dept = static_cast<int>(rng.Uniform(0, depts - 1));
        value = model.sum(dept) + rng.Uniform(-3000, 20000);
        if (value == model.budget(dept)) ++value;
        reject = Payroll::Violates(model.sum(dept), model.count(dept), value);
        sql = "UPDATE Dept SET Budget = " + std::to_string(value) +
              " WHERE DName = '" + DeptName(dept) + "';";
        break;
      case Kind::kHire:
        id = model.NewId();
        dept = static_cast<int>(rng.Uniform(0, depts - 1));
        value = rng.Uniform(kMinSalary, kMaxSalary);
        reject = Payroll::Violates(model.sum(dept) + value,
                                   model.count(dept) + 1, model.budget(dept));
        sql = "INSERT INTO Emp VALUES ('" + EmpName(id) + "', '" +
              DeptName(dept) + "', " + std::to_string(value) + ");";
        break;
      case Kind::kFire:
        id = model.RandomEmp(&rng);
        sql = "DELETE FROM Emp WHERE EName = '" + EmpName(id) + "';";
        break;
    }
    if (i < kPrefix) stream.Add(sql);

    SpanScope root(&tracer, kind == Kind::kRead ? "stmt.read" : "stmt.write",
                   i);
    if (opts.trace) TimeParse(sql, &tracer, i, &layers);
    const Counters before = opts.trace ? Counters::Capture() : Counters();
    double wall_ms = 0;

    if (kind == Kind::kRead) {
      const Clock::time_point start = Clock::now();
      StatusOr<ExecResult> result = [&] {
        SpanScope span(&tracer, "api.read", i);
        return session->Execute(sql);
      }();
      wall_ms = MsSince(start);
      if (result.ok() && result->rows.has_value()) {
        const auto rows = result->rows->SortedRows();
        const bool expect_row = model.count(dept) > 0;
        oracle->Check(
            rows.size() == (expect_row ? 1u : 0u) &&
                (!expect_row ||
                 (rows[0].first[0].str() == DeptName(dept) &&
                  rows[0].first[1].AsDouble() ==
                      static_cast<double>(model.sum(dept)))),
            "read " + sql);
      } else {
        oracle->Check(false, "read " + sql + ": " + result.status().ToString());
      }
      if (timed) e2e.secondary_ms.Add(e2e.Scale(wall_ms));
      if (opts.trace) {
        tally.AddRead(Diff(before, Counters::Capture()), in_prefix);
      }
    } else {
      Clock::time_point start = Clock::now();
      StatusOr<ExecResult> staged = [&] {
        SpanScope span(&tracer, "api.stage", i);
        return txn->Execute(sql);
      }();
      const double stage_ms = MsSince(start);
      StatusOr<CommitOutcome> outcome = Status::Internal("not staged");
      int commit_span = -1;
      double commit_ms = 0;
      {
        SpanScope span(&tracer, "concurrency.commit", i);
        commit_span = span.index();
        start = Clock::now();
        if (staged.ok()) {
          outcome = txn->Commit();
          if (!outcome.ok() || !outcome->committed()) txn->Abort();
        }
        commit_ms = MsSince(start);
      }
      wall_ms = stage_ms + commit_ms;
      ++writes;
      const bool ok = staged.ok() && outcome.ok();
      if (oracle->Check(
              ok && staged->affected == 1,
              "write " + sql + ": " +
                  (ok ? "affected " + std::to_string(staged->affected)
                      : (staged.ok() ? outcome.status() : staged.status())
                            .ToString()))) {
        const bool rejected = outcome->kind == CommitOutcome::Kind::kRejected;
        rejections += rejected ? 1 : 0;
        oracle->Check(rejected == reject &&
                          outcome->kind != CommitOutcome::Kind::kConflict,
                      "verdict for " + sql + ": " + outcome->detail);
      }
      // The model follows what the database did.
      if (ok && outcome->committed()) {
        switch (kind) {
          case Kind::kRaise: model.Raise(id, value); break;
          case Kind::kBudget: model.SetBudget(dept, value); break;
          case Kind::kHire: model.Hire(id, dept, value); break;
          case Kind::kFire: model.Fire(id); break;
          case Kind::kRead: break;
        }
      }
      if (timed && kind == Kind::kRaise) e2e.primary_ms.Add(e2e.Scale(wall_ms));
      if (opts.trace) {
        const StmtDelta d = Diff(before, Counters::Capture());
        tracer.AddChild(commit_span, "maintain.apply", d.apply_us);
        tally.AddWrite(d, 1e3 * wall_ms, in_prefix, timed);
      }
    }
    if (timed) {
      ++e2e.ops;
      run_s += SecondsSince(stmt_start);
      e2e.stream_s += e2e.Scale(SecondsSince(stmt_start));
    }
    if (i % 5 == 0) e2e.calibration.Sample();

    if (i == kPrefix - 1) {
      // Freeze the log and the live view for the recovery check.
      oracle->Check(CopyDir(wal_dir, golden), "copy write-ahead log");
      auto live = session->ViewContents("SumOfSals");
      if (oracle->Check(live.ok(), "live view contents")) {
        live_at_prefix = std::move(live).value();
      }
    }
  }
  std::printf("  stream_fingerprint %016llx (%lld statements, %lld of %lld "
              "writes rejected by DeptConstraint)\n",
              static_cast<unsigned long long>(stream.value()),
              static_cast<long long>(e2e.ops + kWarmup),
              static_cast<long long>(rejections),
              static_cast<long long>(writes));

  // End-of-stream checks: every view against recomputation, every
  // assertion, and the served view against the model.
  const Status consistent = session->CheckConsistency();
  oracle->Check(consistent.ok(), "consistency: " + consistent.ToString());
  auto checks = session->CheckAssertions();
  bool holds = checks.ok();
  if (holds) {
    for (const AssertionCheck& c : *checks) holds = holds && c.holds;
  }
  oracle->Check(holds, "assertions hold at end of stream");
  auto final_view = session->ViewContents("SumOfSals");
  std::string why;
  oracle->Check(final_view.ok() && SameSums(*final_view, model, &why),
                "SumOfSals matches the model: " + why);
  txn.reset();
  session.reset();

  // Recovery from the prefix's log copy, timed on fresh copies.
  const int recoveries = opts.trace ? kRecoveries : 1;
  for (int r = 0; r < recoveries; ++r) {
    const std::string dir = opts.work_dir + "/wal-recover";
    oracle->Check(CopyDir(golden, dir), "copy log for recovery");
    Session recovered(WalOptions(dir));
    oracle->Check(recovered.Execute(kDdl).ok(), "recovery DDL");
    recovered.DeclareWorkload(Workload());
    const Clock::time_point start = Clock::now();
    const Status st = recovered.Recover();
    const double recover_ms = MsSince(start);
    if (!oracle->Check(st.ok(), "recover: " + st.ToString())) continue;
    layers.recover_ms.Add(recover_ms);
    layers.recovered_txns = recovered.last_recovery().replayed;
    auto view = recovered.ViewContents("SumOfSals");
    oracle->Check(view.ok() && view->BagEquals(live_at_prefix),
                  "recovered SumOfSals equals the live view at the prefix");
    const Status rc = recovered.CheckConsistency();
    oracle->Check(rc.ok(), "recovered consistency: " + rc.ToString());
  }

  tally.Finish(&layers);
  FinishRun(opts, e2e, layers, tracer, report);
}

}  // namespace perfbench
