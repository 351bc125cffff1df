// bulk_rollup: a star schema whose one view rolls a 60k-row fact table up
// by two dimension attributes over a three-way join. Statements go through
// the serial Session (no concurrency); every one moves about 1.2k joined
// fact rows, so delta propagation dominates the statement's time.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>

#include "workloads.h"

namespace perfbench {

using namespace auxview;

namespace {

constexpr int kDimRows = 50;
/// Distinct values of each dimension attribute.
constexpr int kAttrValues = 10;
constexpr int64_t kWarmup = 3;
/// Statements whose counters make the deterministic per-write counts.
constexpr int64_t kPrefix = 30;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;

constexpr const char* kDdl = R"sql(
  CREATE TABLE Dim1 (D1 INT PRIMARY KEY, A1 INT);
  CREATE TABLE Dim2 (D2 INT PRIMARY KEY, A2 INT);
  CREATE TABLE Fact (FId INT PRIMARY KEY, D1 INT, D2 INT, M INT,
                     INDEX (D1), INDEX (D2));
  CREATE VIEW Rollup (A1, A2, MSum) AS
    SELECT A1, A2, SUM(M) FROM Fact, Dim1, Dim2
    WHERE Fact.D1 = Dim1.D1 AND Fact.D2 = Dim2.D2
    GROUPBY A1, A2;
)sql";

/// Statement kinds in a fixed cycle of three: two dimension updates (the
/// primary kind) and one fact update (the secondary kind).
enum class Kind { kDim1, kDim2, kFact };

Kind KindAt(int64_t i) {
  return i % 3 == 0 ? Kind::kDim1 : i % 3 == 1 ? Kind::kDim2 : Kind::kFact;
}

std::vector<TransactionType> Workload(int64_t facts_per_dim) {
  TransactionType fact = SingleModifyTxn(
      ">Fact", "Fact", {"M"}, 1, static_cast<double>(facts_per_dim));
  fact.updates[0].selected_by = {"D2"};
  return {SingleModifyTxn(">Dim1", "Dim1", {"A1"}, 1),
          SingleModifyTxn(">Dim2", "Dim2", {"A2"}, 1), fact};
}

/// The star the benchmark issued: fact rows and both dimensions.
struct Star {
  std::vector<int> d1;
  std::vector<int> d2;
  std::vector<int64_t> m;
  std::vector<int> a1;
  std::vector<int> a2;

  Star(int64_t facts, Rng* rng) {
    // The key layout is fixed and every attribute value occurs equally
    // often, so table statistics — and with them the chosen plan — do not
    // depend on the seed. Each D2 value has exactly facts / kDimRows rows.
    for (int64_t i = 0; i < facts; ++i) {
      d1.push_back(static_cast<int>((i / kDimRows) % kDimRows));
      d2.push_back(static_cast<int>(i % kDimRows));
      m.push_back(rng->Uniform(1, 100));
    }
    for (int k = 0; k < kDimRows; ++k) {
      a1.push_back(k % kAttrValues);
      a2.push_back(k % kAttrValues);
    }
    Shuffle(&a1, rng);
    Shuffle(&a2, rng);
  }

  std::map<std::pair<int, int>, int64_t> Rollup() const {
    std::map<std::pair<int, int>, int64_t> out;
    for (size_t i = 0; i < m.size(); ++i) {
      out[{a1[static_cast<size_t>(d1[i])], a2[static_cast<size_t>(d2[i])]}] +=
          m[i];
    }
    return out;
  }
};

std::vector<std::string> LoadScripts(const Star& s) {
  std::vector<std::string> out;
  for (const auto& [table, attrs] :
       {std::pair{"Dim1", &s.a1}, std::pair{"Dim2", &s.a2}}) {
    std::string sql = std::string("INSERT INTO ") + table + " VALUES ";
    for (int k = 0; k < kDimRows; ++k) {
      sql += (k ? ", (" : "(") + std::to_string(k) + ", " +
             std::to_string((*attrs)[static_cast<size_t>(k)]) + ")";
    }
    out.push_back(sql + ";");
  }
  std::string sql;
  for (size_t i = 0; i < s.m.size(); ++i) {
    sql += (i % 1000 == 0 ? "INSERT INTO Fact VALUES (" : ", (") +
           std::to_string(i) + ", " + std::to_string(s.d1[i]) + ", " +
           std::to_string(s.d2[i]) + ", " + std::to_string(s.m[i]) + ")";
    if (i % 1000 == 999 || i + 1 == s.m.size()) {
      out.push_back(sql + ";");
      sql.clear();
    }
  }
  return out;
}

bool SameRollup(const Relation& rel, const Star& s, std::string* why) {
  const auto expected = s.Rollup();
  const auto rows = rel.SortedRows();
  if (rows.size() != expected.size()) {
    *why = std::to_string(rows.size()) + " groups, expected " +
           std::to_string(expected.size());
    return false;
  }
  for (const auto& [row, count] : rows) {
    auto it = expected.find({static_cast<int>(row[0].int64()),
                             static_cast<int>(row[1].int64())});
    if (count != 1 || it == expected.end() ||
        row[2].AsDouble() != static_cast<double>(it->second)) {
      *why = "group " + RowToString(row);
      return false;
    }
  }
  return true;
}

}  // namespace

void RunBulkRollup(const RunOptions& opts, Oracle* oracle, Report* report) {
  namespace fs = std::filesystem;
  Rng data_rng(opts.seed * 2 + 1);
  const int64_t facts_per_dim =
      std::max<int64_t>(24, static_cast<int64_t>(1200 * opts.scale));
  const Star initial(facts_per_dim * kDimRows, &data_rng);
  const std::vector<std::string> load = LoadScripts(initial);
  const std::vector<TransactionType> workload = Workload(facts_per_dim);

  Tracer tracer(opts.trace);
  Layers layers;
  EndToEnd e2e;
  std::unique_ptr<Session> session;
  std::string wal_dir;
  for (int r = 0; r < kSetups; ++r) {
    session.reset();
    if (!wal_dir.empty()) fs::remove_all(wal_dir);
    e2e.calibration.Sample(10);
    wal_dir = opts.work_dir + "/wal-" + std::to_string(r);
    SessionOptions options;
    options.durability.wal_dir = wal_dir;
    options.durability.wal_fsync = WalFsync::kCommit;
    const Clock::time_point start = Clock::now();
    session = std::make_unique<Session>(options);
    Status st = session->Execute(kDdl).status();
    for (size_t k = 0; st.ok() && k < load.size(); ++k) {
      st = session->Execute(load[k]).status();
    }
    session->DeclareWorkload(workload);
    TimedPrepare prepare;
    if (st.ok()) {
      prepare = RunPrepare(session.get());
      st = prepare.status;
    }
    e2e.setup_s.Add(e2e.Scale(SecondsSince(start)));
    if (!oracle->Check(st.ok(), "setup: " + st.ToString())) return;
    if (opts.trace) {
      const Status split = AddPrepare(kDdl, *session, prepare, &layers);
      oracle->Check(split.ok(), "prepare breakdown: " + split.ToString());
    }
  }
  e2e.space_ratio = SpaceRatio(session->db());

  Star model = initial;
  Rng rng(opts.seed * 2 + 2);
  StreamHash stream;
  LayerTally tally;
  // Wall time of the timed statements: the run's length.
  double run_s = 0;
  for (int64_t i = 0; i < kPrefix || run_s < opts.seconds; ++i) {
    const Clock::time_point stmt_start = Clock::now();
    const bool timed = i >= kWarmup;
    const Kind kind = KindAt(i);

    std::string sql;
    int key = static_cast<int>(rng.Uniform(0, kDimRows - 1));
    int value = 0;
    int64_t expect_affected = 1;
    if (kind == Kind::kFact) {
      sql = "UPDATE Fact SET M = M + 1 WHERE D2 = " + std::to_string(key) + ";";
      expect_affected = facts_per_dim;
    } else {
      std::vector<int>& attrs = kind == Kind::kDim1 ? model.a1 : model.a2;
      value = static_cast<int>(rng.Uniform(0, kAttrValues - 2));
      if (value >= attrs[static_cast<size_t>(key)]) ++value;  // never a no-op
      const char* n = kind == Kind::kDim1 ? "1" : "2";
      sql = std::string("UPDATE Dim") + n + " SET A" + n + " = " +
            std::to_string(value) + " WHERE D" + n + " = " +
            std::to_string(key) + ";";
    }
    if (i < kPrefix) stream.Add(sql);

    SpanScope root(&tracer, "stmt.write", i);
    if (opts.trace) TimeParse(sql, &tracer, i, &layers);
    const Counters before = opts.trace ? Counters::Capture() : Counters();
    int exec_span = -1;
    const Clock::time_point start = Clock::now();
    StatusOr<ExecResult> result = [&] {
      // The fact updates' span is the one api.exec_self_ms reads (they
      // match 60k rows; a dimension update matches one of 50).
      SpanScope span(&tracer,
                     kind == Kind::kFact ? "api.execute" : "api.execute.dim",
                     i);
      exec_span = span.index();
      return session->Execute(sql);
    }();
    const double wall_ms = MsSince(start);
    const bool ok = oracle->Check(
        result.ok() && result->affected == expect_affected &&
            !result->rejected(),
        "write " + sql + ": " +
            (result.ok() ? "affected " + std::to_string(result->affected)
                         : result.status().ToString()));
    if (ok) {
      if (kind == Kind::kFact) {
        for (size_t f = 0; f < model.m.size(); ++f) {
          if (model.d2[f] == key) ++model.m[f];
        }
      } else {
        (kind == Kind::kDim1 ? model.a1 : model.a2)[static_cast<size_t>(key)] =
            value;
      }
    }
    if (opts.trace) {
      const StmtDelta d = Diff(before, Counters::Capture());
      tracer.AddChild(exec_span, "maintain.apply", d.apply_us);
      tally.AddWrite(d, 1e3 * wall_ms, i < kPrefix, timed);
    }
    if (timed) {
      (kind == Kind::kFact ? e2e.secondary_ms : e2e.primary_ms)
          .Add(e2e.Scale(wall_ms));
      ++e2e.ops;
      run_s += SecondsSince(stmt_start);
      e2e.stream_s += e2e.Scale(SecondsSince(stmt_start));
    }
    e2e.calibration.Sample();
  }
  std::printf("  stream_fingerprint %016llx (%lld statements)\n",
              static_cast<unsigned long long>(stream.value()),
              static_cast<long long>(e2e.ops + kWarmup));

  const Status consistent = session->CheckConsistency();
  oracle->Check(consistent.ok(), "consistency: " + consistent.ToString());
  auto view = session->ViewContents("Rollup");
  std::string why;
  oracle->Check(view.ok() && SameRollup(*view, model, &why),
                "Rollup matches the model: " + why);
  session.reset();

  tally.Finish(&layers);
  FinishRun(opts, e2e, layers, tracer, report);
}

}  // namespace perfbench
