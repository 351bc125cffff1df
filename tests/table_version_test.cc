// Versioned snapshots (src/concurrency/table_version.h, docs/CONCURRENCY.md
// "Snapshots"): a TableVersion must read exactly like the table it stands
// for — rows, index probes, fingerprints — over plain and sharded bases;
// published versions must track the live tables commit by commit across
// fold boundaries while pinned snapshots stay frozen; and a writer's
// overlay must layer over its snapshot without copying a table.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/session.h"
#include "api/txn_session.h"
#include "concurrency/table_version.h"
#include "obs/metrics.h"
#include "storage/sharded_table.h"

namespace auxview {
namespace {

TableDef MakeDef() {
  TableDef def;
  def.name = "T";
  def.schema = Schema::Create({{"k", ValueType::kInt64},
                               {"g", ValueType::kString},
                               {"v", ValueType::kInt64}})
                   .value();
  def.primary_key = {"k"};
  def.indexes = {IndexDef{{"g"}}};
  def.shard_key = {"k"};
  return def;
}

Row R(int64_t k, const std::string& g, int64_t v) {
  return {Value::Int64(k), Value::String(g), Value::Int64(v)};
}

/// A bag as sorted (row text, multiplicity) pairs.
std::vector<std::pair<std::string, int64_t>> Bag(
    const std::vector<CountedRow>& rows) {
  std::vector<std::pair<std::string, int64_t>> out;
  for (const CountedRow& cr : rows) {
    out.emplace_back(RowToString(cr.row), cr.count);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Every read a snapshot serves must agree between `version` and `live`.
void ExpectSameReads(const Table& version, const Table& live) {
  EXPECT_EQ(version.Fingerprint(), live.Fingerprint());
  EXPECT_EQ(Bag(version.SnapshotUncharged()), Bag(live.SnapshotUncharged()));
  EXPECT_EQ(version.row_count(), live.row_count());
  EXPECT_EQ(version.distinct_rows(), live.distinct_rows());
  for (const char* g : {"a", "b", "c"}) {
    EXPECT_EQ(Bag(version.Lookup({"g"}, {Value::String(g)})),
              Bag(live.LookupBatchUncharged({"g"}, {{Value::String(g)}})[0]))
        << g;
  }
  for (int64_t k = 0; k < 8; ++k) {
    const Row key = {Value::Int64(k)};
    EXPECT_EQ(Bag(version.LookupBatchUncharged({"k"}, {key})[0]),
              Bag(live.LookupBatchUncharged({"k"}, {key})[0]))
        << k;
    // Two-attribute probes take the index plus a residual filter.
    EXPECT_EQ(
        Bag(version.Lookup({"g", "k"}, {Value::String("a"), Value::Int64(k)})),
        Bag(live.LookupBatchUncharged(
            {"g", "k"}, {{Value::String("a"), Value::Int64(k)}})[0]));
  }
  for (const CountedRow& cr : live.SnapshotUncharged()) {
    EXPECT_EQ(version.CountOf(cr.row), cr.count);
  }
}

/// Applies the same signed changes to a live table and, version by version,
/// to a chain of TableVersions derived from a clone of its initial state.
void RunChain(Table* live) {
  for (int64_t k = 0; k < 6; ++k) {
    ASSERT_TRUE(live->Insert(R(k, k % 2 == 0 ? "a" : "b", 10 * k)).ok());
  }
  PageCounter off;
  off.set_enabled(false);
  std::shared_ptr<const Table> prev = live->Clone(&off);
  const std::string frozen = prev->Fingerprint();
  const std::vector<std::pair<Row, int64_t>> changes = {
      {R(0, "a", 0), -1},  {R(0, "a", 1), 1},   // a modify
      {R(6, "c", 60), 2},                        // a new row, twice
      {R(1, "b", 10), 1},                        // a base row's count grows
      {R(6, "c", 60), -2},                       // the new row disappears
      {R(0, "a", 1), -1},  {R(0, "a", 0), 1},   // back to the base state
      {R(3, "b", 30), -1}, {R(7, "a", 70), 1},
  };
  std::vector<std::string> fingerprints;
  for (const auto& [row, count] : changes) {
    ASSERT_TRUE(live->Apply(row, count).ok());
    auto version = std::make_shared<TableVersion>(prev);
    version->ApplyChange(row, count);
    ExpectSameReads(*version, *live);
    EXPECT_EQ(version->Apply(row, 1).code(), StatusCode::kFailedPrecondition);
    fingerprints.push_back(version->Fingerprint());
    prev = std::move(version);
  }
  // A version's content never moves once derived from.
  EXPECT_EQ(prev->Fingerprint(), fingerprints.back());
  const auto* last = dynamic_cast<const TableVersion*>(prev.get());
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->base().Fingerprint(), frozen);
  // Rows back at their base multiplicity leave the overlay: only k=1 (x2),
  // k=3 (gone) and k=7 (new) differ from the base.
  EXPECT_EQ(last->overlay_rows(), 3);
  const std::unique_ptr<Table> flat = last->Clone(&off);
  ExpectSameReads(*flat, *live);
}

TEST(TableVersionTest, ReadsMatchThePlainTable) {
  PageCounter counter;
  Table live(MakeDef(), &counter);
  RunChain(&live);
}

TEST(TableVersionTest, ReadsMatchTheShardedTable) {
  PageCounter parent;
  PageCounter s0("shard.0", &parent);
  PageCounter s1("shard.1", &parent);
  PageCounter s2("shard.2", &parent);
  ShardedTable live(MakeDef(), &parent, {&s0, &s1, &s2});
  RunChain(&live);
}

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

constexpr int kDepts = 4;
constexpr int kEmpsPerDept = 10;

/// The payroll schema with kDepts x kEmpsPerDept employees, prepared; with
/// `shards` > 1 Emp is hash-sharded on DName.
std::unique_ptr<Session> MakePayroll(int shards, bool concurrent) {
  auto session = std::make_unique<Session>();
  if (shards > 1) {
    EXPECT_TRUE(session->SetShardCount(shards).ok());
    session->SetShardKey("Emp", {"DName"});
  }
  EXPECT_TRUE(session->Execute(kDdl).ok());
  for (int d = 0; d < kDepts; ++d) {
    const std::string dname = "d" + std::to_string(d);
    for (int k = 0; k < kEmpsPerDept; ++k) {
      auto r = session->Execute("INSERT INTO Emp VALUES ('" + dname + "e" +
                                std::to_string(k) + "', '" + dname + "', " +
                                std::to_string(100 + k) + ");");
      EXPECT_TRUE(r.ok()) << r.status().ToString();
    }
    auto r = session->Execute("INSERT INTO Dept VALUES ('" + dname +
                              "', 'm', 1000000);");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }
  session->DeclareWorkload({SingleModifyTxn(">Emp", "Emp", {"Salary"}, 2),
                            SingleModifyTxn(">Dept", "Dept", {"Budget"}, 1)});
  EXPECT_TRUE(session->Prepare().ok());
  if (concurrent) {
    EXPECT_TRUE(session->EnableConcurrency().ok());
  }
  return session;
}

/// Every table of the newest snapshot reads exactly like its live table.
void ExpectNewestMatchesLive(Session* session) {
  SnapshotRef newest = session->controller()->Pin();
  for (const auto& [name, table] : newest->tables()) {
    const Table* live = session->db().FindTable(name);
    ASSERT_NE(live, nullptr) << name;
    EXPECT_EQ(table->Fingerprint(), live->Fingerprint()) << name;
  }
}

class SnapshotFoldTest : public ::testing::TestWithParam<int> {};

TEST_P(SnapshotFoldTest, PinnedSnapshotSurvivesFoldsAndNewestTracksLive) {
  std::unique_ptr<Session> session = MakePayroll(GetParam(), true);
  SnapshotRef pinned = session->controller()->Pin();
  const Table* pinned_emp = pinned->ResolveTable("Emp");
  const std::string pinned_print = pinned_emp->Fingerprint();
  const auto pinned_rows = Bag(pinned_emp->SnapshotUncharged());

  auto txn = session->OpenSession();
  ASSERT_TRUE(txn.ok());
  int folds = 0;
  bool versioned = false;
  bool sharded_base = false;
  for (int i = 0; i < 60; ++i) {
    const std::string sql =
        "UPDATE Emp SET Salary = " + std::to_string(200 + i) +
        " WHERE EName = 'd" + std::to_string(i % kDepts) + "e" +
        std::to_string(i % kEmpsPerDept) + "';";
    // Alternate the optimistic and the serial path through the funnel.
    if (i % 2 == 0) {
      auto staged = (*txn)->Execute(sql);
      ASSERT_TRUE(staged.ok()) << staged.status().ToString();
      auto outcome = (*txn)->Commit();
      ASSERT_TRUE(outcome.ok() && outcome->committed());
    } else {
      auto r = session->Execute(sql);
      ASSERT_TRUE(r.ok() && r->affected == 1);
    }
    ExpectNewestMatchesLive(session.get());
    SnapshotRef newest = session->controller()->Pin();
    const auto* version =
        dynamic_cast<const TableVersion*>(newest->ResolveTable("Emp"));
    if (version != nullptr) {
      versioned = true;
      sharded_base |=
          dynamic_cast<const ShardedTable*>(&version->base()) != nullptr;
    } else if (versioned) {
      ++folds;  // a plain table after versions: Emp folded into a new base
      versioned = false;
    }
  }
  EXPECT_GE(folds, 2);
  EXPECT_EQ(sharded_base, GetParam() > 1);
  EXPECT_EQ(pinned_emp->Fingerprint(), pinned_print);
  EXPECT_EQ(Bag(pinned_emp->SnapshotUncharged()), pinned_rows);
  EXPECT_TRUE(session->CheckConsistency().ok());
}

INSTANTIATE_TEST_SUITE_P(Shards, SnapshotFoldTest, ::testing::Values(1, 4));

TEST(WriterOverlayTest, MultiRowUpdateLayersOverTheSnapshotWithoutCopies) {
  std::unique_ptr<Session> concurrent = MakePayroll(1, true);
  std::unique_ptr<Session> serial = MakePayroll(1, false);
  obs::Counter* scanned =
      obs::MetricsRegistry::Global().GetCounter("api.dml.rows_scanned");
  obs::Counter* copied = obs::MetricsRegistry::Global().GetCounter(
      "concurrency.publish_rows_copied");
  const std::string sql =
      "UPDATE Emp SET Salary = Salary + 7 WHERE DName = 'd2';";

  auto txn = concurrent->OpenSession();
  ASSERT_TRUE(txn.ok());
  const int64_t scanned_before = scanned->value();
  auto staged = (*txn)->Execute(sql);
  ASSERT_TRUE(staged.ok()) << staged.status().ToString();
  EXPECT_EQ(staged->affected, kEmpsPerDept);
  // The DName index probe evaluated exactly the department's rows.
  EXPECT_EQ(scanned->value() - scanned_before, kEmpsPerDept);

  // The overlay shares the pinned snapshot's table as its base and holds
  // only the staged rows: each modify hides one base row, adds one new.
  std::shared_ptr<const Table> snap_emp =
      (*txn)->writer().snapshot().Version("Emp");
  const auto* overlay = dynamic_cast<const TableVersion*>(
      (*txn)->writer().ResolveTable("Emp"));
  ASSERT_NE(overlay, nullptr);
  EXPECT_EQ(&overlay->base(), snap_emp.get());
  EXPECT_EQ(overlay->overlay_rows(), 2 * kEmpsPerDept);
  EXPECT_EQ(overlay->row_count(), kDepts * kEmpsPerDept);

  const int64_t copied_before = copied->value();
  auto outcome = (*txn)->Commit();
  ASSERT_TRUE(outcome.ok() && outcome->committed());
  // Publishing the first versions over epoch 0's bases copies no rows.
  EXPECT_EQ(copied->value() - copied_before, 0);

  auto r = serial->Execute(sql);
  ASSERT_TRUE(r.ok() && r->affected == kEmpsPerDept);
  for (const std::string& name : serial->db().TableNames()) {
    const Table* theirs = concurrent->db().FindTable(name);
    ASSERT_NE(theirs, nullptr) << name;
    EXPECT_EQ(serial->db().FindTable(name)->Fingerprint(),
              theirs->Fingerprint())
        << name;
  }
  ExpectNewestMatchesLive(concurrent.get());
}

}  // namespace
}  // namespace auxview
