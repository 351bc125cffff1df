// Recovery equivalence across every workload and every wal.* crash point:
// a run that crashes mid-commit (or mid-checkpoint), recovers from the
// durable log, and finishes the transaction stream must land bit-identical —
// every base table, every materialized view, every index bucket — to an
// uninterrupted oracle run of the same stream.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "auxview.h"
#include "workload_param.h"

namespace auxview {
namespace {

const std::string& TestRoot() {
  static const std::string root = [] {
    char tmpl[] = "/tmp/auxview_recovery_eq_XXXXXX";
    const char* dir = ::mkdtemp(tmpl);
    return std::string(dir != nullptr ? dir : "/tmp");
  }();
  return root;
}

class TestRootCleanup : public ::testing::Environment {
 public:
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(TestRoot(), ec);
  }
};

const auto* const kCleanup =
    ::testing::AddGlobalTestEnvironment(new TestRootCleanup);

std::string FreshDir() {
  static int n = 0;
  return TestRoot() + "/d" + std::to_string(n++);
}

std::map<std::string, std::string> FingerprintAll(Database& db) {
  std::map<std::string, std::string> out;
  for (const std::string& name : db.TableNames()) {
    out[name] = db.FindTable(name)->Fingerprint();
  }
  return out;
}

/// One workload packaged behind a uniform interface: its catalog, view
/// tree, populate function and transaction mix. `owner` keeps the workload
/// object (which the catalog pointer aliases) alive.
struct CasePack {
  std::string name;
  std::shared_ptr<void> owner;
  const Catalog* catalog = nullptr;
  Expr::Ptr tree;
  std::function<Status(Database*)> populate;
  std::vector<TransactionType> txns;
};

CasePack MakeEmpDept() {
  EmpDeptConfig config;
  config.num_depts = 8;
  config.emps_per_dept = 3;
  config.violation_fraction = 0.2;
  auto w = std::make_shared<EmpDeptWorkload>(config);
  auto tree = w->ProblemDeptTree();
  EXPECT_TRUE(tree.ok());
  return {"emp_dept", w,          &w->catalog(),
          *tree,      [w](Database* db) { return w->Populate(db); },
          {w->TxnModEmp(), w->TxnModDept()}};
}

CasePack MakeFig5() {
  Fig5Config config;
  config.num_items = 20;
  config.orders_per_item = 3;
  config.r_rows_per_item = 2;
  auto w = std::make_shared<Fig5Workload>(config);
  auto tree = w->ViewTree();
  EXPECT_TRUE(tree.ok());
  return {"fig5", w,          &w->catalog(),
          *tree,  [w](Database* db) { return w->Populate(db); },
          {w->TxnModS(), w->TxnModT(), w->TxnModR()}};
}

CasePack MakeStar() {
  StarConfig config;
  config.num_dims = 2;
  config.fact_rows = 60;
  config.dim_rows = 8;
  config.attr_values = 4;
  auto w = std::make_shared<StarWorkload>(config);
  auto tree = w->RollupTree();
  EXPECT_TRUE(tree.ok());
  return {"star", w,          &w->catalog(),
          *tree,  [w](Database* db) { return w->Populate(db); },
          {w->TxnModMeasure(), w->TxnModDimAttr(1), w->TxnInsertFact()}};
}

CasePack MakeChain() {
  ChainConfig config;
  config.num_relations = 3;
  config.rows_per_relation = 40;
  config.fanout = 2;
  config.with_aggregate = true;
  auto w = std::make_shared<ChainWorkload>(config);
  auto tree = w->ChainViewTree();
  EXPECT_TRUE(tree.ok());
  return {"chain", w,          &w->catalog(),
          *tree,   [w](Database* db) { return w->Populate(db); },
          w->AllTxns()};
}

/// The pack a test parameter names.
CasePack MakeWorkload(const WorkloadName& workload) {
  const std::string name = workload.text;
  if (name == "emp_dept") return MakeEmpDept();
  if (name == "fig5") return MakeFig5();
  if (name == "star") return MakeStar();
  EXPECT_EQ(name, "chain");
  return MakeChain();
}

constexpr const char* kCrashPoints[] = {
    "wal.append.partial",
    "wal.fsync.fail",
    "wal.checkpoint.mid",
};

constexpr int kSteps = 8;
constexpr size_t kCrashAt = 4;  // the step whose commit/checkpoint crashes

class RecoveryEquivalenceTest
    : public ::testing::TestWithParam<WorkloadName> {};

TEST_P(RecoveryEquivalenceTest, CrashAtEveryWalPointLandsOnOracleState) {
  FailpointRegistry::Global().DisarmAll();
  const CasePack pack = MakeWorkload(GetParam());
  auto memo = BuildExpandedMemo(pack.tree, *pack.catalog);
  ASSERT_TRUE(memo.ok()) << memo.status().ToString();
  ViewSet views = {memo->root()};
  for (GroupId g : memo->NonLeafGroups()) views.insert(g);
  ViewSelector selector(&*memo, pack.catalog);

  // --- The uninterrupted oracle: record the concrete transaction stream
  // (each instance generated against the evolving database, so the stream
  // replays verbatim on any equal-state mirror) and the final fingerprints.
  Database oracle;
  ASSERT_TRUE(pack.populate(&oracle).ok());
  ViewManager oracle_mgr(&*memo, pack.catalog, &oracle);
  ASSERT_TRUE(oracle_mgr.Materialize(views).ok());

  TxnGenerator gen(20260808);
  std::vector<ConcreteTxn> stream;
  std::vector<TransactionType> types;
  std::vector<UpdateTrack> tracks;
  for (int step = 0; step < kSteps; ++step) {
    const TransactionType& type =
        pack.txns[static_cast<size_t>(step) % pack.txns.size()];
    auto plan = selector.BestTrack(views, type);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    auto txn = gen.Generate(type, oracle);
    ASSERT_TRUE(txn.ok()) << txn.status().ToString();
    Status applied = oracle_mgr.ApplyTransaction(*txn, type, plan->track);
    ASSERT_TRUE(applied.ok()) << "step " << step << ": " << applied.ToString();
    stream.push_back(*txn);
    types.push_back(type);
    tracks.push_back(plan->track);
  }
  const auto expected = FingerprintAll(oracle);

  for (const char* point : kCrashPoints) {
    SCOPED_TRACE(std::string("crash point: ") + point);
    const bool checkpoint_crash =
        std::string(point).rfind("wal.checkpoint.", 0) == 0;
    const std::string dir = FreshDir();

    // --- The victim: same stream, WAL attached, crash at kCrashAt.
    {
      Database db;
      ASSERT_TRUE(
          db.OpenWal(DatabaseOptions{dir, WalFsync::kCommit, 0}).ok());
      ASSERT_TRUE(pack.populate(&db).ok());
      ViewManager mgr(&*memo, pack.catalog, &db);
      ASSERT_TRUE(mgr.Materialize(views).ok());
      // The initial checkpoint covers the bulk load (which bypasses the
      // commit path and is not logged).
      ASSERT_TRUE(
          db.wal()->WriteCheckpoint(BuildCheckpointImage(db, nullptr)).ok());

      const size_t before_crash = checkpoint_crash ? kCrashAt + 1 : kCrashAt;
      for (size_t i = 0; i < before_crash; ++i) {
        ASSERT_TRUE(mgr.ApplyTransaction(stream[i], types[i], tracks[i]).ok());
      }
      FailpointRegistry::Global().ArmAfter(point, 1);
      Status crashed =
          checkpoint_crash
              ? db.wal()->WriteCheckpoint(BuildCheckpointImage(db, nullptr))
              : mgr.ApplyTransaction(stream[kCrashAt], types[kCrashAt],
                                     tracks[kCrashAt]);
      FailpointRegistry::Global().DisarmAll();
      ASSERT_FALSE(crashed.ok());
      EXPECT_EQ(crashed.code(), StatusCode::kAborted);
      EXPECT_NE(crashed.ToString().find(point), std::string::npos)
          << crashed.ToString();
    }  // the process dies here; only the wal directory survives

    // --- Recovery: load the checkpoint, re-derive the views through the
    // DeltaEngine, replay the staged suffix, then finish the stream.
    Database db;
    ASSERT_TRUE(db.OpenWal(DatabaseOptions{dir, WalFsync::kCommit, 0}).ok());
    WalRecovery rec;
    ASSERT_TRUE(db.Recover(&rec).ok());
    ASSERT_TRUE(rec.has_checkpoint);
    if (std::string(point) == "wal.append.partial") {
      // The torn half-frame was found and discarded by the opening scan.
      EXPECT_GT(rec.truncated_tail_bytes, 0);
    }
    const size_t committed = checkpoint_crash ? kCrashAt + 1 : kCrashAt;
    ASSERT_EQ(rec.txns.size(), committed);
    ViewManager mgr(&*memo, pack.catalog, &db);
    {
      WalReplayGuard guard(db.wal());
      ASSERT_TRUE(mgr.Materialize(views).ok());
      for (size_t i = 0; i < rec.txns.size(); ++i) {
        ASSERT_EQ(rec.txns[i].txn.type_name, types[i].name);
        ASSERT_TRUE(
            mgr.ApplyTransaction(rec.txns[i].txn, types[i], tracks[i]).ok());
      }
    }
    // The crashed transaction never committed (append/fsync crashes), so the
    // resumed stream re-runs it; a crashed checkpoint loses nothing.
    for (size_t i = committed; i < stream.size(); ++i) {
      ASSERT_TRUE(mgr.ApplyTransaction(stream[i], types[i], tracks[i]).ok());
    }

    EXPECT_EQ(FingerprintAll(db), expected);
    Status consistent = mgr.CheckConsistency();
    EXPECT_TRUE(consistent.ok()) << consistent.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, RecoveryEquivalenceTest, AllWorkloads(),
                         WorkloadTestName);

}  // namespace
}  // namespace auxview
