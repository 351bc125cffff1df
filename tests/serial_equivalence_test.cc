// Serial equivalence of the optimistic concurrency layer: across every
// workload, a deterministic interleaving of multiple writers — each staging
// against its own pinned snapshot and committing through first-committer-
// wins validation — must leave every base table, materialized view and
// index bucket bit-identical to a single-session replay of exactly the
// committed prefix, in commit order.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "auxview.h"
#include "concurrency/controller.h"
#include "concurrency/writer.h"
#include "workload_param.h"

namespace auxview {
namespace {

std::map<std::string, std::string> FingerprintAll(Database& db) {
  std::map<std::string, std::string> out;
  for (const std::string& name : db.TableNames()) {
    out[name] = db.FindTable(name)->Fingerprint();
  }
  return out;
}

/// One workload packaged behind a uniform interface (the recovery-
/// equivalence harness's CasePack).
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

/// Stages a generated concrete transaction into a writer's delta-set,
/// through the overlay (so multiplicities come from the writer's own view).
Status StageFromConcrete(WriterTxn* writer, const ConcreteTxn& txn) {
  for (const TableUpdate& u : txn.updates) {
    for (const auto& [row, count] : u.inserts) {
      AUXVIEW_RETURN_IF_ERROR(writer->Insert(u.relation, row, count));
    }
    for (const auto& [row, count] : u.deletes) {
      AUXVIEW_RETURN_IF_ERROR(writer->Delete(u.relation, row, count));
    }
    for (const auto& [old_row, new_row] : u.modifies) {
      const Table* overlay = writer->ResolveTable(u.relation);
      if (overlay == nullptr) {
        return Status::NotFound("no such table: " + u.relation);
      }
      AUXVIEW_RETURN_IF_ERROR(writer->Modify(u.relation, old_row, new_row,
                                             overlay->CountOf(old_row)));
    }
  }
  return Status::Ok();
}

constexpr int kRounds = 8;
constexpr int kWriters = 3;

class SerialEquivalenceTest
    : public ::testing::TestWithParam<WorkloadName> {};

TEST_P(SerialEquivalenceTest, CommittedInterleavingReplaysSerially) {
  const CasePack pack = MakeWorkload(GetParam());
  auto memo = BuildExpandedMemo(pack.tree, *pack.catalog);
  ASSERT_TRUE(memo.ok()) << memo.status().ToString();
  ViewSet views = {memo->root()};
  for (GroupId g : memo->NonLeafGroups()) views.insert(g);
  ViewSelector selector(&*memo, pack.catalog);
  const auto track_fn =
      [&](const TransactionType& type) -> StatusOr<UpdateTrack> {
    AUXVIEW_ASSIGN_OR_RETURN(TxnPlan plan, selector.BestTrack(views, type));
    return plan.track;
  };

  // --- The concurrent run: kWriters optimistic writers over one database.
  Database db;
  ASSERT_TRUE(pack.populate(&db).ok());
  ViewManager mgr(&*memo, pack.catalog, &db);
  ASSERT_TRUE(mgr.Materialize(views).ok());
  ConcurrencyController controller(pack.catalog, &db, &mgr, pack.txns,
                                   track_fn);

  // The committed prefix: the exact netted transaction each successful
  // commit funneled through the pipeline, in commit order.
  std::vector<ConcreteTxn> committed;
  int conflicts = 0;
  TxnGenerator gen(20260808);
  for (int round = 0; round < kRounds; ++round) {
    // All writers pin the same epoch, then stage privately: every writer's
    // snapshot equals the live committed state during the staging phase, so
    // TxnGenerator (which reads the live database) generates exactly what
    // each writer would have read through its own snapshot.
    std::vector<std::unique_ptr<WriterTxn>> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.push_back(std::make_unique<WriterTxn>(&controller));
      const TransactionType& type =
          pack.txns[static_cast<size_t>(round + w) % pack.txns.size()];
      auto txn = gen.Generate(type, db);
      ASSERT_TRUE(txn.ok()) << txn.status().ToString();
      Status staged = StageFromConcrete(writers.back().get(), *txn);
      ASSERT_TRUE(staged.ok()) << staged.ToString();
    }
    // Commit in writer order. Later writers staged against the same
    // snapshot, so overlapping victim rows must lose to the first
    // committer; disjoint footprints must sail through.
    for (auto& writer : writers) {
      const ConcreteTxn netted = writer->delta().ToConcreteTxn();
      auto outcome = writer->Commit();
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      switch (outcome->kind) {
        case CommitOutcome::Kind::kCommitted:
          if (!netted.updates.empty()) committed.push_back(netted);
          break;
        case CommitOutcome::Kind::kConflict:
          ++conflicts;
          writer->Restart();
          break;
        case CommitOutcome::Kind::kRejected:
          FAIL() << "no assertions declared, yet rejected: "
                 << outcome->detail;
      }
    }
  }
  // The first writer of every round always wins. Whether later writers in
  // a round conflicted is workload-dependent (disjoint victim rows commit
  // cleanly), so force one deterministic conflict: a whole-relation reader
  // pinned before a committed write to that relation must lose.
  ASSERT_GE(static_cast<int>(committed.size()), kRounds);
  {
    const std::string& rel = pack.txns[0].updates[0].relation;
    WriterTxn reader(&controller);
    ASSERT_TRUE(reader.Scan(rel).ok());
    WriterTxn writer(&controller);
    auto txn = gen.Generate(pack.txns[0], db);
    ASSERT_TRUE(txn.ok()) << txn.status().ToString();
    ASSERT_FALSE(txn->updates.empty());
    ASSERT_TRUE(StageFromConcrete(&writer, *txn).ok());
    const ConcreteTxn netted = writer.delta().ToConcreteTxn();
    auto won = writer.Commit();
    ASSERT_TRUE(won.ok()) << won.status().ToString();
    ASSERT_TRUE(won->committed());
    if (!netted.updates.empty()) committed.push_back(netted);
    auto lost = reader.Commit();
    ASSERT_TRUE(lost.ok()) << lost.status().ToString();
    EXPECT_EQ(lost->kind, CommitOutcome::Kind::kConflict)
        << pack.name << ": stale whole-relation read did not conflict";
    ++conflicts;
  }
  EXPECT_GT(conflicts, 0);
  const auto concurrent_state = FingerprintAll(db);
  Status consistent = mgr.CheckConsistency();
  ASSERT_TRUE(consistent.ok()) << consistent.ToString();

  // --- The serial oracle: a fresh single-session mirror replays exactly
  // the committed prefix, in commit order, through the normal pipeline.
  Database mirror;
  ASSERT_TRUE(pack.populate(&mirror).ok());
  ViewManager mirror_mgr(&*memo, pack.catalog, &mirror);
  ASSERT_TRUE(mirror_mgr.Materialize(views).ok());
  for (const ConcreteTxn& txn : committed) {
    const TransactionType type =
        DeriveTransactionType(txn, pack.txns, *pack.catalog);
    auto track = track_fn(type);
    ASSERT_TRUE(track.ok()) << track.status().ToString();
    Status applied = mirror_mgr.ApplyTransaction(txn, type, *track);
    ASSERT_TRUE(applied.ok()) << applied.ToString();
  }

  EXPECT_EQ(FingerprintAll(mirror), concurrent_state)
      << pack.name << ": concurrent commit order is not serial-equivalent";
  Status mirror_consistent = mirror_mgr.CheckConsistency();
  EXPECT_TRUE(mirror_consistent.ok()) << mirror_consistent.ToString();
}

INSTANTIATE_TEST_SUITE_P(Workloads, SerialEquivalenceTest, AllWorkloads(),
                         WorkloadTestName);

}  // namespace
}  // namespace auxview
