// Bit-identity of hash-sharded maintenance: the same transaction stream
// replayed against databases with 1, 2, 4 and 8 shards must produce
// identical per-transaction charged page I/O and identical table and index
// fingerprints after every commit — sharding may change which sub-table
// stores a row and where propagation work runs, never results or modeled
// costs (docs/SHARDING.md). The stream is recorded once against the
// 1-shard database and replayed verbatim (TxnGenerator samples rows in
// scan order, which a sharded layout permutes). Also covered: the
// LocalityClassifier's routing verdicts per workload (emp_dept and fig5
// decompose, star and chain fall back to the global path), the
// shard.route.fail failpoint (an injected routing fault aborts the
// transaction bit-identically), and MaintainOptions::adaptive_partitioning
// (identical traces with the adaptive threshold on).

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "auxview.h"
#include "common/failpoint.h"
#include "exec/kernels/kernels.h"
#include "obs/metrics.h"
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

/// One workload packaged behind a uniform interface (the parallel- and
/// serial-equivalence harnesses' CasePack).
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

/// Everything observable about one run of a transaction stream, plus the
/// shard-routing counters the run moved.
struct RunTrace {
  std::vector<int64_t> txn_ios;
  std::vector<std::map<std::string, std::string>> states;
  int64_t sharded_txns = 0;
  int64_t fallback_txns = 0;
};

constexpr int kSteps = 12;

/// Records `kSteps` transactions (round-robin over the declared types,
/// fixed seed) from a 1-shard database. The recorded transactions replay
/// verbatim at every other shard count, so all runs see byte-identical
/// update streams.
std::vector<std::pair<ConcreteTxn, const TransactionType*>> RecordStream(
    const CasePack& pack) {
  std::vector<std::pair<ConcreteTxn, const TransactionType*>> out;
  Database db;
  EXPECT_TRUE(pack.populate(&db).ok());
  TxnGenerator gen(20260808);
  for (int step = 0; step < kSteps; ++step) {
    const TransactionType& type =
        pack.txns[static_cast<size_t>(step) % pack.txns.size()];
    auto txn = gen.Generate(type, db);
    EXPECT_TRUE(txn.ok()) << txn.status().ToString();
    // Keep the generator's view of the database in sync with the stream:
    // apply the raw base updates (fingerprints come from the maintained
    // replays, not from this recording database).
    for (const TableUpdate& update : txn->updates) {
      Table* t = db.FindTable(update.relation);
      if (t == nullptr) {
        ADD_FAILURE() << "missing table " << update.relation;
        continue;
      }
      for (const auto& [row, count] : update.inserts) {
        EXPECT_TRUE(t->Apply(row, count).ok());
      }
      for (const auto& [row, count] : update.deletes) {
        EXPECT_TRUE(t->Apply(row, -count).ok());
      }
      for (const auto& [old_row, new_row] : update.modifies) {
        const int64_t c = t->CountOf(old_row);
        EXPECT_TRUE(t->Apply(old_row, -c).ok());
        EXPECT_TRUE(t->Apply(new_row, c).ok());
      }
    }
    out.emplace_back(std::move(*txn), &type);
  }
  return out;
}

/// Replays a recorded stream against a fresh `shards`-way database.
void ReplayStream(
    const CasePack& pack, const Memo& memo, const ViewSet& views, int shards,
    const std::vector<std::pair<ConcreteTxn, const TransactionType*>>& stream,
    bool adaptive, RunTrace* out) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Counter* sharded = reg.GetCounter("maintain.shard.sharded_txns");
  obs::Counter* fallback = reg.GetCounter("maintain.shard.fallback_txns");
  RunTrace& trace = *out;
  Database db;
  db.set_shard_count(shards);
  EXPECT_TRUE(pack.populate(&db).ok());
  MaintainOptions options;
  options.threads = shards > 1 ? 4 : 1;
  options.adaptive_partitioning = adaptive;
  ViewManager mgr(&memo, pack.catalog, &db, options);
  EXPECT_TRUE(mgr.Materialize(views).ok());
  ViewSelector selector(&memo, pack.catalog);
  const int64_t sharded_before = sharded->value();
  const int64_t fallback_before = fallback->value();
  for (size_t step = 0; step < stream.size(); ++step) {
    const TransactionType& type = *stream[step].second;
    auto plan = selector.BestTrack(views, type);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    const int64_t ios_before = db.counter().total();
    Status applied = mgr.ApplyTransaction(stream[step].first, type,
                                          plan->track);
    ASSERT_TRUE(applied.ok())
        << pack.name << " step " << step << ": " << applied.ToString();
    trace.txn_ios.push_back(db.counter().total() - ios_before);
    trace.states.push_back(FingerprintAll(db));
  }
  trace.sharded_txns = sharded->value() - sharded_before;
  trace.fallback_txns = fallback->value() - fallback_before;
  Status consistent = mgr.CheckConsistency();
  EXPECT_TRUE(consistent.ok()) << pack.name << ": " << consistent.ToString();
}

void ExpectTracesIdentical(const CasePack& pack, const RunTrace& base,
                           const RunTrace& other, int shards) {
  SCOPED_TRACE(pack.name + " with " + std::to_string(shards) + " shards");
  ASSERT_EQ(other.txn_ios.size(), base.txn_ios.size());
  for (size_t i = 0; i < base.txn_ios.size(); ++i) {
    EXPECT_EQ(other.txn_ios[i], base.txn_ios[i])
        << "charged I/O diverged at step " << i;
    EXPECT_EQ(other.states[i], base.states[i])
        << "physical state diverged at step " << i;
  }
}

class ShardedEquivalenceTest
    : public ::testing::TestWithParam<WorkloadName> {};

TEST_P(ShardedEquivalenceTest, ShardCountsAreBitIdentical) {
  const CasePack pack = MakeWorkload(GetParam());
  auto memo = BuildExpandedMemo(pack.tree, *pack.catalog);
  ASSERT_TRUE(memo.ok()) << memo.status().ToString();
  ViewSet views = {memo->root()};
  for (GroupId g : memo->NonLeafGroups()) views.insert(g);

  const auto stream = RecordStream(pack);
  ASSERT_EQ(stream.size(), static_cast<size_t>(kSteps));
  RunTrace base;
  ReplayStream(pack, *memo, views, 1, stream, /*adaptive=*/false, &base);
  EXPECT_EQ(base.sharded_txns, 0) << "1-shard run took the per-shard path";
  EXPECT_EQ(base.fallback_txns, 0) << "fallback counted on a 1-shard run";
  for (int shards : {2, 4, 8}) {
    RunTrace trace;
    ReplayStream(pack, *memo, views, shards, stream, /*adaptive=*/false,
                 &trace);
    ExpectTracesIdentical(pack, base, trace, shards);
    EXPECT_EQ(trace.sharded_txns + trace.fallback_txns, kSteps)
        << pack.name << ": every transaction routes exactly once";
  }
}

TEST_P(ShardedEquivalenceTest, AdaptivePartitioningIsBitIdentical) {
  const CasePack pack = MakeWorkload(GetParam());
  auto memo = BuildExpandedMemo(pack.tree, *pack.catalog);
  ASSERT_TRUE(memo.ok()) << memo.status().ToString();
  ViewSet views = {memo->root()};
  for (GroupId g : memo->NonLeafGroups()) views.insert(g);

  const auto stream = RecordStream(pack);
  RunTrace base;
  ReplayStream(pack, *memo, views, 1, stream, /*adaptive=*/false, &base);
  // Adaptive mode mutates the global kernel threshold; restore it after.
  const int64_t old_min = kernels::PartitionMinRows();
  for (int shards : {1, 4}) {
    RunTrace trace;
    ReplayStream(pack, *memo, views, shards, stream, /*adaptive=*/true,
                 &trace);
    ExpectTracesIdentical(pack, base, trace, shards);
  }
  kernels::SetPartitionMinRows(old_min);
}

INSTANTIATE_TEST_SUITE_P(Workloads, ShardedEquivalenceTest, AllWorkloads(),
                         WorkloadTestName);

// The classifier's routing verdicts, pinned per workload: emp_dept and
// fig5 shard on their join/group-by attribute, so every declared
// transaction type decomposes; star's rollup groups by dimension
// attributes its fact alignment cannot reach, so every type falls back;
// chain decomposes only for updates of its head relation.
TEST(ShardedRoutingTest, WorkloadVerdictsMatchTheLattice) {
  struct Expectation {
    std::function<CasePack()> make;
    int decomposed_per_round;   // of one round-robin over pack.txns
    int cross_shard_per_round;  // tracks whose worst fetch escapes a shard
  };
  const std::vector<Expectation> cases = {
      // emp_dept: everything shards on DName, the join/group-by attribute
      // — both txn types decompose and no probe escapes its shard.
      {MakeEmpDept, 2, 0},
      // fig5: all three relations shard on Item — same story.
      {MakeFig5, 3, 0},
      // star: dimension probes stay key-local, but the rollup's group-by
      // (dimension attributes) cannot cover the fact's {D1} alignment, so
      // nothing decomposes.
      {MakeStar, 0, 0},
      // chain: only the head relation's modify decomposes; modifying R2 or
      // R3 probes the upstream relation on the join attribute, which is
      // not that relation's shard key, so those two classify cross-shard.
      {MakeChain, 1, 2},
  };
  for (const Expectation& expect : cases) {
    const CasePack pack = expect.make();
    SCOPED_TRACE(pack.name);
    auto memo = BuildExpandedMemo(pack.tree, *pack.catalog);
    ASSERT_TRUE(memo.ok()) << memo.status().ToString();
    ViewSet views = {memo->root()};
    for (GroupId g : memo->NonLeafGroups()) views.insert(g);
    ViewSelector selector(&*memo, pack.catalog);
    StatsAnalysis stats(&*memo, pack.catalog);
    DeltaAnalysis delta(&*memo, pack.catalog, &stats);
    LocalityClassifier classifier(&*memo, pack.catalog, &delta);
    int decomposed = 0;
    int cross_shard = 0;
    for (const TransactionType& type : pack.txns) {
      auto plan = selector.BestTrack(views, type);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      auto report = classifier.Classify(plan->track, views, type);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      if (report->locality == TrackLocality::kCrossShard) {
        ++cross_shard;
        EXPECT_FALSE(report->decomposable)
            << type.name << ": a cross-shard track must not decompose";
      }
      if (report->decomposable) ++decomposed;
    }
    EXPECT_EQ(decomposed, expect.decomposed_per_round);
    EXPECT_EQ(cross_shard, expect.cross_shard_per_round);
  }
}

// An injected routing fault (shard.route.fail, hit before the delta is
// partitioned) must abort the transaction and leave every table and index
// bit-identical; re-running disarmed must commit the sequential result.
TEST(ShardedRoutingTest, RouteFailpointRollsBackBitIdentical) {
  const CasePack pack = MakeEmpDept();
  auto memo = BuildExpandedMemo(pack.tree, *pack.catalog);
  ASSERT_TRUE(memo.ok()) << memo.status().ToString();
  ViewSet views = {memo->root()};
  for (GroupId g : memo->NonLeafGroups()) views.insert(g);
  const auto stream = RecordStream(pack);

  // The 1-shard oracle: one committed transaction.
  std::map<std::string, std::string> expected;
  {
    Database db;
    ASSERT_TRUE(pack.populate(&db).ok());
    ViewManager mgr(&*memo, pack.catalog, &db);
    ASSERT_TRUE(mgr.Materialize(views).ok());
    ViewSelector selector(&*memo, pack.catalog);
    auto plan = selector.BestTrack(views, *stream[0].second);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    ASSERT_TRUE(
        mgr.ApplyTransaction(stream[0].first, *stream[0].second, plan->track)
            .ok());
    expected = FingerprintAll(db);
  }

  Database db;
  db.set_shard_count(4);
  ASSERT_TRUE(pack.populate(&db).ok());
  ViewManager mgr(&*memo, pack.catalog, &db);
  ASSERT_TRUE(mgr.Materialize(views).ok());
  ViewSelector selector(&*memo, pack.catalog);
  auto plan = selector.BestTrack(views, *stream[0].second);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const auto pristine = FingerprintAll(db);

  FailpointRegistry& reg = FailpointRegistry::Global();
  reg.DisarmAll();
  reg.ArmAfter("shard.route.fail", 1);
  Status st =
      mgr.ApplyTransaction(stream[0].first, *stream[0].second, plan->track);
  reg.DisarmAll();
  EXPECT_EQ(st.code(), StatusCode::kAborted) << st.ToString();
  EXPECT_NE(st.ToString().find("shard.route.fail"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(FingerprintAll(db), pristine)
      << "aborted routing left visible state behind";

  ASSERT_TRUE(
      mgr.ApplyTransaction(stream[0].first, *stream[0].second, plan->track)
          .ok());
  EXPECT_EQ(FingerprintAll(db), expected)
      << "post-abort commit diverged from the 1-shard oracle";
  Status consistent = mgr.CheckConsistency();
  EXPECT_TRUE(consistent.ok()) << consistent.ToString();
}

// A self-maintainable verdict arms a runtime CHECK against base fetches.
// This test proves the guard is wired: a track that classifies
// self-maintainable (every queried input materialized) commits fine with
// the guard armed — and the engine's class counters record the verdict.
TEST(ShardedRoutingTest, SelfMaintainableTracksCommitUnderTheGuard) {
  const CasePack pack = MakeEmpDept();
  auto memo = BuildExpandedMemo(pack.tree, *pack.catalog);
  ASSERT_TRUE(memo.ok()) << memo.status().ToString();
  ViewSet views = {memo->root()};
  for (GroupId g : memo->NonLeafGroups()) views.insert(g);
  const auto stream = RecordStream(pack);

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Counter* self_c =
      reg.GetCounter("maintain.shard.class_self_maintainable");
  obs::Counter* key_local_c = reg.GetCounter("maintain.shard.class_key_local");
  obs::Counter* cross_c = reg.GetCounter("maintain.shard.class_cross_shard");
  const int64_t before =
      self_c->value() + key_local_c->value() + cross_c->value();

  Database db;
  db.set_shard_count(2);
  ASSERT_TRUE(pack.populate(&db).ok());
  ViewManager mgr(&*memo, pack.catalog, &db);
  ASSERT_TRUE(mgr.Materialize(views).ok());
  ViewSelector selector(&*memo, pack.catalog);
  for (size_t step = 0; step < stream.size(); ++step) {
    auto plan = selector.BestTrack(views, *stream[step].second);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    ASSERT_TRUE(
        mgr.ApplyTransaction(stream[step].first, *stream[step].second,
                             plan->track)
            .ok());
  }
  const int64_t classified =
      self_c->value() + key_local_c->value() + cross_c->value() - before;
  EXPECT_EQ(classified, kSteps) << "every transaction classifies exactly once";
  Status consistent = mgr.CheckConsistency();
  EXPECT_TRUE(consistent.ok()) << consistent.ToString();
}

}  // namespace
}  // namespace auxview
