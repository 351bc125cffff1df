// Bit-identity of parallel delta propagation: for every workload, running
// the same transaction stream with 1, 2, 4 and 8 propagation workers
// (MaintainOptions::threads) must produce identical per-transaction charged
// page I/O, identical table and index fingerprints after every commit, and
// identical fetch-cache hit/miss totals — parallelism may only change wall
// clock, never results or modeled costs (docs/CONCURRENCY.md,
// "Intra-transaction parallelism"). Also covered: hash-partitioned kernel
// execution forced on via a tiny row threshold, the pool.task.fail
// failpoint (an injected worker-task fault aborts the transaction and
// leaves the database bit-identical), and a multi-thread soak that gives
// ThreadSanitizer real concurrent schedules to chew on.

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

/// Forces (or restores) hash-partitioned kernel execution for a scope.
class ScopedPartitionConfig {
 public:
  ScopedPartitionConfig(int64_t min_rows, int count)
      : old_min_(kernels::PartitionMinRows()),
        old_count_(kernels::PartitionCount()) {
    kernels::SetPartitionMinRows(min_rows);
    kernels::SetPartitionCount(count);
  }
  ~ScopedPartitionConfig() {
    kernels::SetPartitionMinRows(old_min_);
    kernels::SetPartitionCount(old_count_);
  }

  ScopedPartitionConfig(const ScopedPartitionConfig&) = delete;
  ScopedPartitionConfig& operator=(const ScopedPartitionConfig&) = delete;

 private:
  int64_t old_min_;
  int old_count_;
};

/// One workload packaged behind a uniform interface (the serial- and
/// recovery-equivalence harnesses' CasePack).
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

/// Everything observable about one run of a transaction stream.
struct RunTrace {
  /// Charged page I/O of each committed transaction.
  std::vector<int64_t> txn_ios;
  /// Full physical state after each commit.
  std::vector<std::map<std::string, std::string>> states;
  /// Fetch-cache totals across the run (schedule-independent by design:
  /// the fetch-request set is a pure function of the frozen pre-update
  /// state, so hit/miss counts match the sequential path exactly).
  int64_t fetch_hits = 0;
  int64_t fetch_misses = 0;
};

constexpr int kSteps = 12;

/// Replays `kSteps` generated transactions (round-robin over the declared
/// types, fixed seed) with the given worker count and records the trace.
void RunStream(const CasePack& pack, const Memo& memo, const ViewSet& views,
               int threads, RunTrace* out) {
  obs::Counter* hits =
      obs::MetricsRegistry::Global().GetCounter("maintain.fetch_cache_hits");
  obs::Counter* misses =
      obs::MetricsRegistry::Global().GetCounter("maintain.fetch_cache_misses");
  RunTrace& trace = *out;
  Database db;
  EXPECT_TRUE(pack.populate(&db).ok());
  MaintainOptions options;
  options.threads = threads;
  ViewManager mgr(&memo, pack.catalog, &db, options);
  EXPECT_TRUE(mgr.Materialize(views).ok());
  ViewSelector selector(&memo, pack.catalog);
  const int64_t hits_before = hits->value();
  const int64_t misses_before = misses->value();
  TxnGenerator gen(20260808);
  for (int step = 0; step < kSteps; ++step) {
    const TransactionType& type =
        pack.txns[static_cast<size_t>(step) % pack.txns.size()];
    auto plan = selector.BestTrack(views, type);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    auto txn = gen.Generate(type, db);
    ASSERT_TRUE(txn.ok()) << txn.status().ToString();
    const int64_t ios_before = db.counter().total();
    Status applied = mgr.ApplyTransaction(*txn, type, plan->track);
    ASSERT_TRUE(applied.ok())
        << pack.name << " step " << step << ": " << applied.ToString();
    trace.txn_ios.push_back(db.counter().total() - ios_before);
    trace.states.push_back(FingerprintAll(db));
  }
  trace.fetch_hits = hits->value() - hits_before;
  trace.fetch_misses = misses->value() - misses_before;
  Status consistent = mgr.CheckConsistency();
  EXPECT_TRUE(consistent.ok()) << pack.name << ": " << consistent.ToString();
}

void ExpectTracesIdentical(const CasePack& pack, const RunTrace& base,
                           const RunTrace& other, int threads) {
  SCOPED_TRACE(pack.name + " with " + std::to_string(threads) + " threads");
  ASSERT_EQ(other.txn_ios.size(), base.txn_ios.size());
  for (size_t i = 0; i < base.txn_ios.size(); ++i) {
    EXPECT_EQ(other.txn_ios[i], base.txn_ios[i])
        << "charged I/O diverged at step " << i;
    EXPECT_EQ(other.states[i], base.states[i])
        << "physical state diverged at step " << i;
  }
  EXPECT_EQ(other.fetch_hits, base.fetch_hits);
  EXPECT_EQ(other.fetch_misses, base.fetch_misses);
}

class ParallelPropagationTest
    : public ::testing::TestWithParam<WorkloadName> {};

TEST_P(ParallelPropagationTest, ThreadCountsAreBitIdentical) {
  const CasePack pack = MakeWorkload(GetParam());
  auto memo = BuildExpandedMemo(pack.tree, *pack.catalog);
  ASSERT_TRUE(memo.ok()) << memo.status().ToString();
  ViewSet views = {memo->root()};
  for (GroupId g : memo->NonLeafGroups()) views.insert(g);

  RunTrace base;
  RunStream(pack, *memo, views, 1, &base);
  for (int threads : {2, 4, 8}) {
    RunTrace trace;
    RunStream(pack, *memo, views, threads, &trace);
    ExpectTracesIdentical(pack, base, trace, threads);
  }
}

TEST_P(ParallelPropagationTest, PartitionedKernelsAreBitIdentical) {
  const CasePack pack = MakeWorkload(GetParam());
  auto memo = BuildExpandedMemo(pack.tree, *pack.catalog);
  ASSERT_TRUE(memo.ok()) << memo.status().ToString();
  ViewSet views = {memo->root()};
  for (GroupId g : memo->NonLeafGroups()) views.insert(g);

  // Unpartitioned sequential reference first, then a threshold so low that
  // every kernel call with >= 2 rows splits into 4 hash partitions — for
  // both the sequential and the parallel runs, the merged outputs must be
  // byte-identical to the unpartitioned reference.
  RunTrace base;
  RunStream(pack, *memo, views, 1, &base);
  ScopedPartitionConfig force_partitions(/*min_rows=*/2, /*count=*/4);
  for (int threads : {1, 4}) {
    RunTrace trace;
    RunStream(pack, *memo, views, threads, &trace);
    ExpectTracesIdentical(pack, base, trace, threads);
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, ParallelPropagationTest, AllWorkloads(),
                         WorkloadTestName);

// An injected fault inside any worker task — swept across every task the
// transaction spawns — must abort the transaction with the failpoint's
// status and leave every table and index bit-identical to the
// pre-transaction state; re-running with the failpoint disarmed must then
// produce exactly the sequential result.
TEST(ParallelPropagationFailpointTest, PoolTaskFailRollsBackBitIdentical) {
  const CasePack pack = MakeChain();
  auto memo = BuildExpandedMemo(pack.tree, *pack.catalog);
  ASSERT_TRUE(memo.ok()) << memo.status().ToString();
  ViewSet views = {memo->root()};
  for (GroupId g : memo->NonLeafGroups()) views.insert(g);
  ViewSelector selector(&*memo, pack.catalog);
  const TransactionType& type = pack.txns[0];
  auto plan = selector.BestTrack(views, type);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  // The sequential oracle: one committed transaction, threads = 1.
  std::map<std::string, std::string> expected;
  {
    Database db;
    ASSERT_TRUE(pack.populate(&db).ok());
    ViewManager mgr(&*memo, pack.catalog, &db);
    ASSERT_TRUE(mgr.Materialize(views).ok());
    TxnGenerator gen(20260808);
    auto txn = gen.Generate(type, db);
    ASSERT_TRUE(txn.ok()) << txn.status().ToString();
    ASSERT_TRUE(mgr.ApplyTransaction(*txn, type, plan->track).ok());
    expected = FingerprintAll(db);
  }

  // The victim: 4 workers, partitioning forced on (so the sweep also walks
  // partition subtasks), the failpoint armed at every successive task hit.
  ScopedPartitionConfig force_partitions(/*min_rows=*/2, /*count=*/4);
  Database db;
  ASSERT_TRUE(pack.populate(&db).ok());
  MaintainOptions options;
  options.threads = 4;
  ViewManager mgr(&*memo, pack.catalog, &db, options);
  ASSERT_TRUE(mgr.Materialize(views).ok());
  const auto pristine = FingerprintAll(db);
  TxnGenerator gen(20260808);
  auto txn = gen.Generate(type, db);
  ASSERT_TRUE(txn.ok()) << txn.status().ToString();

  FailpointRegistry& reg = FailpointRegistry::Global();
  reg.DisarmAll();
  int aborted = 0;
  bool committed = false;
  for (int nth = 1; nth <= 500; ++nth) {
    reg.ArmAfter("pool.task.fail", nth);
    Status st = mgr.ApplyTransaction(*txn, type, plan->track);
    reg.DisarmAll();
    if (st.ok()) {
      committed = true;
      break;
    }
    SCOPED_TRACE("task hit " + std::to_string(nth));
    EXPECT_EQ(st.code(), StatusCode::kAborted) << st.ToString();
    EXPECT_NE(st.ToString().find("pool.task.fail"), std::string::npos)
        << st.ToString();
    EXPECT_EQ(FingerprintAll(db), pristine)
        << "aborted transaction left visible state behind";
    ++aborted;
  }
  ASSERT_TRUE(committed) << "failpoint sweep never ran off the task count";
  EXPECT_GT(aborted, 0) << "the sweep never reached a worker task";
  EXPECT_EQ(FingerprintAll(db), expected)
      << "post-sweep commit diverged from the sequential oracle";
  Status consistent = mgr.CheckConsistency();
  EXPECT_TRUE(consistent.ok()) << consistent.ToString();
}

// A longer mixed-type stream at 8 workers with partitioning forced on:
// nothing to assert beyond consistency — the value is the schedule space it
// exposes to ThreadSanitizer (the CI thread-sanitize job runs this test).
TEST(ParallelPropagationSoakTest, MultiThreadSoak) {
  const CasePack pack = MakeChain();
  auto memo = BuildExpandedMemo(pack.tree, *pack.catalog);
  ASSERT_TRUE(memo.ok()) << memo.status().ToString();
  ViewSet views = {memo->root()};
  for (GroupId g : memo->NonLeafGroups()) views.insert(g);

  ScopedPartitionConfig force_partitions(/*min_rows=*/2, /*count=*/4);
  Database db;
  ASSERT_TRUE(pack.populate(&db).ok());
  MaintainOptions options;
  options.threads = 8;
  ViewManager mgr(&*memo, pack.catalog, &db, options);
  ASSERT_TRUE(mgr.Materialize(views).ok());
  ViewSelector selector(&*memo, pack.catalog);
  TxnGenerator gen(20260808);
  for (int step = 0; step < 30; ++step) {
    const TransactionType& type =
        pack.txns[static_cast<size_t>(step) % pack.txns.size()];
    auto plan = selector.BestTrack(views, type);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    auto txn = gen.Generate(type, db);
    ASSERT_TRUE(txn.ok()) << txn.status().ToString();
    Status applied = mgr.ApplyTransaction(*txn, type, plan->track);
    ASSERT_TRUE(applied.ok())
        << "step " << step << ": " << applied.ToString();
  }
  Status consistent = mgr.CheckConsistency();
  EXPECT_TRUE(consistent.ok()) << consistent.ToString();
}

}  // namespace
}  // namespace auxview
