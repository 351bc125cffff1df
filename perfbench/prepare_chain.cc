// prepare_chain: optimizer-bound set-up. Every operation builds a fresh
// Session over a k-relation chain join with SUM (1k rows per relation),
// declares one modify transaction per relation and times Session::Prepare.
// Two scripts alternate: chain-4 under the exhaustive search (the primary
// kind) and chain-5 under greedy selection (the secondary kind).
#include <algorithm>
#include <cstdio>
#include <memory>

#include "workloads.h"

namespace perfbench {

using namespace auxview;

namespace {

/// Plan costs recorded when the benchmark was defined. Both are the same
/// for every seed and scale, because the generated statistics are. The
/// exhaustive optimum must be reproduced exactly; the greedy plan may only
/// get cheaper.
constexpr double kChain4ExhaustiveCost = 22.25;
constexpr double kChain5GreedyCost = 26.4;

struct Script {
  int relations;
  Strategy strategy;
  double recorded_cost;
  std::string ddl;
  std::vector<std::string> load;
  std::vector<TransactionType> workload;
  /// Weighted cost of the untimed warm-up's plan; every later plan of this
  /// script must match it exactly.
  double baseline_cost = 0;
};

/// Chain R1(A0, A1, V1) ⋈ R2(A1, A2, V2) ⋈ ... with SUM(Vk) by A0. Each
/// join value occurs exactly four times and each V value exactly twice, so
/// the statistics the optimizer sees do not depend on the seed.
Script MakeScript(int k, Strategy strategy, double recorded_cost, int rows,
                  uint64_t seed) {
  Script s;
  s.relations = k;
  s.strategy = strategy;
  s.recorded_cost = recorded_cost;
  Rng rng(seed);
  std::string from;
  std::string where;
  for (int i = 1; i <= k; ++i) {
    const std::string r = "R" + std::to_string(i);
    const std::string key = "A" + std::to_string(i - 1);
    const std::string next = "A" + std::to_string(i);
    const std::string val = "V" + std::to_string(i);
    s.ddl += "CREATE TABLE " + r + " (" + key + " INT PRIMARY KEY, " + next +
             " INT, " + val + " INT, INDEX (" + next + "));\n";
    from += (i > 1 ? ", " : "") + r;
    if (i > 1) {
      where += (i > 2 ? " AND R" : "R") + std::to_string(i - 1) + "." + key +
               " = " + r + "." + key;
    }
    s.workload.push_back(SingleModifyTxn(">" + r, r, {val}, 1));

    std::vector<int> nexts;
    std::vector<int> vals;
    for (int j = 0; j < rows; ++j) {
      nexts.push_back(j % std::max(1, rows / 4));
      vals.push_back(j % std::max(1, rows / 2));
    }
    Shuffle(&nexts, &rng);
    Shuffle(&vals, &rng);
    std::string sql = "INSERT INTO " + r + " VALUES ";
    for (int j = 0; j < rows; ++j) {
      sql += (j ? ", (" : "(") + std::to_string(j) + ", " +
             std::to_string(nexts[static_cast<size_t>(j)]) + ", " +
             std::to_string(vals[static_cast<size_t>(j)]) + ")";
    }
    s.load.push_back(sql + ";");
  }
  s.ddl += "CREATE VIEW ChainSum (A0, VSum) AS SELECT A0, SUM(V" +
           std::to_string(k) + ") FROM " + from + " WHERE " + where +
           " GROUPBY A0;\n";
  return s;
}

/// Fresh session with the script's schema, data and workload (the set-up
/// half of one operation).
StatusOr<std::unique_ptr<Session>> SetUp(const Script& script) {
  SessionOptions options;
  options.strategy = script.strategy;
  auto session = std::make_unique<Session>(options);
  AUXVIEW_RETURN_IF_ERROR(session->Execute(script.ddl).status());
  for (const std::string& sql : script.load) {
    AUXVIEW_RETURN_IF_ERROR(session->Execute(sql).status());
  }
  session->DeclareWorkload(script.workload);
  return session;
}

}  // namespace

void RunPrepareChain(const RunOptions& opts, Oracle* oracle, Report* report) {
  const int rows = std::max(40, static_cast<int>(1000 * opts.scale));
  Script scripts[2] = {
      MakeScript(4, Strategy::kExhaustive, kChain4ExhaustiveCost, rows,
                 opts.seed * 2 + 1),
      MakeScript(5, Strategy::kGreedy, kChain5GreedyCost, rows,
                 opts.seed * 2 + 2)};

  Tracer tracer(opts.trace);
  Layers layers;
  EndToEnd e2e;
  StreamHash stream;

  // Untimed warm-up per script: the first Prepare of each script fixes the
  // plan every later one must reproduce, and is checked against the
  // recorded cost.
  for (Script& script : scripts) {
    e2e.calibration.Sample(10);
    stream.Add(script.ddl);
    for (const std::string& sql : script.load) stream.Add(sql);
    auto session = SetUp(script);
    if (!oracle->Check(session.ok() && RunPrepare(session->get()).status.ok(),
                       "warm-up prepare")) {
      return;
    }
    script.baseline_cost = (*session)->plan().weighted_cost;
    std::printf("  chain-%d %s plan cost %.17g\n", script.relations,
                StrategyName(script.strategy), script.baseline_cost);
    if (script.strategy == Strategy::kExhaustive) {
      oracle->Check(script.baseline_cost == script.recorded_cost,
                    "exhaustive plan cost equals the recorded optimum");
      e2e.space_ratio = SpaceRatio((*session)->db());
    } else {
      oracle->Check(script.baseline_cost <= script.recorded_cost + 1e-9,
                    "greedy plan cost no higher than the recorded one");
    }
  }

  // Wall time of the operations: the run's length. It ends on a whole pair,
  // with at least two of each script.
  double run_s = 0;
  for (int64_t i = 0; i % 2 == 1 || i < 4 || run_s < opts.seconds; ++i) {
    const Script& script = scripts[i % 2];
    const Clock::time_point op_start = Clock::now();
    SpanScope root(&tracer, "op.prepare", i);
    if (opts.trace) TimeParse(script.ddl, &tracer, i, &layers);
    const Clock::time_point setup_start = Clock::now();
    StatusOr<std::unique_ptr<Session>> session = [&] {
      SpanScope span(&tracer, "api.setup", i);
      return SetUp(script);
    }();
    e2e.setup_s.Add(e2e.Scale(SecondsSince(setup_start)));
    if (!oracle->Check(session.ok(), "setup: " + session.status().ToString())) {
      return;
    }
    const TimedPrepare prepare = [&] {
      SpanScope span(&tracer, "api.prepare", i);
      return RunPrepare(session->get());
    }();
    const double cost = (*session)->plan().weighted_cost;
    oracle->Check(prepare.status.ok() && cost == script.baseline_cost,
                  "prepare chain-" + std::to_string(script.relations) +
                      " reproduces the warm-up plan: " +
                      prepare.status.ToString());
    (i % 2 == 0 ? e2e.primary_ms : e2e.secondary_ms)
        .Add(e2e.Scale(prepare.ms));
    if (opts.trace && i % 2 == 0) {
      // The breakdown follows the primary script only, so each median
      // stays inside one kind.
      const Status split = AddPrepare(script.ddl, **session, prepare, &layers);
      oracle->Check(split.ok(), "prepare breakdown: " + split.ToString());
    }
    session->reset();
    ++e2e.ops;
    run_s += SecondsSince(op_start);
    e2e.stream_s += e2e.Scale(SecondsSince(op_start));
    e2e.calibration.Sample(10);
  }
  std::printf("  stream_fingerprint %016llx (%lld prepares)\n",
              static_cast<unsigned long long>(stream.value()),
              static_cast<long long>(e2e.ops));

  FinishRun(opts, e2e, layers, tracer, report);
}

}  // namespace perfbench
