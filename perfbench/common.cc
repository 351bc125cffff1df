#include <cstdio>
#include <memory>

#include "workloads.h"

namespace perfbench {

using namespace auxview;

double SpaceRatio(Database& db) {
  double views = 0;
  double base = 0;
  for (const std::string& name : db.TableNames()) {
    const Table* t = db.FindTable(name);
    const double rows = static_cast<double>(t->row_count());
    if (name.rfind("__mv_", 0) == 0) {
      views += rows;
    } else {
      base += rows;
    }
  }
  return base > 0 ? views / base : 0;
}

void StreamHash::Add(const std::string& text) {
  for (unsigned char c : text) {
    h_ ^= c;
    h_ *= 1099511628211ULL;
  }
  h_ ^= 0xff;
  h_ *= 1099511628211ULL;
}

void ReportEndToEnd(const EndToEnd& e2e, Report* report) {
  std::printf("  calibration kernel median %.4f ms over %zu samples "
              "(reference %.1f ms)\n",
              e2e.calibration.MedianMs(), e2e.calibration.size(),
              Calibration::kReferenceMs);
  for (const auto& [name, samples] :
       {std::pair{"primary", &e2e.primary_ms},
        std::pair{"secondary", &e2e.secondary_ms}}) {
    if (samples->Supports(0.9)) {
      std::printf("  %s_p90_ms %.4f (n=%zu)\n", name, samples->Quantile(0.9),
                  samples->size());
    }
  }
  report->AddMedian("setup_s", e2e.setup_s, "s");
  report->AddMedian("primary_p50_ms", e2e.primary_ms, "ms");
  report->AddMedian("secondary_p50_ms", e2e.secondary_ms, "ms");
  report->Add("ops_per_s",
              e2e.stream_s > 0 ? static_cast<double>(e2e.ops) / e2e.stream_s
                               : 0,
              "1/s", e2e.ops);
  report->Add("peak_rss_mb", PeakRssMb(), "MiB", 1);
  report->Add("space_ratio", e2e.space_ratio, "ratio", 1);
}

TimedPrepare RunPrepare(Session* session) {
  TimedPrepare out;
  out.before = Counters::Capture();
  const Clock::time_point start = Clock::now();
  out.status = session->Prepare();
  out.ms = MsSince(start);
  out.after = Counters::Capture();
  return out;
}

Status AddPrepare(const std::string& ddl, Session& session,
                  const TimedPrepare& prepare, Layers* layers) {
  const double select_ms =
      (prepare.after.HistSum("optimizer.enumerate_us") -
       prepare.before.HistSum("optimizer.enumerate_us") +
       prepare.after.HistSumMatching("span.optimizer.", ".us") -
       prepare.before.HistSumMatching("span.optimizer.", ".us")) /
      1e3;

  Catalog catalog;
  Binder binder(&catalog);
  AUXVIEW_RETURN_IF_ERROR(binder.Run(ddl));
  catalog.RestoreStats(session.catalog().SnapshotStats());
  const Clock::time_point start = Clock::now();
  Memo memo;
  for (const BoundView& view : binder.views()) {
    AUXVIEW_RETURN_IF_ERROR(memo.AddTree(view.expr).status());
  }
  for (const BoundAssertion& assertion : binder.assertions()) {
    AUXVIEW_RETURN_IF_ERROR(memo.AddTree(assertion.expr).status());
  }
  AUXVIEW_RETURN_IF_ERROR(
      ExpandMemo(&memo, catalog, DefaultRuleSet()).status());
  const double expand_ms = MsSince(start);

  layers->prepare_ms.Add(prepare.ms);
  layers->select_ms.Add(select_ms);
  layers->expand_ms.Add(expand_ms);
  layers->materialize_ms.Add(prepare.ms - expand_ms - select_ms);
  if (layers->have_optimizer_counts) return Status::Ok();
  layers->have_optimizer_counts = true;
  const OptimizeResult& plan = session.plan();
  layers->groups = static_cast<int64_t>(memo.LiveGroups().size());
  layers->tracks_costed = plan.tracks_costed;
  const int64_t lookups = plan.trackcache_hits + plan.trackcache_misses;
  layers->trackcache_hit_ratio =
      lookups > 0 ? static_cast<double>(plan.trackcache_hits) /
                        static_cast<double>(lookups)
                  : 0;
  return Status::Ok();
}

void TimeParse(const std::string& sql, Tracer* tracer, int64_t request,
               Layers* layers) {
  SpanScope span(tracer, "parser.parse", request);
  const Clock::time_point start = Clock::now();
  StatusOr<std::vector<Statement>> parsed = ParseSql(sql);
  layers->parse_us.Add(1e3 * MsSince(start));
  (void)parsed;
}

StmtDelta Diff(const Counters& a, const Counters& b) {
  StmtDelta d;
  d.apply_us =
      b.HistSum("maintain.apply_txn_us") - a.HistSum("maintain.apply_txn_us");
  d.compute_us = b.HistSum("maintain.compute_deltas_us") -
                 a.HistSum("maintain.compute_deltas_us");
  d.kernel_us = b.HistSumMatching("exec.kernel.", ".us") -
                a.HistSumMatching("exec.kernel.", ".us");
  d.kernel_rows = b.CounterSum("exec.kernel.", ".rows") -
                  a.CounterSum("exec.kernel.", ".rows");
  const auto counter = [&](const char* name) {
    return b.Counter(name) - a.Counter(name);
  };
  d.page_reads = counter("storage.page_reads");
  d.page_writes = counter("storage.page_writes");
  d.wal_bytes = counter("wal.bytes");
  d.wal_fsyncs = counter("wal.fsyncs");
  d.fetch_hits = counter("maintain.fetch_cache_hits");
  d.fetch_misses = counter("maintain.fetch_cache_misses");
  d.pool_tasks = counter("maintain.pool.tasks_spawned");
  d.scan_rows = counter("exec.rows_out.Scan");
  d.conflicts = counter("concurrency.conflicts");
  d.undo_bytes_sum = b.HistSum("storage.undo_log_highwater_bytes") -
                     a.HistSum("storage.undo_log_highwater_bytes");
  d.undo_count = b.HistCount("storage.undo_log_highwater_bytes") -
                 a.HistCount("storage.undo_log_highwater_bytes");
  return d;
}

void LayerTally::AddWrite(const StmtDelta& d, double wall_us, bool in_prefix,
                          bool timed) {
  conflicts_ += d.conflicts;
  if (in_prefix) {
    StmtDelta& p = prefix_writes_;
    p.kernel_rows += d.kernel_rows;
    p.page_reads += d.page_reads;
    p.page_writes += d.page_writes;
    p.wal_bytes += d.wal_bytes;
    p.wal_fsyncs += d.wal_fsyncs;
    p.fetch_hits += d.fetch_hits;
    p.fetch_misses += d.fetch_misses;
    p.pool_tasks += d.pool_tasks;
    p.undo_bytes_sum += d.undo_bytes_sum;
    p.undo_count += d.undo_count;
    ++prefix_write_count_;
  }
  if (timed) {
    apply_ms_.Add(d.apply_us / 1e3);
    compute_ms_.Add(d.compute_us / 1e3);
    kernel_ms_.Add(d.kernel_us / 1e3);
    apply_us_sum_ += d.apply_us;
    write_us_sum_ += wall_us;
  }
}

void LayerTally::AddRead(const StmtDelta& d, bool in_prefix) {
  conflicts_ += d.conflicts;
  if (in_prefix) {
    prefix_scan_rows_ += d.scan_rows;
    ++prefix_read_count_;
  }
}

void LayerTally::Finish(Layers* layers) const {
  const auto per = [](double total, int64_t n) {
    return n > 0 ? total / static_cast<double>(n) : 0;
  };
  const StmtDelta& p = prefix_writes_;
  const int64_t n = prefix_write_count_;
  layers->conflicts = conflicts_;
  layers->read_scan_rows = per(prefix_scan_rows_, prefix_read_count_);
  layers->kernel_ms = kernel_ms_;
  layers->kernel_rows = per(p.kernel_rows, n);
  layers->apply_ms = apply_ms_;
  layers->compute_ms = compute_ms_;
  layers->apply_share = write_us_sum_ > 0 ? apply_us_sum_ / write_us_sum_ : 0;
  layers->fetch_hit_ratio =
      per(p.fetch_hits, p.fetch_hits + p.fetch_misses);
  layers->pool_tasks_per_write = per(p.pool_tasks, n);
  layers->page_reads = per(p.page_reads, n);
  layers->page_writes = per(p.page_writes, n);
  layers->undo_highwater_kb = per(p.undo_bytes_sum / 1024, p.undo_count);
  layers->wal_bytes = per(p.wal_bytes, n);
  layers->wal_fsyncs = per(p.wal_fsyncs, n);
}

void ReportLayers(const Layers& l, Report* report) {
  report->AddMedian("parser.parse_us", l.parse_us, "us");
  report->AddMedian("api.stage_ms", l.stage_ms, "ms");
  report->AddMedian("api.exec_self_ms", l.exec_self_ms, "ms");
  report->AddMedian("concurrency.commit_self_ms", l.commit_self_ms, "ms");
  report->Add("concurrency.conflicts", static_cast<double>(l.conflicts),
              "count", 1);
  report->Add("exec.read_scan_rows", l.read_scan_rows, "rows", 1);
  report->AddMedian("exec.kernel_ms", l.kernel_ms, "ms");
  report->Add("exec.kernel_rows", l.kernel_rows, "rows", 1);
  report->AddMedian("maintain.apply_ms", l.apply_ms, "ms");
  report->AddMedian("maintain.compute_ms", l.compute_ms, "ms");
  report->Add("maintain.apply_share", l.apply_share, "ratio",
              static_cast<int64_t>(l.apply_ms.size()));
  report->Add("maintain.fetch_hit_ratio", l.fetch_hit_ratio, "ratio", 1);
  report->Add("maintain.pool.tasks_per_write", l.pool_tasks_per_write, "count",
              1);
  report->AddMedian("maintain.materialize_ms", l.materialize_ms, "ms");
  report->Add("storage.page_reads", l.page_reads, "pages", 1);
  report->Add("storage.page_writes", l.page_writes, "pages", 1);
  report->Add("storage.undo_highwater_kb", l.undo_highwater_kb, "KiB", 1);
  report->Add("wal.bytes", l.wal_bytes, "bytes", 1);
  report->Add("wal.fsyncs", l.wal_fsyncs, "count", 1);
  report->Add("wal.recovered_txns", static_cast<double>(l.recovered_txns),
              "count", 1);
  report->AddMedian("wal.recover_ms", l.recover_ms, "ms");
  report->AddMedian("memo.expand_ms", l.expand_ms, "ms");
  report->Add("memo.groups", static_cast<double>(l.groups), "count", 1);
  report->AddMedian("optimizer.select_ms", l.select_ms, "ms");
  report->Add("optimizer.select_share",
              l.prepare_ms.Sum() > 0 ? l.select_ms.Sum() / l.prepare_ms.Sum()
                                     : 0,
              "ratio", static_cast<int64_t>(l.prepare_ms.size()));
  report->Add("optimizer.tracks_costed", static_cast<double>(l.tracks_costed),
              "count", 1);
  report->Add("optimizer.trackcache_hit_ratio", l.trackcache_hit_ratio, "ratio",
              1);
}

void FinishRun(const RunOptions& opts, const EndToEnd& e2e,
               const Layers& layers, const Tracer& tracer, Report* report) {
  if (!opts.trace) {
    ReportEndToEnd(e2e, report);
    return;
  }
  if (!tracer.WriteJson(opts.trace_path)) {
    std::fprintf(stderr, "cannot write %s\n", opts.trace_path.c_str());
  }
  Report traced;
  ReportEndToEnd(e2e, &traced);
  std::printf("  end-to-end figures of this traced run (not reported):\n");
  traced.PrintLines();
  Layers with_spans = layers;
  with_spans.stage_ms = tracer.SelfMs("api.stage");
  with_spans.exec_self_ms = tracer.SelfMs("api.execute");
  with_spans.commit_self_ms = tracer.SelfMs("concurrency.commit");
  ReportLayers(with_spans, report);
}

}  // namespace perfbench
