// The benchmark's three workloads and the helpers they share. Each workload
// builds its inputs from the seed, runs a closed loop with one client thread
// for the requested time, checks every result against a shadow model, and
// fills the report with either the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run). See perfbench/README.md.
#ifndef AUXVIEW_PERFBENCH_WORKLOADS_H_
#define AUXVIEW_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "auxview.h"
#include "calibration.h"
#include "harness.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for write-ahead logs and the span dump; created and
  /// removed by the driver.
  std::string work_dir;
  /// Where a traced run dumps its spans.
  std::string trace_path;
  /// Multiplies every table size (the self-test runs at a small scale).
  double scale = 1;
};

void RunOltpPoint(const RunOptions& opts, Oracle* oracle, Report* report);
void RunBulkRollup(const RunOptions& opts, Oracle* oracle, Report* report);
void RunPrepareChain(const RunOptions& opts, Oracle* oracle, Report* report);

/// Rows of every materialized view (`__mv_*` tables) divided by the rows of
/// every base table: the space the chosen auxiliary views cost.
double SpaceRatio(auxview::Database& db);

/// Seeded Fisher-Yates shuffle.
template <typename T>
void Shuffle(std::vector<T>* v, auxview::Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    const size_t j =
        static_cast<size_t>(rng->Uniform(0, static_cast<int64_t>(i) - 1));
    std::swap((*v)[i - 1], (*v)[j]);
  }
}

/// FNV-1a over the statement texts of a run's fixed-length prefix; printed
/// so that the self-test can tell two statement streams apart.
class StreamHash {
 public:
  void Add(const std::string& text);
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

/// The end-to-end metrics every workload reports. "Primary" and "secondary"
/// are the workload's two operation kinds (README.md names them); each
/// percentile stays inside one kind. Every time is recorded at the
/// calibration's reference speed (see calibration.h).
struct EndToEnd {
  Calibration calibration;
  Samples setup_s;
  Samples primary_ms;
  Samples secondary_ms;
  int64_t ops = 0;
  /// Time the timed operations took, end to end.
  double stream_s = 0;
  double space_ratio = 0;

  /// A time measured just now, scaled to reference speed.
  double Scale(double t) const { return t * calibration.LocalFactor(); }
};
void ReportEndToEnd(const EndToEnd& e2e, Report* report);

/// One Session::Prepare, timed, with the library's metrics captured around
/// it.
struct TimedPrepare {
  auxview::Status status;
  double ms = 0;
  Counters before;
  Counters after;
};
TimedPrepare RunPrepare(auxview::Session* session);

/// The per-layer metrics. Every workload reports all of them; a layer the
/// workload never reaches reads 0. Per-write counts are means over the
/// stream's fixed-length prefix, so the same seed gives the same counts.
struct Layers {
  Samples parse_us;
  /// Self times of the benchmark's spans, filled from the tracer at the end.
  Samples stage_ms;
  Samples exec_self_ms;
  Samples commit_self_ms;
  int64_t conflicts = 0;
  double read_scan_rows = 0;
  Samples kernel_ms;
  double kernel_rows = 0;
  Samples apply_ms;
  Samples compute_ms;
  /// Total maintenance time over total write time.
  double apply_share = 0;
  double fetch_hit_ratio = 0;
  double pool_tasks_per_write = 0;
  double page_reads = 0;
  double page_writes = 0;
  double undo_highwater_kb = 0;
  double wal_bytes = 0;
  double wal_fsyncs = 0;
  int64_t recovered_txns = 0;
  Samples recover_ms;
  Samples expand_ms;
  int64_t groups = 0;
  Samples select_ms;
  /// Timed Session::Prepare calls the breakdown ran beside.
  Samples prepare_ms;
  Samples materialize_ms;
  /// Optimizer counts of the first Prepare broken down.
  bool have_optimizer_counts = false;
  int64_t tracks_costed = 0;
  double trackcache_hit_ratio = 0;
};
void ReportLayers(const Layers& layers, Report* report);

/// Ends a run: an untraced run reports the end-to-end metrics; a traced one
/// dumps its spans, prints its own (slower) end-to-end figures so the
/// tracing overhead can be read off, and reports the per-layer metrics.
void FinishRun(const RunOptions& opts, const EndToEnd& e2e,
               const Layers& layers, const Tracer& tracer, Report* report);

/// Counter traffic of one statement (two captures around it).
struct StmtDelta {
  double apply_us = 0;
  double compute_us = 0;
  double kernel_us = 0;
  int64_t kernel_rows = 0;
  int64_t page_reads = 0;
  int64_t page_writes = 0;
  int64_t wal_bytes = 0;
  int64_t wal_fsyncs = 0;
  int64_t fetch_hits = 0;
  int64_t fetch_misses = 0;
  int64_t pool_tasks = 0;
  int64_t scan_rows = 0;
  int64_t conflicts = 0;
  double undo_bytes_sum = 0;
  int64_t undo_count = 0;
};
StmtDelta Diff(const Counters& before, const Counters& after);

/// Accumulates traced statements into Layers: timings over the timed
/// statements, counts over the fixed prefix.
class LayerTally {
 public:
  void AddWrite(const StmtDelta& d, double wall_us, bool in_prefix, bool timed);
  void AddRead(const StmtDelta& d, bool in_prefix);
  /// Fills the maintenance, kernel, storage and WAL fields of `layers`.
  void Finish(Layers* layers) const;

 private:
  StmtDelta prefix_writes_;
  int64_t prefix_write_count_ = 0;
  int64_t prefix_scan_rows_ = 0;
  int64_t prefix_read_count_ = 0;
  int64_t conflicts_ = 0;
  Samples apply_ms_;
  Samples compute_ms_;
  Samples kernel_ms_;
  double apply_us_sum_ = 0;
  double write_us_sum_ = 0;
};

/// Splits one timed Prepare into layers. View selection comes from the
/// optimizer's own timers (histogram deltas around the call); memo
/// expansion is timed by re-expanding the same views, with the same
/// statistics, on a private catalog; the rest is materialization. The
/// optimizer counts are taken from the first Prepare added.
auxview::Status AddPrepare(const std::string& ddl, auxview::Session& session,
                           const TimedPrepare& prepare, Layers* layers);

/// Times ParseSql on one statement text (the parser layer on its own).
void TimeParse(const std::string& sql, Tracer* tracer, int64_t request,
               Layers* layers);

}  // namespace perfbench

#endif  // AUXVIEW_PERFBENCH_WORKLOADS_H_
