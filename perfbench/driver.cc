// Benchmark driver: runs one workload in this process (plus the calibration
// helper it forks) and prints its metrics, ending with the one-line JSON
// result.
//
//   perfbench_driver --workload <oltp_point|bulk_rollup|prepare_chain>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    --work-dir <dir> [--scale <f>]
//
// --work-dir must not exist yet; the driver creates it for write-ahead logs
// and removes it before exiting. A traced run writes its spans to
// <work-dir>.trace.json. Exit code 0 means the run completed (the JSON's
// "correct" field says whether every check passed).
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "calibration.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir> [--scale <f>]\n");
  return 2;
}

int Run(int argc, char** argv) {
  perfbench::RunOptions opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      opts.trace = value == "1";
    } else if (flag == "--work-dir") {
      opts.work_dir = value;
    } else if (flag == "--scale") {
      opts.scale = std::atof(value.c_str());
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || opts.work_dir.empty() || opts.seconds <= 0 ||
      opts.scale <= 0) {
    return Usage();
  }
  void (*run)(const perfbench::RunOptions&, perfbench::Oracle*,
              perfbench::Report*) = nullptr;
  if (opts.workload == "oltp_point") run = perfbench::RunOltpPoint;
  if (opts.workload == "bulk_rollup") run = perfbench::RunBulkRollup;
  if (opts.workload == "prepare_chain") run = perfbench::RunPrepareChain;
  if (run == nullptr) return Usage();

  namespace fs = std::filesystem;
  std::error_code ec;
  if (fs::exists(opts.work_dir) || !fs::create_directories(opts.work_dir, ec)) {
    std::fprintf(stderr, "cannot create fresh work dir %s\n",
                 opts.work_dir.c_str());
    return 2;
  }
  opts.trace_path = opts.work_dir + ".trace.json";

  std::printf("workload %s seed %llu seconds %g trace %d scale %g\n",
              opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
              opts.seconds, opts.trace ? 1 : 0, opts.scale);
  perfbench::Oracle oracle;
  perfbench::Report report;
  run(opts, &oracle, &report);
  fs::remove_all(opts.work_dir, ec);
  report.Print(oracle);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Forked first, while this process is still small; see calibration.h.
  if (!perfbench::StartCalibrationHelper()) {
    std::fprintf(stderr, "cannot start the calibration helper\n");
    return 2;
  }
  const int status = Run(argc, argv);
  perfbench::StopCalibrationHelper();
  return status;
}
