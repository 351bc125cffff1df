// Machine-speed calibration for the benchmark's timings.
//
// The benchmark runs on shared machines whose speed drifts by tens of
// percent over seconds to minutes, and by up to 2x between runs, as other
// tenants load the memory system. Each run therefore also times a fixed
// kernel, interleaved with the workload, and scales every end-to-end timing
// by the kernel's speed at that moment (the median of its latest samples)
// to a machine on which the kernel takes kReferenceMs.
//
// The kernel does the kind of work the database's statements do — builds,
// copies, hashes and frees 10k string rows, and sorts — using the standard
// library only. It runs in a helper process forked before the workload
// starts, so neither the library under test nor the heap the workload
// leaves behind changes its speed; only the machine does.
#ifndef AUXVIEW_PERFBENCH_CALIBRATION_H_
#define AUXVIEW_PERFBENCH_CALIBRATION_H_

#include <cstddef>
#include <vector>

namespace perfbench {

/// The helper process. Start it before the workload allocates anything;
/// Stop ends it and waits for it.
bool StartCalibrationHelper();
void StopCalibrationHelper();

class Calibration {
 public:
  /// Kernel time, in ms, of the machine the reported timings refer to.
  static constexpr double kReferenceMs = 2.5;

  /// Times the kernel `times` times in the helper process.
  void Sample(int times = 1);
  size_t size() const { return samples_ms_.size(); }
  /// Median kernel time over the whole run.
  double MedianMs() const;
  /// Converts a time measured now into a reference-speed time: the
  /// reference over the median of the latest kWindow samples.
  double LocalFactor() const;

 private:
  static constexpr size_t kWindow = 9;

  std::vector<double> samples_ms_;
};

}  // namespace perfbench

#endif  // AUXVIEW_PERFBENCH_CALIBRATION_H_
