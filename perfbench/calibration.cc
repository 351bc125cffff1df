#include "calibration.h"

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <unordered_map>

namespace perfbench {

namespace {

/// About 4.5 ms on the reference box: 10k three-column string rows
/// built, copied, indexed in a hash map, probed and freed; 4k integers
/// sorted; 8k cache lines gathered at random from a 16 MiB table.
double KernelMs() {
  static const std::vector<uint64_t> table((16u << 20) / sizeof(uint64_t), 3);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::vector<std::string>> rows;
  rows.reserve(10000);
  for (int i = 0; i < 10000; ++i) {
    rows.push_back({"emp" + std::to_string(i * 7919 % 10007),
                    "dept" + std::to_string(i % 1000),
                    std::to_string(i * 31)});
  }
  const std::vector<std::vector<std::string>> copy = rows;
  std::unordered_map<std::string, size_t> index;
  for (size_t i = 0; i < copy.size(); ++i) index[copy[i][0]] = i;
  size_t sum = 0;
  for (const auto& row : rows) sum += index[row[0]];
  std::vector<uint64_t> keys(4096);
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (uint64_t& k : keys) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    k = x;
  }
  std::sort(keys.begin(), keys.end());
  sum += keys[sum % keys.size()];
  for (int i = 0; i < 8000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    sum += table[(x + sum) % table.size()];
  }
  volatile size_t sink = sum;
  (void)sink;
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// The helper: reads one request byte, answers with one kernel time, until
/// the request pipe closes.
[[noreturn]] void HelperLoop(int requests, int replies) {
  char request;
  while (read(requests, &request, 1) == 1) {
    const double ms = KernelMs();
    if (write(replies, &ms, sizeof(ms)) != sizeof(ms)) break;
  }
  _exit(0);
}

pid_t helper_pid = -1;
int request_fd = -1;
int reply_fd = -1;

double MedianOf(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(v.size() / 2),
                   v.end());
  return v[v.size() / 2];
}

}  // namespace

bool StartCalibrationHelper() {
  int to_helper[2];
  int from_helper[2];
  if (pipe(to_helper) != 0) return false;
  if (pipe(from_helper) != 0) {
    close(to_helper[0]);
    close(to_helper[1]);
    return false;
  }
  const pid_t pid = fork();
  if (pid < 0) return false;
  if (pid == 0) {
    close(to_helper[1]);
    close(from_helper[0]);
    HelperLoop(to_helper[0], from_helper[1]);
  }
  close(to_helper[0]);
  close(from_helper[1]);
  helper_pid = pid;
  request_fd = to_helper[1];
  reply_fd = from_helper[0];
  return true;
}

void StopCalibrationHelper() {
  if (helper_pid < 0) return;
  close(request_fd);
  close(reply_fd);
  waitpid(helper_pid, nullptr, 0);
  helper_pid = -1;
}

void Calibration::Sample(int times) {
  for (int i = 0; i < times; ++i) {
    const char request = 'k';
    double ms = 0;
    if (write(request_fd, &request, 1) != 1 ||
        read(reply_fd, &ms, sizeof(ms)) != sizeof(ms)) {
      return;  // no helper: timings stay unscaled (LocalFactor 1)
    }
    samples_ms_.push_back(ms);
  }
}

double Calibration::MedianMs() const {
  return samples_ms_.empty() ? kReferenceMs : MedianOf(samples_ms_);
}

double Calibration::LocalFactor() const {
  if (samples_ms_.empty()) return 1;
  const size_t n = std::min(kWindow, samples_ms_.size());
  return kReferenceMs / MedianOf(std::vector<double>(
                            samples_ms_.end() - static_cast<ptrdiff_t>(n),
                            samples_ms_.end()));
}

}  // namespace perfbench
