// The parameter of the workload-parameterized equivalence tests (serial,
// recovery, sharded, parallel). gtest prints a parameter type that has no
// printer as its raw bytes, and gtest_discover_tests puts that text into the
// ctest name. A std::function parameter printed as code addresses, which
// move with every change to the binary and with address-space layout
// randomization, so the same test came out under a different name from one
// build to the next. A fixed 32-byte, pointer-free buffer prints the same
// bytes on every build, and still prints as the "32-byte object" the names
// have always shown.

#ifndef AUXVIEW_TESTS_WORKLOAD_PARAM_H_
#define AUXVIEW_TESTS_WORKLOAD_PARAM_H_

#include <gtest/gtest.h>

#include <string>

namespace auxview {

/// One workload's name ("emp_dept", "fig5", "star" or "chain"),
/// NUL-padded to a fixed size.
struct WorkloadName {
  char text[32];
};

/// The four workloads every equivalence harness runs, in a fixed order.
inline auto AllWorkloads() {
  return ::testing::Values(WorkloadName{"emp_dept"}, WorkloadName{"fig5"},
                           WorkloadName{"star"}, WorkloadName{"chain"});
}

/// The test-name suffix: the workload's name.
inline std::string WorkloadTestName(
    const ::testing::TestParamInfo<WorkloadName>& info) {
  return info.param.text;
}

}  // namespace auxview

#endif  // AUXVIEW_TESTS_WORKLOAD_PARAM_H_
