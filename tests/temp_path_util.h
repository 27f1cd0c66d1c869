// Per-test scratch file paths for tests that write files.
//
// ctest runs every gtest case as its own process, and under `ctest -j` it
// runs cases of one fixture at the same time. A fixture whose SetUp writes
// a fixed file name therefore races with itself: one case reads the file
// while another rewrites or removes it. UniqueTempPath names the file after
// the running test and the process id, so no two live cases share it.
#ifndef DTUCKER_TESTS_TEMP_PATH_UTIL_H_
#define DTUCKER_TESTS_TEMP_PATH_UTIL_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <string>

namespace dtucker {

// TempDir()/<suite>.<test>.<pid><suffix>, e.g. "/tmp/OutOfCoreTest.
// ReadBoundsChecked.4242.dtnsr". Parametrized names' '/' become '_'.
inline std::string UniqueTempPath(const std::string& suffix) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string(info->test_suite_name()) + "." +
                     info->name() + "." + std::to_string(getpid());
  std::replace(name.begin(), name.end(), '/', '_');
  return ::testing::TempDir() + "/" + name + suffix;
}

}  // namespace dtucker

#endif  // DTUCKER_TESTS_TEMP_PATH_UTIL_H_
