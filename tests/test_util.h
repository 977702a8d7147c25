// Helpers shared by the test binaries: per-process, per-test temp paths and
// the toy dataset most suites train on.
#ifndef FAIRWOS_TESTS_TEST_UTIL_H_
#define FAIRWOS_TESTS_TEST_UTIL_H_

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

#include <gtest/gtest.h>

#include "data/synthetic.h"

namespace fairwos::testing {

/// This process's scratch directory under the system temp directory; it and
/// everything in it are removed when the process exits normally.
inline const std::filesystem::path& ProcessTempDir() {
  struct Dir {
    std::filesystem::path path = std::filesystem::temp_directory_path() /
                                 ("fw_test_" + std::to_string(::getpid()));
    Dir() { std::filesystem::create_directories(path); }
    ~Dir() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  };
  static const Dir dir;
  return dir.path;
}

/// A path unique to this process and the running gtest case, so `ctest -j`
/// (one process per case) never races two cases on the same file. Call it
/// from inside a test.
inline std::string TempPath(const std::string& name) {
  const ::testing::TestInfo* test =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string file = std::string(test->test_suite_name()) + "." +
                           test->name() + "_" + name;
  return (ProcessTempDir() / file).string();
}

/// The small synthetic dataset ("toy") with default options.
inline data::Dataset ToyDataset() {
  return data::MakeDataset("toy", {}).value();
}

}  // namespace fairwos::testing

#endif  // FAIRWOS_TESTS_TEST_UTIL_H_
