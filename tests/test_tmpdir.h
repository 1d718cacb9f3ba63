// Per-test scratch directories, so the suites stay hermetic under
// `ctest -j`.
//
// ctest runs every discovered case as its own process, many at once. A
// fixture file at a fixed name under ::testing::TempDir() is therefore
// shared by sibling cases running concurrently: one case's TearDown can
// delete the file another case is still writing or mapping. Every test
// that touches the filesystem takes its paths from TestTempPath()
// instead — a directory of its own, named from the suite, the test and
// the process id, removed again when the test process exits.

#ifndef GENLINK_TESTS_TEST_TMPDIR_H_
#define GENLINK_TESTS_TEST_TMPDIR_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <set>
#include <string>
#include <string_view>
#include <system_error>

namespace genlink {
namespace test_tmpdir_internal {

// Directories handed out by this process; removed at exit. Only the
// creating process removes them.
struct Created {
  pid_t owner = ::getpid();
  std::set<std::string> dirs;
  ~Created() {
    if (::getpid() != owner) return;
    for (const std::string& dir : dirs) {
      std::error_code ignored;
      std::filesystem::remove_all(dir, ignored);
    }
  }
};

inline Created& created() {
  static Created instance;
  return instance;
}

}  // namespace test_tmpdir_internal

/// The running test's private scratch directory, with a trailing '/'.
/// Created on first use: <TempDir>/genlink_<suite>.<test>.<pid>/.
inline std::string TestTempDir() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = "genlink_";
  if (info != nullptr) {
    name += info->test_suite_name();
    name += '.';
    name += info->name();
  } else {
    name += "no_test";
  }
  name += '.' + std::to_string(::getpid());
  // Parameterized suites and cases carry '/' in their names.
  for (char& c : name) {
    if (c == '/') c = '_';
  }
  std::string dir = ::testing::TempDir();
  if (!dir.empty() && dir.back() != '/') dir += '/';
  dir += name + "/";
  std::filesystem::create_directories(dir);
  test_tmpdir_internal::created().dirs.insert(dir);
  return dir;
}

/// A path named `name` inside TestTempDir().
inline std::string TestTempPath(std::string_view name) {
  return TestTempDir() + std::string(name);
}

}  // namespace genlink

#endif  // GENLINK_TESTS_TEST_TMPDIR_H_
