// Scratch-file helpers for the persistence tests (snapshot, delta log,
// store publish): a per-process directory and whole-file reads and
// writes.

#ifndef GALE_TESTS_TEST_FILES_H_
#define GALE_TESTS_TEST_FILES_H_

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <system_error>

#include <gtest/gtest.h>
#include <unistd.h>

namespace gale::testing {

// `name` inside a per-process directory, removed at exit: ctest runs a
// test binary and its _mt4 entry concurrently, and shared paths would let
// one truncate or corrupt the other's files mid-test.
inline std::string TempPath(const std::string& name) {
  static const struct ProcessDir {
    std::string path =
        ::testing::TempDir() + "/gale_test_" + std::to_string(getpid());
    ProcessDir() { std::filesystem::create_directories(path); }
    ~ProcessDir() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  } dir;
  return dir.path + "/" + name;
}

inline std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

inline void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(static_cast<bool>(out)) << path;
}

}  // namespace gale::testing

#endif  // GALE_TESTS_TEST_FILES_H_
