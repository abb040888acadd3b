// Per-process scratch directory for tests that touch the file system.
//
// ctest runs every discovered gtest case as its own process, and
// `ctest -j` runs those processes concurrently. A fixed path under the
// system temp directory is therefore shared by every process that
// names it: one test's remove_all pulls a database, WAL or socket out
// from under another. TestTempRoot() is a directory made with mkdtemp
// once per process and removed when the process exits, so leaf names
// below it only have to be unique within one test binary.
#pragma once

#include <stdlib.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>

namespace goofi {

inline const std::filesystem::path& TestTempRoot() {
  struct Root {
    Root() {
      std::string pattern =
          (std::filesystem::temp_directory_path() / "goofi_test_XXXXXX")
              .string();
      if (::mkdtemp(pattern.data()) == nullptr) {
        std::perror("mkdtemp");
        std::abort();
      }
      path = pattern;
    }
    ~Root() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
    std::filesystem::path path;
  };
  static const Root root;
  return root.path;
}

}  // namespace goofi
