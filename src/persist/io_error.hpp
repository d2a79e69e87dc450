// The one error path of every persistence write: WAL segments
// (wal.hpp) and atomically published checkpoint and manifest files
// (checkpoint.hpp).
#pragma once

#include <string>
#include <system_error>

namespace farmer::persist {

/// Throws std::system_error carrying `err` (an errno value), with the
/// message "<what> <path>: <strerror>". std::system_error derives from
/// std::runtime_error, so callers that catch the latter still see it.
[[noreturn]] inline void fail_io(const char* what, const std::string& path,
                                 int err) {
  throw std::system_error(err, std::generic_category(),
                          std::string(what) + " " + path);
}

}  // namespace farmer::persist
