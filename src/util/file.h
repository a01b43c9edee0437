// Whole-file reads for recovery: log files and checkpoint parts.
//
// One open + fstat + read loop instead of std::istreambuf_iterator, which
// moves the file a byte at a time. These are plain syscalls, deliberately
// outside the util/io.h seam (as the ifstream reads they replace were), so
// fault plans and the crash sweep's syscall numbering see only the
// persistence calls.

#ifndef MASSTREE_UTIL_FILE_H_
#define MASSTREE_UTIL_FILE_H_

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <string>

namespace masstree {

// The bytes of the file at `path`. A file that cannot be opened (e.g.
// missing) reads as empty; a read error ends the data early, which the
// callers' decoders treat like any torn tail.
inline std::string read_whole_file(const std::string& path) {
  std::string data;
  int fd = -1;
  do {
    fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    return data;
  }
  struct stat st {};
  size_t expect = ::fstat(fd, &st) == 0 && st.st_size > 0 ? static_cast<size_t>(st.st_size) : 0;
  // One spare byte, so a file of exactly st_size reaches EOF without regrowing.
  data.resize(expect + 1);
  size_t len = 0;
  for (;;) {
    if (len == data.size()) {
      data.resize(2 * len);
    }
    ssize_t r = ::read(fd, data.data() + len, data.size() - len);
    if (r > 0) {
      len += static_cast<size_t>(r);
    } else if (r == 0 || errno != EINTR) {
      break;
    }
  }
  ::close(fd);
  data.resize(len);
  return data;
}

}  // namespace masstree

#endif  // MASSTREE_UTIL_FILE_H_
