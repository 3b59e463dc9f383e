#include "util/fsio.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

#include "util/faultfs.hpp"
#include "util/strings.hpp"

namespace dc {
namespace {

#ifndef _WIN32

std::string errno_text() { return std::strerror(errno); }

Status fail_and_unlink(const std::string& tmp, int fd, std::string message) {
  // Cleanup is raw on purpose: the faultfs layer never injects into the
  // unlink that restores the zero-debris invariant after a failed write.
  if (fd >= 0) ::close(fd);
  ::unlink(tmp.c_str());
  return Status::internal(std::move(message));
}

/// fsync the directory containing `path` so the rename itself is durable.
Status sync_parent_dir(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int dirfd = ::open(dir.empty() ? "/" : dir.c_str(),
                           O_RDONLY | O_DIRECTORY);
  if (dirfd < 0) {
    return Status::internal("cannot open directory '" + dir +
                            "' for fsync: " + errno_text());
  }
  // Some filesystems refuse fsync on directory fds (EINVAL); the rename
  // is still atomic there, so only real I/O errors are fatal.
  if (faultfs::xfsync(dirfd) != 0 && errno != EINVAL && errno != ENOSYS) {
    const std::string message =
        "fsync of directory '" + dir + "' failed: " + errno_text();
    ::close(dirfd);
    return Status::internal(message);
  }
  ::close(dirfd);
  return Status::ok();
}

#endif  // !_WIN32

}  // namespace

Status atomic_write_file(const std::string& path, std::string_view bytes,
                         std::string_view site) {
  std::optional<faultfs::SiteScope> scope;
  if (!site.empty()) scope.emplace(site);
  const std::string tmp = path + ".tmp";
#ifndef _WIN32
  const int fd = faultfs::xopen(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::internal("cannot open '" + tmp +
                            "' for writing: " + errno_text());
  }
  std::size_t written = 0;
  while (written < bytes.size()) {
    const long n =
        faultfs::xwrite(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return fail_and_unlink(tmp, fd,
                             "short write to '" + tmp + "': " + errno_text());
    }
    written += static_cast<std::size_t>(n);
  }
  if (faultfs::xfsync(fd) != 0) {
    return fail_and_unlink(tmp, fd,
                           "fsync of '" + tmp + "' failed: " + errno_text());
  }
  if (faultfs::xclose(fd) != 0) {
    return fail_and_unlink(tmp, -1,
                           "close of '" + tmp + "' failed: " + errno_text());
  }
  if (faultfs::xrename(tmp.c_str(), path.c_str()) != 0) {
    return fail_and_unlink(tmp, -1, "rename '" + tmp + "' -> '" + path +
                                        "' failed: " + errno_text());
  }
  return sync_parent_dir(path);
#else
  // Portable fallback: flush-then-rename without the fsync guarantees.
  {
    std::ofstream file(tmp, std::ios::binary | std::ios::trunc);
    if (!file) {
      return Status::internal("cannot open '" + tmp + "' for writing");
    }
    file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    file.flush();
    if (!file) {
      std::remove(tmp.c_str());
      return Status::internal("short write to '" + tmp + "'");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::internal("rename '" + tmp + "' -> '" + path + "' failed");
  }
  return Status::ok();
#endif
}

StatusOr<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::not_found("cannot read '" + path + "'");
  }
  // One read sized by the file's length, straight into the result; then
  // drain whatever that length did not cover (a file that grew, or one
  // such as /proc/<pid>/stat that reports a length of 0).
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  std::string bytes(ec ? 0 : static_cast<std::size_t>(size), '\0');
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  bytes.resize(static_cast<std::size_t>(in.gcount()));
  char chunk[4096];
  while (in) {
    in.read(chunk, sizeof(chunk));
    bytes.append(chunk, static_cast<std::size_t>(in.gcount()));
  }
  if (in.bad()) {
    return Status::internal("I/O error reading '" + path + "'");
  }
  return bytes;
}

}  // namespace dc
