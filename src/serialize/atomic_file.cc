#include "serialize/atomic_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <filesystem>
#include <fstream>
#include <functional>
#include <system_error>
#include <thread>

namespace nnr::serialize {

std::string temp_path_for(const std::string& path) {
  return path + ".tmp" + std::to_string(::getpid()) + "." +
         std::to_string(
             std::hash<std::thread::id>{}(std::this_thread::get_id()));
}

bool write_file_atomic(const std::string& path, std::string_view bytes) {
  const std::string tmp = temp_path_for(path);
  std::error_code ec;
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
    if (out.fail()) {
      std::filesystem::remove(tmp, ec);
      return false;
    }
  }
  std::filesystem::rename(tmp, path, ec);
  if (!ec) return true;
  std::filesystem::remove(tmp, ec);
  return false;
}

std::optional<std::string> read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  std::optional<std::string> bytes;
  struct stat st {};
  if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode)) {
    bytes.emplace(static_cast<std::size_t>(st.st_size), '\0');
    std::size_t done = 0;
    while (done < bytes->size()) {
      const ::ssize_t n =
          ::read(fd, bytes->data() + done, bytes->size() - done);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      done += static_cast<std::size_t>(n);
    }
    if (done != bytes->size()) bytes.reset();
  }
  ::close(fd);
  return bytes;
}

}  // namespace nnr::serialize
