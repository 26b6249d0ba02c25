#include "serialize/atomic_file.h"

#include <unistd.h>

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

}  // namespace nnr::serialize
