#include "serialize/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cctype>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "serialize/atomic_file.h"

namespace nnr::serialize {

namespace fs = std::filesystem;

namespace {

/// A token is journal-well-formed when it is non-empty printable ASCII with
/// no whitespace — rejects torn lines and foreign bytes on read.
bool well_formed(const std::string& token) {
  if (token.empty()) return false;
  for (const char c : token) {
    if (!std::isgraph(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

}  // namespace

AccessJournal::AccessJournal(std::string path) : path_(std::move(path)) {}

void AccessJournal::append(const std::string& token) const noexcept {
  // O_APPEND: the kernel serializes the offset, so one write() call is one
  // intact record even with concurrent appenders across processes.
  const int fd = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC,
                        0644);
  if (fd < 0) return;
  const std::string line = token + "\n";
  // Single write; a short write can only tear the trailing record, which
  // readers skip.
  (void)!::write(fd, line.data(), line.size());
  ::close(fd);
}

std::vector<std::string> AccessJournal::read() const {
  std::vector<std::string> tokens;
  std::ifstream in(path_);
  if (!in) return tokens;
  std::string line;
  while (std::getline(in, line)) {
    if (well_formed(line)) tokens.push_back(line);
  }
  return tokens;
}

void AccessJournal::rewrite(
    const std::vector<std::string>& tokens) const noexcept {
  std::string text;
  for (const std::string& token : tokens) text += token + '\n';
  (void)write_file_atomic(path_, text);
}

std::int64_t AccessJournal::size_bytes() const noexcept {
  std::error_code ec;
  const auto size = fs::file_size(path_, ec);
  return ec ? 0 : static_cast<std::int64_t>(size);
}

}  // namespace nnr::serialize
