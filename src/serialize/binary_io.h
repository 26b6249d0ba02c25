// Shared plumbing for the NNR binary formats — both the on-disk ones
// (checkpoint.cc, run_result.cc) and the nnr_cached wire protocol
// (net/frame.h): an incremental FNV-1a digest, one BufWriter that builds a
// payload in memory, and a Reader over a file (or, as BufReader, over an
// in-memory byte string). Every producer emits
//   magic | body | u64 FNV-1a trailer over the body
// and every consumer verifies magic + checksum before handing out a single
// byte. Files are BufWriter payloads landed whole by
// serialize::write_file_atomic, so a failed write never clobbers the
// previous file, and a cache entry's bytes are the same on disk and on the
// wire: the remote cache daemon stores PUT bodies verbatim.
//
// Every format built on this layer shares the replicability contract:
// float32 payloads are raw IEEE-754 bytes (never text), so a round-trip is
// bitwise lossless, and any truncation or corruption surfaces as a
// CheckpointError instead of silently wrong data.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "serialize/atomic_file.h"
#include "serialize/checkpoint.h"

namespace nnr::serialize::detail {

/// Incremental FNV-1a (64-bit) over the serialized body.
class Fnv1a {
 public:
  void update(const void* data, std::size_t bytes) noexcept {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ull;
    }
  }
  [[nodiscard]] std::uint64_t digest() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// Builds a payload in memory, with an arbitrary-length magic (file formats
/// use 8 bytes, the wire frame 4). finish() returns the complete payload:
/// magic | body | FNV-1a trailer.
class BufWriter {
 public:
  explicit BufWriter(std::string_view magic) { buf_.assign(magic); }

  template <typename T>
  void put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    put_bytes(&v, sizeof(T));
  }

  void put_bytes(const void* data, std::size_t bytes) {
    buf_.append(static_cast<const char*>(data), bytes);
    hash_.update(data, bytes);
  }

  [[nodiscard]] std::string finish() {
    const std::uint64_t digest = hash_.digest();
    buf_.append(reinterpret_cast<const char*>(&digest), sizeof(digest));
    return std::move(buf_);
  }

 private:
  std::string buf_;
  Fnv1a hash_;
};

class Reader {
 public:
  Reader(const std::string& path, const std::array<char, 8>& magic)
      : path_(path) {
    std::optional<std::string> bytes = read_file(path);
    if (!bytes.has_value()) {
      throw CheckpointError("cannot open for reading: " + path);
    }
    bytes_ = std::move(*bytes);
    init(bytes_, std::string_view(magic.data(), magic.size()));
  }

  // data_ points into bytes_ or the caller's payload, so a Reader is read
  // where it was built: never copied, never moved.
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    need(sizeof(T));
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  void get_bytes(void* dst, std::size_t bytes) {
    need(bytes);
    std::memcpy(dst, data_ + pos_, bytes);
    pos_ += bytes;
  }

  [[nodiscard]] bool exhausted() const noexcept { return pos_ == body_end_; }

  /// Unread body bytes (trailer excluded).
  [[nodiscard]] std::size_t remaining() const noexcept {
    return body_end_ - pos_;
  }

 protected:
  /// BufReader path: verify `bytes` (not owned) against `magic`.
  Reader(std::string_view bytes, std::string_view magic, std::string label)
      : path_(std::move(label)) {
    init(bytes, magic);
  }

 private:
  void init(std::string_view bytes, std::string_view magic) {
    data_ = bytes.data();
    if (bytes.size() < magic.size() + sizeof(std::uint64_t)) {
      throw CheckpointError("truncated checkpoint: " + path_);
    }
    if (std::memcmp(bytes.data(), magic.data(), magic.size()) != 0) {
      throw CheckpointError(
          "bad magic (wrong or non-NNR checkpoint kind): " + path_);
    }
    body_end_ = bytes.size() - sizeof(std::uint64_t);
    std::uint64_t stored = 0;
    std::memcpy(&stored, bytes.data() + body_end_, sizeof(stored));
    Fnv1a hash;
    hash.update(bytes.data() + magic.size(), body_end_ - magic.size());
    if (hash.digest() != stored) {
      throw CheckpointError("checksum mismatch (corrupt checkpoint): " +
                            path_);
    }
    pos_ = magic.size();
  }

  void need(std::size_t bytes) const {
    if (pos_ + bytes > body_end_) {
      throw CheckpointError("truncated checkpoint body: " + path_);
    }
  }

  std::string path_;
  std::string bytes_;  // owned storage (file path only)
  const char* data_ = nullptr;
  std::size_t body_end_ = 0;
  std::size_t pos_ = 0;
};

/// Reader twin over an in-memory payload (magic | body | trailer). The
/// payload must outlive the reader — it is viewed, not copied. `label`
/// replaces the file path in error messages (e.g. "<wire>").
class BufReader : public Reader {
 public:
  BufReader(std::string_view payload, std::string_view magic,
            std::string label = "<buffer>")
      : Reader(payload, magic, std::move(label)) {}
};

}  // namespace nnr::serialize::detail
