#include "sched/fs_cache_backend.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <stdexcept>
#include <system_error>
#include <tuple>
#include <vector>

#include "runtime/parse_int.h"
#include "serialize/atomic_file.h"
#include "serialize/run_result.h"

namespace nnr::sched {

namespace fs = std::filesystem;

namespace {

constexpr const char* kGcLockName = "gc.lock";

/// The fs backend's claim token: the flock itself. Destruction closes the
/// fd, which releases the kernel lock — exactly what process death does.
struct FsClaimImpl final : CacheClaim::Impl {
  explicit FsClaimImpl(FileLock l) : lock(std::move(l)) {}
  FileLock lock;
};

std::optional<CacheClaim> wrap_lock(std::optional<FileLock> lock) {
  if (!lock.has_value()) return std::nullopt;
  return CacheClaim(std::make_unique<FsClaimImpl>(std::move(*lock)));
}

/// One on-disk cache entry, with its LRU rank inputs.
struct EntryInfo {
  fs::path path;
  std::string hex;
  std::int64_t size = 0;
  fs::file_time_type mtime;  // last store or hit
};

bool is_entry_name(const std::string& name) {
  if (name.size() != 35 || name.substr(32) != ".rr") return false;
  return std::all_of(name.begin(), name.begin() + 32, [](char c) {
    return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
  });
}

/// Entries currently on disk (ignores temp files and locks).
std::vector<EntryInfo> list_entries(const std::string& dir) {
  std::vector<EntryInfo> entries;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const fs::path& path = it->path();
    const std::string name = path.filename().string();
    if (!is_entry_name(name)) continue;
    EntryInfo info;
    info.path = path;
    info.hex = name.substr(0, 32);
    std::error_code stat_ec;
    const auto size = fs::file_size(path, stat_ec);
    if (stat_ec) continue;  // vanished mid-scan (evicted by a peer)
    info.size = static_cast<std::int64_t>(size);
    info.mtime = fs::last_write_time(path, stat_ec);
    if (stat_ec) continue;
    entries.push_back(std::move(info));
  }
  return entries;
}

std::int64_t total_size(const std::vector<EntryInfo>& entries) {
  std::int64_t total = 0;
  for (const EntryInfo& e : entries) total += e.size;
  return total;
}

/// Sorts oldest-access-first: by mtime, then by key when a timestamp ties.
void sort_lru(std::vector<EntryInfo>& entries) {
  std::sort(entries.begin(), entries.end(),
            [](const EntryInfo& a, const EntryInfo& b) {
              return std::tie(a.mtime, a.hex) < std::tie(b.mtime, b.hex);
            });
}

/// True when the pid embedded in a temp-file name (serialize::temp_path_for)
/// still names a live process (alive or unkillable-but-present). Unparsable
/// pids count as dead — the file can only be an orphan from a crashed writer.
bool tmp_owner_alive(const std::string& name) {
  const auto pos = name.rfind(".tmp");
  if (pos == std::string::npos) return false;
  std::string pid_text = name.substr(pos + 4);
  const auto dot = pid_text.find('.');
  if (dot != std::string::npos) pid_text = pid_text.substr(0, dot);
  const auto pid = runtime::parse_int_strict(pid_text.c_str());
  if (!pid.has_value() || *pid <= 0 || *pid > 0x7FFFFFFF) return false;
  return ::kill(static_cast<pid_t>(*pid), 0) == 0 || errno == EPERM;
}

}  // namespace

FsCacheBackend::FsCacheBackend(std::string dir, std::int64_t budget_bytes)
    : dir_(std::move(dir)), budget_(std::max<std::int64_t>(budget_bytes, 0)) {
  if (dir_.empty()) {
    throw std::invalid_argument("FsCacheBackend needs a cache directory");
  }
}

std::string FsCacheBackend::path_for(const CellKey& key) const {
  return (fs::path(dir_) / (key.hex() + ".rr")).string();
}

std::string FsCacheBackend::lock_path_for(const CellKey& key) const {
  return (fs::path(dir_) / (key.hex() + ".lock")).string();
}

std::string FsCacheBackend::gc_lock_path() const {
  return (fs::path(dir_) / kGcLockName).string();
}

void FsCacheBackend::touch(const CellKey& key) const {
  (void)::utimensat(AT_FDCWD, path_for(key).c_str(), nullptr, 0);
}

void FsCacheBackend::ensure_dir() const {
  std::error_code ec;
  fs::create_directories(dir_, ec);
}

std::optional<core::RunResult> FsCacheBackend::load(const CellKey& key,
                                                    CacheStats* run,
                                                    bool count_miss) {
  const std::string path = path_for(key);
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  if (ec) {
    if (!count_miss) return std::nullopt;
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.misses;
    if (run != nullptr) ++run->misses;
    return std::nullopt;
  }
  try {
    core::RunResult result = serialize::load_run_result(path, key.hi, key.lo);
    touch(key);
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.hits;
    stats_.bytes_read += static_cast<std::int64_t>(size);
    if (run != nullptr) {
      ++run->hits;
      run->bytes_read += static_cast<std::int64_t>(size);
    }
    return result;
  } catch (const serialize::CheckpointError&) {
    if (!count_miss) return std::nullopt;
    // An entry evicted by a peer between our stat and our open is a plain
    // miss; only a file that is still present and unreadable is corrupt.
    std::error_code gone_ec;
    const bool vanished = !fs::exists(path, gone_ec);
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.misses;
    if (run != nullptr) ++run->misses;
    if (!vanished) {
      ++stats_.corrupt;
      if (run != nullptr) ++run->corrupt;
    }
    return std::nullopt;
  }
}

bool FsCacheBackend::has_entry(const CellKey& key) const {
  std::error_code ec;
  return fs::exists(path_for(key), ec) && !ec;
}

std::optional<std::string> FsCacheBackend::load_bytes(const CellKey& key) {
  std::optional<std::string> bytes = serialize::read_file(path_for(key));
  if (bytes.has_value()) touch(key);
  return bytes;
}

bool FsCacheBackend::store(const CellKey& key, const core::RunResult& result,
                           CacheStats* run) {
  return store_bytes(key, serialize::encode_run_result(result, key.hi, key.lo),
                     run);
}

bool FsCacheBackend::store_bytes(const CellKey& key, std::string_view bytes,
                                 CacheStats* run) {
  ensure_dir();
  if (!serialize::write_file_atomic(path_for(key), bytes)) return false;
  const auto size = static_cast<std::int64_t>(bytes.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.stores;
    stats_.bytes_written += size;
    if (run != nullptr) {
      ++run->stores;
      run->bytes_written += size;
    }
  }
  if (budget_ > 0) {
    if (approx_bytes_.load(std::memory_order_relaxed) >= 0) {
      approx_bytes_.fetch_add(size, std::memory_order_relaxed);
    }
    maybe_evict();
  }
  return true;
}

std::optional<CacheClaim> FsCacheBackend::try_claim(const CellKey& key) {
  ensure_dir();
  return wrap_lock(FileLock::try_acquire(lock_path_for(key)));
}

std::optional<CacheClaim> FsCacheBackend::claim(const CellKey& key) {
  ensure_dir();
  return wrap_lock(FileLock::acquire(lock_path_for(key)));
}

void FsCacheBackend::maybe_evict() {
  // Cheap pre-check: a running estimate of total entry bytes (seeded by one
  // scan, advanced by our own stores, reset to the authoritative total on
  // each eviction pass). Peers' stores are invisible to it, but they
  // advance their own estimates — whoever crosses the budget evicts.
  std::int64_t approx = approx_bytes_.load(std::memory_order_relaxed);
  if (approx < 0) {
    approx = total_size(list_entries(dir_));
    approx_bytes_.store(approx, std::memory_order_relaxed);
  }
  if (approx <= budget_) return;
  auto lock = FileLock::try_acquire(gc_lock_path());
  if (!lock.has_value()) return;  // a peer is already evicting
  evict_to_budget_locked(budget_, nullptr);
}

void FsCacheBackend::evict_to_budget_locked(std::int64_t budget,
                                            GcStats* gc_stats) {
  std::vector<EntryInfo> entries = list_entries(dir_);
  std::int64_t total = total_size(entries);
  auto remaining = static_cast<std::int64_t>(entries.size());
  if (budget > 0 && total > budget) {
    sort_lru(entries);
    for (const EntryInfo& victim : entries) {
      if (total <= budget) break;
      // In-flight keys (claim held by a trainer or a reader double-check)
      // are never evicted; holding the claim while removing closes the
      // race against a concurrent claimant of the same key.
      auto key_lock = FileLock::try_acquire(
          (victim.path.parent_path() / (victim.hex + ".lock")).string());
      if (!key_lock.has_value()) continue;
      std::error_code ec;
      fs::remove(victim.path, ec);
      key_lock->unlink_and_release();
      if (ec) continue;
      total -= victim.size;
      --remaining;
      if (gc_stats != nullptr) {
        ++gc_stats->evicted;
        gc_stats->evicted_bytes += victim.size;
      }
    }
  }
  approx_bytes_.store(total, std::memory_order_relaxed);
  if (gc_stats != nullptr) {
    gc_stats->entries = remaining;
    gc_stats->bytes = total;
  }
}

GcStats FsCacheBackend::gc() {
  GcStats result;
  std::error_code ec;
  if (!fs::exists(dir_, ec)) return result;
  auto lock = FileLock::acquire(gc_lock_path());
  if (!lock.has_value()) return result;

  // Sweep orphaned temp files: a writer that died between open and rename
  // leaves `<entry>.tmp<pid>.<tid>` behind. A live pid means a store is in
  // flight right now — leave it alone.
  std::vector<fs::path> tmp_files;
  std::vector<fs::path> lock_files;
  for (fs::directory_iterator it(dir_, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.find(".tmp") != std::string::npos) {
      tmp_files.push_back(it->path());
    } else if (name.size() > 5 && name.substr(name.size() - 5) == ".lock" &&
               name != kGcLockName) {
      lock_files.push_back(it->path());
    }
  }
  for (const fs::path& tmp : tmp_files) {
    if (tmp_owner_alive(tmp.filename().string())) continue;
    fs::remove(tmp, ec);
    if (!ec) ++result.removed_tmp;
  }
  // Sweep unheld key lockfiles (left behind by finished or killed claims).
  // try_acquire + unlink-under-lock keeps this safe against concurrent
  // claimants — they detect the dead inode and re-create the file.
  for (const fs::path& path : lock_files) {
    auto key_lock = FileLock::try_acquire(path.string());
    if (!key_lock.has_value()) continue;  // held: a trainer owns this key
    key_lock->unlink_and_release();
    ++result.removed_locks;
  }

  evict_to_budget_locked(budget_, &result);
  return result;
}

CacheStats FsCacheBackend::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace nnr::sched
