// Whole-file replacement that a reader never sees half done: the bytes go
// to a temp file next to the target, which rename(2) then moves over it.
// Every file the cache, the fleet queue, model checkpoints and the daemon
// persist goes through here.
//
// The temp file is `<path>.tmp<pid>.<tid>`: the pid lets
// FsCacheBackend::gc() tell a live writer's file from a crashed writer's
// orphan, and the thread id keeps two writers of one path in one process
// (pool workers storing the same key) off each other's temp file.
#pragma once

#include <string>
#include <string_view>

namespace nnr::serialize {

/// The temp file write_file_atomic() stages `path` in, for this thread.
[[nodiscard]] std::string temp_path_for(const std::string& path);

/// Replaces `path` with exactly `bytes`. False on any I/O failure, which
/// leaves `path` as it was and no temp file behind.
bool write_file_atomic(const std::string& path, std::string_view bytes);

}  // namespace nnr::serialize
