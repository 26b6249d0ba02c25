// Whole-file I/O. A write is a replacement that a reader never sees half
// done: the bytes go to a temp file next to the target, which rename(2)
// then moves over it. Every file the cache, the fleet queue, model
// checkpoints and the daemon persist goes through here, and read_file()
// reads each of them back in one piece.
//
// The temp file is `<path>.tmp<pid>.<tid>`: the pid lets
// FsCacheBackend::gc() tell a live writer's file from a crashed writer's
// orphan, and the thread id keeps two writers of one path in one process
// (pool workers storing the same key) off each other's temp file.
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace nnr::serialize {

/// The temp file write_file_atomic() stages `path` in, for this thread.
[[nodiscard]] std::string temp_path_for(const std::string& path);

/// Replaces `path` with exactly `bytes`. False on any I/O failure, which
/// leaves `path` as it was and no temp file behind.
bool write_file_atomic(const std::string& path, std::string_view bytes);

/// The whole content of `path`, read with one sized read. nullopt when the
/// file cannot be opened or read whole.
[[nodiscard]] std::optional<std::string> read_file(const std::string& path);

}  // namespace nnr::serialize
