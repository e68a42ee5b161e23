// Shared fsync helpers for the tmp + fsync + rename publish discipline
// (the journal's crash-safety recipe, reused by DatasetRepository):
// sync the file's bytes, then the containing directory, so neither torn
// contents nor a vanished directory entry can survive a crash.
#pragma once

#include <string>

namespace bat::io {

/// fsync(2) of the file at `path`; throws std::runtime_error on failure
/// (including failure to open).
void fsync_file(const std::string& path);

/// fsync of `path`'s containing directory: without it, a freshly
/// created or renamed file can itself vanish in a crash even though its
/// bytes were synced.
void fsync_parent_dir(const std::string& path);

}  // namespace bat::io
