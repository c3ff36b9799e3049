// Crash-safe artifact emission.
//
// Every artifact HALOTIS writes (VCD, CSV, REPORT.md, HASHES.txt, lint
// reports, converted netlists) goes through write_file_atomic:
// write to `<path>.tmp`, flush, verify the stream, close, verify again,
// then atomically rename over the destination.  A failure at ANY step --
// disk full mid-write, a failed close, a failed rename -- removes the
// temp file and throws RunError(kIoError); the destination is either the
// complete new content or untouched, never a torn prefix.  (A hard crash
// can still leave a stale `<path>.tmp`; the destination stays intact, and
// the next successful write truncates the temp.)
//
// Fail-point sites (docs/ARCHITECTURE.md): `io.open` (destination not
// writable), `io.write` (write error, e.g. disk full), `io.write.short`
// (a short write that "succeeded" -- the torn-artifact case the atomic
// rename exists to contain), `io.close` (error surfaced only at close),
// `io.rename` (rename failure).
#pragma once

#include <filesystem>
#include <string_view>

namespace halotis {

/// Atomically replaces `path` with `bytes` (binary, byte-exact).  Throws
/// RunError(kIoError) on any failure; never leaves a partial `path`.
void write_file_atomic(const std::filesystem::path& path, std::string_view bytes);

}  // namespace halotis
