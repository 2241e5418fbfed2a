// Append-only, CRC-framed journal files.
//
// The journal is the durable half of the crash-exactness contract
// (DESIGN.md §7.3): training appends a record per committed event, and
// because every random draw is a pure function of its Philox stream key,
// replaying the journal's committed prefix and re-executing the tail
// reproduces the in-memory state bit for bit.
//
// File layout:
//
//   "FATSJRN1"  8-byte magic
//   u32         format version (2)
//   repeated records:
//     u32       payload length
//     u32       CRC-32 of the payload (polynomial 0xEDB88320)
//     bytes     payload
//
// All integers little-endian. A record is valid only if its full payload is
// present and the CRC matches; ScanJournal stops at the first invalid frame
// and reports everything before it, so a write torn by a crash (detected by
// the CRC, or by a length running past EOF) costs exactly the uncommitted
// tail, never the file.
//
// Durability discipline: Append pushes each frame to the OS with fflush
// (surviving process death); Sync additionally fsyncs to the device
// (surviving power loss). Callers choose the cadence — the training session
// syncs at every round boundary. Segment creation goes through a
// sibling `<path>.tmp` + rename so a torn header can never occupy the
// journal path; SweepOrphanTmp removes the `.tmp` a crash may strand.
//
// This module performs the raw file writes for the durable path and is the
// one place in src/{core,fl,io} sanctioned to do so (the `raw-io` lint rule
// enforces that elsewhere).

#ifndef FATS_IO_JOURNAL_H_
#define FATS_IO_JOURNAL_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/crc32.h"
#include "util/status.h"

namespace fats {

/// Result of validating a journal file.
struct JournalScan {
  /// Payloads of every complete, CRC-valid record, in file order.
  std::vector<std::string> records;
  /// Byte offsets just past each record in `records` (parallel vector).
  /// valid through the header when `records` is empty.
  std::vector<int64_t> record_ends;
  /// Offset just past the last complete record (>= header size).
  int64_t valid_bytes = 0;
  /// True if trailing bytes after `valid_bytes` were discarded (torn or
  /// corrupt frame).
  bool torn_tail = false;
  /// Human-readable reason for the discarded tail, empty when clean.
  std::string tail_detail;
};

/// Reads and validates `path`. Fails only when the file cannot be opened or
/// its header is not a journal header; torn/corrupt tails are reported via
/// the scan, not as errors.
Result<JournalScan> ScanJournal(const std::string& path);

class JournalWriter {
 public:
  /// Creates a fresh, empty journal at `path` (header only), replacing any
  /// existing file, via tmp+rename with an fsync before the rename.
  static Status Create(const std::string& path);

  /// Opens `path` for appending after `valid_bytes` (from ScanJournal),
  /// truncating any torn tail beyond it first.
  static Result<std::unique_ptr<JournalWriter>> OpenForAppend(
      const std::string& path, int64_t valid_bytes);

  ~JournalWriter();
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Appends one framed record and hands it to the OS (fflush). The first
  /// failure latches into status() and makes all later calls no-ops.
  Status Append(std::string_view payload);

  /// fsyncs the file to the device.
  Status Sync();

  /// Flushes, syncs, and closes. Safe to call twice.
  Status Close();

  const Status& status() const { return status_; }
  const std::string& path() const { return path_; }

 private:
  JournalWriter(std::FILE* file, std::string path)
      : file_(file), path_(std::move(path)) {}

  std::FILE* file_ = nullptr;
  std::string path_;
  Status status_;
};

/// Removes the stale `<path>.tmp` a crash between tmp-write and rename may
/// have stranded next to `path`. Returns true if one was removed.
bool SweepOrphanTmp(const std::string& path);

}  // namespace fats

#endif  // FATS_IO_JOURNAL_H_
