#include "io/journal.h"

#include <unistd.h>

#include <cstdlib>
#include <cstring>

#include "util/failpoint.h"

namespace fats {
namespace {

constexpr char kMagic[8] = {'F', 'A', 'T', 'S', 'J', 'R', 'N', '1'};
// Version 2: training sessions journal no local models and no round-loss
// accumulator in their progress records.
constexpr uint32_t kVersion = 2;
constexpr int64_t kHeaderBytes = 12;  // magic + u32 version
// Sanity bound: a frame longer than this is corrupt, not large.
constexpr uint32_t kMaxRecordBytes = uint32_t{1} << 30;

void PutU32(char* out, uint32_t value) {
  out[0] = static_cast<char>(value & 0xFF);
  out[1] = static_cast<char>((value >> 8) & 0xFF);
  out[2] = static_cast<char>((value >> 16) & 0xFF);
  out[3] = static_cast<char>((value >> 24) & 0xFF);
}

uint32_t GetU32(const char* in) {
  return static_cast<uint32_t>(static_cast<unsigned char>(in[0])) |
         static_cast<uint32_t>(static_cast<unsigned char>(in[1])) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(in[2])) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(in[3])) << 24;
}

internal::SyncObserver sync_observer = nullptr;

void ReportSynced(const std::string& path, int64_t synced_bytes) {
  if (sync_observer != nullptr) sync_observer(path, synced_bytes);
}

Status SyncFile(std::FILE* file, const std::string& path) {
  FATS_FAILPOINT_STATUS("journal.sync_file");
  if (std::fflush(file) != 0) {
    return Status::IoError("journal flush failed: " + path);
  }
  if (::fsync(::fileno(file)) != 0) {
    return Status::IoError("journal fsync failed: " + path);
  }
  return Status::OK();
}

}  // namespace

Result<JournalScan> ScanJournal(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::IoError("cannot open journal: " + path);
  }
  std::string blob;
  char buffer[1 << 16];
  size_t read = 0;
  while ((read = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    blob.append(buffer, read);
  }
  const bool read_error = std::ferror(file) != 0;
  std::fclose(file);
  if (read_error) return Status::IoError("journal read failed: " + path);

  if (blob.size() < static_cast<size_t>(kHeaderBytes) ||
      std::memcmp(blob.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not a FATS journal: " + path);
  }
  if (GetU32(blob.data() + sizeof(kMagic)) != kVersion) {
    return Status::InvalidArgument("unsupported journal version: " + path);
  }

  JournalScan scan;
  scan.valid_bytes = kHeaderBytes;
  size_t pos = static_cast<size_t>(kHeaderBytes);
  while (pos < blob.size()) {
    if (blob.size() - pos < 8) {
      scan.torn_tail = true;
      scan.tail_detail = "truncated frame header";
      break;
    }
    const uint32_t length = GetU32(blob.data() + pos);
    const uint32_t expected_crc = GetU32(blob.data() + pos + 4);
    // Append never writes an empty record, and eight zero bytes would pass
    // as one (the CRC-32 of no bytes is 0): zeros are what a power loss
    // leaves where a file's new size reached the device before its data.
    if (length == 0) {
      scan.torn_tail = true;
      scan.tail_detail = "zero-length frame";
      break;
    }
    if (length > kMaxRecordBytes) {
      scan.torn_tail = true;
      scan.tail_detail = "frame length exceeds sanity bound";
      break;
    }
    if (blob.size() - pos - 8 < length) {
      scan.torn_tail = true;
      scan.tail_detail = "truncated payload";
      break;
    }
    const char* payload = blob.data() + pos + 8;
    if (Crc32(payload, length) != expected_crc) {
      scan.torn_tail = true;
      scan.tail_detail = "CRC mismatch";
      break;
    }
    pos += 8 + length;
    scan.records.emplace_back(payload, length);
    scan.record_ends.push_back(static_cast<int64_t>(pos));
    scan.valid_bytes = static_cast<int64_t>(pos);
  }
  return scan;
}

Status JournalWriter::Create(const std::string& path) {
  const std::string tmp_path = path + ".tmp";
  std::FILE* file = std::fopen(tmp_path.c_str(), "wb");
  if (file == nullptr) {
    return Status::IoError("cannot create journal: " + tmp_path);
  }
  char header[kHeaderBytes];
  std::memcpy(header, kMagic, sizeof(kMagic));
  PutU32(header + sizeof(kMagic), kVersion);
  const bool wrote =
      std::fwrite(header, 1, sizeof(header), file) == sizeof(header);
  Status synced = wrote ? SyncFile(file, tmp_path)
                        : Status::IoError("journal header write failed: " +
                                          tmp_path);
  std::fclose(file);
  if (!synced.ok()) {
    std::remove(tmp_path.c_str());
    return synced;
  }
  // Crash here strands `<path>.tmp`; SweepOrphanTmp removes it on the next
  // open, and the previous segment (if any) is still intact at `path`.
  FATS_FAILPOINT("journal.create.tmp");
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::IoError("cannot rename journal into place: " + path);
  }
  ReportSynced(path, kHeaderBytes);
  return Status::OK();
}

Result<std::unique_ptr<JournalWriter>> JournalWriter::OpenForAppend(
    const std::string& path, int64_t valid_bytes) {
  if (valid_bytes < kHeaderBytes) {
    return Status::InvalidArgument(
        "journal append offset inside the header; Create a fresh segment");
  }
  // Discard the torn / uncommitted tail so appended records follow the last
  // committed one directly.
  FATS_FAILPOINT_STATUS("journal.truncate_tail");
  if (::truncate(path.c_str(), static_cast<off_t>(valid_bytes)) != 0) {
    return Status::IoError("cannot truncate journal tail: " + path);
  }
  std::FILE* file = std::fopen(path.c_str(), "ab");
  if (file == nullptr) {
    return Status::IoError("cannot open journal for append: " + path);
  }
  return std::unique_ptr<JournalWriter>(
      new JournalWriter(file, path, valid_bytes));
}

// Destructor cannot surface a Status; callers needing the sync result must
// call Close() themselves.  fats-lint: allow(discarded-status)
JournalWriter::~JournalWriter() { (void)Close(); }

Status JournalWriter::Append(std::string_view payload) {
  if (!status_.ok()) return status_;
  if (file_ == nullptr) {
    status_ = Status::IoError("journal already closed: " + path_);
    return status_;
  }
  if (payload.empty()) {
    return Status::InvalidArgument("empty journal record refused: " + path_);
  }
  static const bool registered = failpoint::RegisterSite("journal.append");
  (void)registered;
  failpoint::Triggered triggered = failpoint::Triggered::kNone;
  if (failpoint::AnyArmed()) triggered = failpoint::Evaluate("journal.append");
  if (triggered == failpoint::Triggered::kError) {
    status_ = Status::IoError("failpoint 'journal.append' injected an error");
    return status_;
  }

  char frame[8];
  PutU32(frame, static_cast<uint32_t>(payload.size()));
  PutU32(frame + 4, Crc32(payload.data(), payload.size()));

  bool ok = std::fwrite(frame, 1, sizeof(frame), file_) == sizeof(frame);
  if (ok && triggered == failpoint::Triggered::kTornWrite) {
    // Persist a deliberately torn record — full frame header, half the
    // payload — then die like a crash would. Recovery must detect the CRC
    // mismatch and discard exactly this record.
    const size_t half = payload.size() / 2;
    (void)std::fwrite(payload.data(), 1, half, file_);
    (void)std::fflush(file_);
    (void)::fsync(::fileno(file_));
    std::_Exit(failpoint::kCrashExitCode);
  }
  ok = ok && std::fwrite(payload.data(), 1, payload.size(), file_) ==
                  payload.size();
  // Push the frame into the page cache so it survives process death; only
  // Sync() pushes further to the device.
  ok = ok && std::fflush(file_) == 0;
  if (!ok) {
    status_ = Status::IoError("journal append failed: " + path_);
    return status_;
  }
  size_ += static_cast<int64_t>(sizeof(frame) + payload.size());
  return Status::OK();
}

Status JournalWriter::SyncToDevice() {
  FATS_RETURN_NOT_OK(SyncFile(file_, path_));
  synced_size_ = size_;
  ReportSynced(path_, size_);
  return Status::OK();
}

Status JournalWriter::Sync() {
  if (!status_.ok()) return status_;
  if (file_ == nullptr) {
    status_ = Status::IoError("journal already closed: " + path_);
    return status_;
  }
  FATS_FAILPOINT("journal.sync");
  Status synced = SyncToDevice();
  if (!synced.ok()) status_ = synced;
  return synced;
}

Status JournalWriter::Close() {
  if (file_ == nullptr) return status_;
  Status synced = status_.ok() ? SyncToDevice() : status_;
  if (std::fclose(file_) != 0 && synced.ok()) {
    synced = Status::IoError("journal close failed: " + path_);
  }
  file_ = nullptr;
  if (!synced.ok() && status_.ok()) status_ = synced;
  return synced;
}

bool SweepOrphanTmp(const std::string& path) {
  return std::remove((path + ".tmp").c_str()) == 0;
}

void internal::SetSyncObserver(SyncObserver observer) {
  sync_observer = observer;
}

}  // namespace fats
