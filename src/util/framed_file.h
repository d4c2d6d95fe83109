// The one on-disk container of the repo's binary formats: a 16-byte file
// header {char magic[8], u32 version, u32 flags}, then zero or more
// records, each {u64 payload_size, u64 FNV-1a checksum of the payload}
// followed by the payload. A serve::ScoringSnapshot is a one-record file;
// a store delta log holds one record per batch (DESIGN.md §13–14). Flags
// are reserved: written as 0, and any nonzero flag bit reads as corrupt.
// Fields are memcpy'd native values — a same-architecture persistence
// format, not a wire format.
//
// FramedFile::Read is the one reader, so every format judges frames the
// same way: kNotFound for a missing file, kDataLoss for a short or bad
// header and for the first torn or checksum-failing record (named by
// index), kFailedPrecondition for a version other than the expected one.

#ifndef GALE_UTIL_FRAMED_FILE_H_
#define GALE_UTIL_FRAMED_FILE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace gale::util {

// What opens a framed file: its 8-byte magic and its format version.
struct FileFormat {
  std::string_view magic;  // exactly 8 bytes
  uint32_t version;
};

// Appends the raw bytes of `p` / of one trivially copyable value to *out.
inline void AppendBytes(std::string* out, const void* p, size_t bytes) {
  out->append(static_cast<const char*>(p), bytes);
}

template <typename T>
void AppendPod(std::string* out, T v) {
  AppendBytes(out, &v, sizeof v);
}

// The 16-byte file header of `format`, flags 0.
std::string FramedFileHeader(const FileFormat& format);

// Appends one record (its size, its checksum, then `payload`) to *out.
void AppendRecord(std::string* out, std::string_view payload);

// A framed file read whole, its header and every record frame checked.
class FramedFile {
 public:
  // Reads the file at `path`. Status messages start with `who`.
  static Result<FramedFile> Read(const std::string& path,
                                 const FileFormat& format,
                                 const std::string& who);

  size_t num_records() const { return records_.size(); }
  // The payload of record `i`; its checksum has been verified.
  std::string_view record(size_t i) const {
    return std::string_view(bytes_).substr(records_[i].first,
                                           records_[i].second);
  }

 private:
  std::string bytes_;
  std::vector<std::pair<size_t, size_t>> records_;  // payload offset, size
};

// Replaces the file at `path` with `bytes` so that a crash or a failed
// write leaves either the old file or the new one: the bytes go to
// `path + ".tmp"`, which is fsync'd and renamed over `path`, and then
// the directory is fsync'd. kNotFound when the directory does not exist,
// kInternal when the temporary file cannot be created or a write, fsync
// or rename fails; the old file is then untouched. Status messages start
// with `who`.
Status WriteFileAtomically(const std::string& path, std::string_view bytes,
                           const std::string& who);

// Bounds-checked cursor over a payload. Every Read* returns false on
// overrun instead of touching out-of-range bytes, and CanHold divides
// instead of multiplying, so an absurd count from a corrupt (but
// checksum-colliding) file cannot overflow into an allocation.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return pos_ == data_.size(); }

  bool ReadBytes(void* p, size_t bytes) {
    if (bytes > remaining()) return false;
    std::memcpy(p, data_.data() + pos_, bytes);
    pos_ += bytes;
    return true;
  }

  template <typename T>
  bool ReadPod(T* v) {
    return ReadBytes(v, sizeof *v);
  }

  bool CanHold(uint64_t count, size_t elem_size) const {
    return count <= remaining() / elem_size;
  }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace gale::util

#endif  // GALE_UTIL_FRAMED_FILE_H_
