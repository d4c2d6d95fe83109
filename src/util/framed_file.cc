#include "util/framed_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <fstream>
#include <iterator>

#include "util/string_util.h"

namespace gale::util {
namespace {

struct FileHeader {
  char magic[8];
  uint32_t version;
  uint32_t flags;  // reserved, 0
};

struct RecordHeader {
  uint64_t payload_size;
  uint64_t checksum;  // FNV-1a over the payload bytes
};

static_assert(sizeof(FileHeader) == 16 && sizeof(RecordHeader) == 16,
              "the on-disk frames are 16 bytes each");

Status CorruptRecord(const std::string& who, size_t record,
                     const std::string& what) {
  return Status::DataLoss(who + ": record " + std::to_string(record) + ": " +
                          what);
}

// Writes all of `bytes` to `fd`, retrying short writes.
bool WriteAll(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    bytes.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

}  // namespace

std::string FramedFileHeader(const FileFormat& format) {
  FileHeader header{};  // flags 0
  std::memcpy(header.magic, format.magic.data(), sizeof header.magic);
  header.version = format.version;
  std::string out;
  AppendPod(&out, header);
  return out;
}

void AppendRecord(std::string* out, std::string_view payload) {
  AppendPod(out, RecordHeader{payload.size(), Fnv1aHash(payload)});
  out->append(payload);
}

Result<FramedFile> FramedFile::Read(const std::string& path,
                                    const FileFormat& format,
                                    const std::string& who) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound(who + ": no such file: " + path);
  FramedFile file;
  file.bytes_.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
  const std::string& blob = file.bytes_;

  FileHeader header{};
  if (blob.size() < sizeof header) {
    return Status::DataLoss(who + ": file shorter than the header");
  }
  std::memcpy(&header, blob.data(), sizeof header);
  if (format.magic != std::string_view(header.magic, sizeof header.magic)) {
    return Status::DataLoss(who + ": bad magic");
  }
  if (header.version != format.version) {
    return Status::FailedPrecondition(
        who + ": format version " + std::to_string(header.version) +
        " != supported version " + std::to_string(format.version));
  }
  if (header.flags != 0) {
    return Status::DataLoss(who + ": nonzero reserved flags");
  }

  for (size_t pos = sizeof header; pos < blob.size();) {
    const size_t index = file.records_.size();
    if (blob.size() - pos < sizeof(RecordHeader)) {
      return CorruptRecord(who, index, "truncated record header");
    }
    RecordHeader record{};
    std::memcpy(&record, blob.data() + pos, sizeof record);
    pos += sizeof record;
    if (record.payload_size > blob.size() - pos) {
      return CorruptRecord(who, index, "truncated payload");
    }
    if (Fnv1aHash(std::string_view(blob).substr(pos, record.payload_size)) !=
        record.checksum) {
      return CorruptRecord(who, index, "payload checksum mismatch");
    }
    file.records_.emplace_back(pos, record.payload_size);
    pos += record.payload_size;
  }
  return file;
}

Status WriteFileAtomically(const std::string& path, std::string_view bytes,
                           const std::string& who) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) {
    const int err = errno;
    return Status(err == ENOENT ? StatusCode::kNotFound : StatusCode::kInternal,
                  who + ": cannot create " + tmp + ": " + std::strerror(err));
  }
  std::string error;
  if (!WriteAll(fd, bytes) || ::fsync(fd) != 0) error = std::strerror(errno);
  if (::close(fd) != 0 && error.empty()) error = std::strerror(errno);
  if (error.empty() && ::rename(tmp.c_str(), path.c_str()) != 0) {
    error = std::strerror(errno);
  }
  if (!error.empty()) {
    ::unlink(tmp.c_str());
    return Status::Internal(who + ": cannot write " + path + ": " + error);
  }
  // The rename is durable only once the directory entry is.
  const size_t slash = path.rfind('/');
  const std::string dir =
      slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  const bool synced = dir_fd >= 0 && ::fsync(dir_fd) == 0;
  if (dir_fd >= 0) ::close(dir_fd);
  if (!synced) return Status::Internal(who + ": cannot fsync " + dir);
  return Status::Ok();
}

}  // namespace gale::util
