#include "store/delta_log.h"

#include <cstring>
#include <iterator>
#include <string_view>
#include <utility>

#include "util/string_util.h"

namespace gale::store {
namespace {

// On-disk layout (same persistence conventions as serve/snapshot.cc):
// an 8-byte magic plus version/flags header, then per-batch framed
// records {payload_size, FNV-1a checksum, payload bytes}.
constexpr char kMagic[8] = {'G', 'A', 'L', 'E', 'D', 'L', 'O', 'G'};

struct FileHeader {
  char magic[8];
  uint32_t version;
  uint32_t flags;  // reserved, 0
};

struct RecordHeader {
  uint64_t payload_size;
  uint64_t checksum;  // FNV-1a over the payload bytes
};

void AppendBytes(std::string* out, const void* p, size_t bytes) {
  out->append(static_cast<const char*>(p), bytes);
}

template <typename T>
void AppendPod(std::string* out, T v) {
  AppendBytes(out, &v, sizeof v);
}

void AppendValue(std::string* out, const graph::AttributeValue& value) {
  AppendPod<uint32_t>(out, static_cast<uint32_t>(value.kind));
  switch (value.kind) {
    case graph::ValueKind::kNull:
      break;
    case graph::ValueKind::kNumeric:
      AppendPod<double>(out, value.numeric);
      break;
    case graph::ValueKind::kText:
      AppendPod<uint64_t>(out, value.text.size());
      AppendBytes(out, value.text.data(), value.text.size());
      break;
  }
}

void AppendDelta(std::string* out, const Delta& d) {
  AppendPod<uint32_t>(out, static_cast<uint32_t>(d.kind));
  switch (d.kind) {
    case DeltaKind::kUpsertNode:
      AppendPod<uint64_t>(out, d.node);
      AppendPod<uint64_t>(out, d.node_type);
      AppendPod<uint64_t>(out, d.values.size());
      for (const graph::AttributeValue& v : d.values) AppendValue(out, v);
      break;
    case DeltaKind::kUpsertEdge:
    case DeltaKind::kRemoveEdge:
      AppendPod<uint64_t>(out, d.u);
      AppendPod<uint64_t>(out, d.v);
      AppendPod<uint64_t>(out, d.edge_type);
      break;
    case DeltaKind::kSetAttribute:
      AppendPod<uint64_t>(out, d.node);
      AppendPod<uint64_t>(out, d.attr);
      AppendValue(out, d.value);
      break;
    case DeltaKind::kSetLabel:
      AppendPod<uint64_t>(out, d.node);
      AppendPod<int32_t>(out, static_cast<int32_t>(d.label));
      break;
  }
}

std::string SerializeBatch(const DeltaBatch& batch) {
  std::string out;
  AppendPod<uint64_t>(&out, batch.size());
  for (const Delta& d : batch) AppendDelta(&out, d);
  return out;
}

// Bounds-checked cursor over one record's payload (the snapshot loader's
// reader, specialized to delta payloads).
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view data) : data_(data) {}

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

  bool ReadValue(graph::AttributeValue* value) {
    uint32_t kind = 0;
    if (!ReadPod(&kind)) return false;
    switch (static_cast<graph::ValueKind>(kind)) {
      case graph::ValueKind::kNull:
        *value = graph::AttributeValue::Null();
        return true;
      case graph::ValueKind::kNumeric: {
        double numeric = 0.0;
        if (!ReadPod(&numeric)) return false;
        *value = graph::AttributeValue::Number(numeric);
        return true;
      }
      case graph::ValueKind::kText: {
        uint64_t len = 0;
        if (!ReadPod(&len) || len > remaining()) return false;
        std::string text(len, '\0');
        if (!ReadBytes(text.data(), len)) return false;
        *value = graph::AttributeValue::Text(std::move(text));
        return true;
      }
    }
    return false;  // unknown value kind
  }

  bool ReadDelta(Delta* d) {
    uint32_t kind = 0;
    if (!ReadPod(&kind)) return false;
    switch (static_cast<DeltaKind>(kind)) {
      case DeltaKind::kUpsertNode: {
        uint64_t node = 0;
        uint64_t node_type = 0;
        uint64_t num_values = 0;
        if (!ReadPod(&node) || !ReadPod(&node_type) ||
            !ReadPod(&num_values)) {
          return false;
        }
        // Each value is at least its 4-byte kind tag.
        if (num_values > remaining() / sizeof(uint32_t)) return false;
        std::vector<graph::AttributeValue> values(num_values);
        for (uint64_t i = 0; i < num_values; ++i) {
          if (!ReadValue(&values[i])) return false;
        }
        *d = Delta::UpsertNode(node, node_type, std::move(values));
        return true;
      }
      case DeltaKind::kUpsertEdge:
      case DeltaKind::kRemoveEdge: {
        uint64_t u = 0;
        uint64_t v = 0;
        uint64_t edge_type = 0;
        if (!ReadPod(&u) || !ReadPod(&v) || !ReadPod(&edge_type)) {
          return false;
        }
        *d = static_cast<DeltaKind>(kind) == DeltaKind::kUpsertEdge
                 ? Delta::UpsertEdge(u, v, edge_type)
                 : Delta::RemoveEdge(u, v, edge_type);
        return true;
      }
      case DeltaKind::kSetAttribute: {
        uint64_t node = 0;
        uint64_t attr = 0;
        graph::AttributeValue value;
        if (!ReadPod(&node) || !ReadPod(&attr) || !ReadValue(&value)) {
          return false;
        }
        *d = Delta::SetAttribute(node, attr, std::move(value));
        return true;
      }
      case DeltaKind::kSetLabel: {
        uint64_t node = 0;
        int32_t label = 0;
        if (!ReadPod(&node) || !ReadPod(&label)) return false;
        *d = Delta::SetLabel(node, label);
        return true;
      }
    }
    return false;  // unknown delta kind
  }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

util::Status CorruptRecord(const std::string& who, size_t record,
                           const std::string& what) {
  return util::Status::DataLoss(who + ": record " + std::to_string(record) +
                                ": " + what);
}

util::Status CheckHeader(const std::string& blob, const std::string& who) {
  if (blob.size() < sizeof(FileHeader)) {
    return util::Status::DataLoss(who + ": file shorter than the header");
  }
  FileHeader header;
  std::memcpy(&header, blob.data(), sizeof header);
  if (std::memcmp(header.magic, kMagic, sizeof kMagic) != 0) {
    return util::Status::DataLoss(who + ": bad magic");
  }
  if (header.version != kDeltaLogFormatVersion) {
    return util::Status::FailedPrecondition(
        who + ": format version " + std::to_string(header.version) +
        " != supported version " + std::to_string(kDeltaLogFormatVersion));
  }
  return util::Status::Ok();
}

// Reads the whole log at `path` into `*blob` and checks its file header.
util::Status ReadLogBytes(const std::string& path, const std::string& who,
                          std::string* blob) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return util::Status::NotFound(who + ": no such file: " + path);
  blob->assign(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
  return CheckHeader(*blob, who);
}

// Walks the framed records after the file header, checking each record's
// size and checksum before handing its payload to
// `visit(record_index, payload)`. Stops at the first bad frame or the
// first non-OK status `visit` returns. The reader decodes through it and
// OpenForAppend validates through it, so both judge a frame the same way.
template <typename Visit>
util::Status ForEachRecord(const std::string& blob, const std::string& who,
                           Visit visit) {
  size_t pos = sizeof(FileHeader);
  for (size_t index = 0; pos < blob.size(); ++index) {
    if (blob.size() - pos < sizeof(RecordHeader)) {
      return CorruptRecord(who, index, "truncated record header");
    }
    RecordHeader record;
    std::memcpy(&record, blob.data() + pos, sizeof record);
    pos += sizeof record;
    if (record.payload_size > blob.size() - pos) {
      return CorruptRecord(who, index, "truncated payload");
    }
    const std::string_view payload(blob.data() + pos, record.payload_size);
    pos += record.payload_size;
    if (util::Fnv1aHash(payload) != record.checksum) {
      return CorruptRecord(who, index, "payload checksum mismatch");
    }
    GALE_RETURN_IF_ERROR(visit(index, payload));
  }
  return util::Status::Ok();
}

}  // namespace

Delta Delta::UpsertNode(size_t node, size_t node_type,
                        std::vector<graph::AttributeValue> values) {
  Delta d;
  d.kind = DeltaKind::kUpsertNode;
  d.node = node;
  d.node_type = node_type;
  d.values = std::move(values);
  return d;
}

Delta Delta::UpsertEdge(size_t u, size_t v, size_t edge_type) {
  Delta d;
  d.kind = DeltaKind::kUpsertEdge;
  d.u = u;
  d.v = v;
  d.edge_type = edge_type;
  return d;
}

Delta Delta::RemoveEdge(size_t u, size_t v, size_t edge_type) {
  Delta d;
  d.kind = DeltaKind::kRemoveEdge;
  d.u = u;
  d.v = v;
  d.edge_type = edge_type;
  return d;
}

Delta Delta::SetAttribute(size_t node, size_t attr,
                          graph::AttributeValue value) {
  Delta d;
  d.kind = DeltaKind::kSetAttribute;
  d.node = node;
  d.attr = attr;
  d.value = std::move(value);
  return d;
}

Delta Delta::SetLabel(size_t node, int label) {
  Delta d;
  d.kind = DeltaKind::kSetLabel;
  d.node = node;
  d.label = label;
  return d;
}

bool Delta::operator==(const Delta& other) const {
  if (kind != other.kind) return false;
  switch (kind) {
    case DeltaKind::kUpsertNode:
      return node == other.node && node_type == other.node_type &&
             values == other.values;
    case DeltaKind::kUpsertEdge:
    case DeltaKind::kRemoveEdge:
      return u == other.u && v == other.v && edge_type == other.edge_type;
    case DeltaKind::kSetAttribute:
      return node == other.node && attr == other.attr && value == other.value;
    case DeltaKind::kSetLabel:
      return node == other.node && label == other.label;
  }
  return false;
}

util::Result<DeltaLogWriter> DeltaLogWriter::Create(const std::string& path) {
  DeltaLogWriter writer;
  writer.out_.open(path, std::ios::binary | std::ios::trunc);
  if (!writer.out_) {
    return util::Status::NotFound("DeltaLogWriter::Create: cannot open " +
                                  path);
  }
  FileHeader header;
  std::memcpy(header.magic, kMagic, sizeof kMagic);
  header.version = kDeltaLogFormatVersion;
  header.flags = 0;
  writer.out_.write(reinterpret_cast<const char*>(&header), sizeof header);
  writer.out_.flush();
  if (!writer.out_) {
    return util::Status::Internal("DeltaLogWriter::Create: write failed: " +
                                  path);
  }
  return writer;
}

util::Result<DeltaLogWriter> DeltaLogWriter::OpenForAppend(
    const std::string& path) {
  const std::string who = "DeltaLogWriter::OpenForAppend";
  std::string blob;
  GALE_RETURN_IF_ERROR(ReadLogBytes(path, who, &blob));
  // Appending after a torn or corrupt record would acknowledge batches
  // that ReadDeltaLog can never return, so every frame is checked first.
  GALE_RETURN_IF_ERROR(ForEachRecord(
      blob, who,
      [](size_t, std::string_view) { return util::Status::Ok(); }));

  DeltaLogWriter writer;
  writer.out_.open(path, std::ios::binary | std::ios::app);
  if (!writer.out_) {
    return util::Status::NotFound(
        "DeltaLogWriter::OpenForAppend: cannot open " + path);
  }
  return writer;
}

util::Status DeltaLogWriter::Append(const DeltaBatch& batch) {
  if (batch.empty()) {
    return util::Status::InvalidArgument(
        "DeltaLogWriter::Append: empty batch");
  }
  const std::string payload = SerializeBatch(batch);
  RecordHeader record;
  record.payload_size = payload.size();
  record.checksum =
      util::Fnv1aHash(std::string_view(payload.data(), payload.size()));
  out_.write(reinterpret_cast<const char*>(&record), sizeof record);
  out_.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  out_.flush();
  if (!out_) {
    return util::Status::Internal("DeltaLogWriter::Append: write failed");
  }
  batches_written_ += 1;
  return util::Status::Ok();
}

util::Result<std::vector<DeltaBatch>> ReadDeltaLog(const std::string& path) {
  const std::string who = "ReadDeltaLog";
  std::string blob;
  GALE_RETURN_IF_ERROR(ReadLogBytes(path, who, &blob));

  std::vector<DeltaBatch> batches;
  const util::Status status = ForEachRecord(
      blob, who,
      [&](size_t index, std::string_view payload) -> util::Status {
        PayloadReader reader(payload);
        uint64_t num_deltas = 0;
        // Each delta is at least its 4-byte kind tag.
        if (!reader.ReadPod(&num_deltas) ||
            num_deltas > reader.remaining() / sizeof(uint32_t)) {
          return CorruptRecord(who, index, "delta count");
        }
        DeltaBatch batch(num_deltas);
        for (uint64_t i = 0; i < num_deltas; ++i) {
          if (!reader.ReadDelta(&batch[i])) {
            return CorruptRecord(who, index,
                                 "delta " + std::to_string(i) + " malformed");
          }
        }
        if (!reader.exhausted()) {
          return CorruptRecord(who, index, "trailing bytes after payload");
        }
        batches.push_back(std::move(batch));
        return util::Status::Ok();
      });
  if (!status.ok()) return status;
  return batches;
}

}  // namespace gale::store
