#include "store/delta_log.h"

#include <utility>

#include "util/framed_file.h"

namespace gale::store {
namespace {

// A log is a framed file (util/framed_file.h) with one record per batch.
constexpr util::FileFormat kFileFormat{"GALEDLOG", kDeltaLogFormatVersion};

using util::AppendBytes, util::AppendPod;

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

// The payload cursor, plus the delta and value decoders.
class PayloadReader : public util::ByteReader {
 public:
  using ByteReader::ByteReader;

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
};

util::Status CorruptRecord(const std::string& who, size_t record,
                           const std::string& what) {
  return util::Status::DataLoss(who + ": record " + std::to_string(record) +
                                ": " + what);
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
  GALE_RETURN_IF_ERROR(util::WriteFileAtomically(
      path, util::FramedFileHeader(kFileFormat), "DeltaLogWriter::Create"));
  DeltaLogWriter writer;
  writer.out_.open(path, std::ios::binary | std::ios::app);
  if (!writer.out_) {
    return util::Status::NotFound("DeltaLogWriter::Create: cannot open " +
                                  path);
  }
  return writer;
}

util::Result<DeltaLogWriter> DeltaLogWriter::OpenForAppend(
    const std::string& path) {
  // Appending after a torn or corrupt record would acknowledge batches
  // that ReadDeltaLog can never return, so every frame is checked first.
  GALE_RETURN_IF_ERROR(util::FramedFile::Read(path, kFileFormat,
                                              "DeltaLogWriter::OpenForAppend")
                           .status());

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
  std::string record;
  util::AppendRecord(&record, SerializeBatch(batch));
  out_.write(record.data(), static_cast<std::streamsize>(record.size()));
  out_.flush();
  if (!out_) {
    return util::Status::Internal("DeltaLogWriter::Append: write failed");
  }
  batches_written_ += 1;
  return util::Status::Ok();
}

util::Result<std::vector<DeltaBatch>> ReadDeltaLog(const std::string& path) {
  const std::string who = "ReadDeltaLog";
  const util::Result<util::FramedFile> file =
      util::FramedFile::Read(path, kFileFormat, who);
  if (!file.ok()) return file.status();

  std::vector<DeltaBatch> batches;
  for (size_t index = 0; index < file.value().num_records(); ++index) {
    PayloadReader reader(file.value().record(index));
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
  }
  return batches;
}

}  // namespace gale::store
