// gale::store delta log — the durable half of the versioned graph store
// (DESIGN.md §14).
//
// A delta log is an append-only stream of *batches*, each a vector of
// typed graph mutations (Delta). On disk it is a framed file
// (util/framed_file.h, the container of serve::ScoringSnapshot too) with
// one checksummed record per batch, so ReadDeltaLog names the first torn
// or corrupt record via kDataLoss instead of crashing or silently
// dropping data.
//
// The log is the replay contract of the store: applying the same batches
// in order to the same base graph reproduces the same
// VersionedGraphStore state — and, because every downstream kernel
// (feature encoding, normalized adjacency, PPR, influence baking) is
// bitwise deterministic at every GALE_NUM_THREADS, byte-identical
// published snapshots (store_publish_test pins it at 1 and 4 threads).

#ifndef GALE_STORE_DELTA_LOG_H_
#define GALE_STORE_DELTA_LOG_H_

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "graph/attributed_graph.h"
#include "util/status.h"

namespace gale::store {

// Discriminates Delta. Values are the on-disk encoding — append only,
// never renumber.
enum class DeltaKind : uint32_t {
  kUpsertNode = 0,   // add a node (node == n) or replace its values (< n)
  kUpsertEdge = 1,   // add an undirected typed edge (no-op if present)
  kRemoveEdge = 2,   // remove an undirected typed edge
  kSetAttribute = 3,  // overwrite one attribute value of one node
  kSetLabel = 4,     // set a node's example label (core conventions)
};

// One typed mutation. A flat tagged struct (not a variant): only the
// fields their kind names are meaningful, the factories below set
// exactly those, and operator== compares exactly those.
struct Delta {
  DeltaKind kind = DeltaKind::kSetLabel;

  // kUpsertNode / kSetAttribute / kSetLabel target.
  size_t node = 0;
  // kUpsertNode: declared node type and one value per schema attribute.
  size_t node_type = 0;
  std::vector<graph::AttributeValue> values;
  // kUpsertEdge / kRemoveEdge endpoints.
  size_t u = 0;
  size_t v = 0;
  size_t edge_type = 0;
  // kSetAttribute: attribute index and new value.
  size_t attr = 0;
  graph::AttributeValue value;
  // kSetLabel: core::kLabelError / kLabelCorrect / core::kUnlabeled.
  int label = 0;

  static Delta UpsertNode(size_t node, size_t node_type,
                          std::vector<graph::AttributeValue> values);
  static Delta UpsertEdge(size_t u, size_t v, size_t edge_type);
  static Delta RemoveEdge(size_t u, size_t v, size_t edge_type);
  static Delta SetAttribute(size_t node, size_t attr,
                            graph::AttributeValue value);
  static Delta SetLabel(size_t node, int label);

  bool operator==(const Delta& other) const;
  bool operator!=(const Delta& other) const { return !(*this == other); }
};

// One atomically-applied unit: VersionedGraphStore::ApplyBatch validates
// and applies a whole batch or none of it, and each appended batch is one
// checksummed record in the log.
using DeltaBatch = std::vector<Delta>;

// Current on-disk format version.
inline constexpr uint32_t kDeltaLogFormatVersion = 1;

// Appends checksummed batch records to a delta-log file. Not thread-safe;
// one writer per log.
class DeltaLogWriter {
 public:
  // Replaces any file at `path` with a fresh header, atomically
  // (util::WriteFileAtomically's codes), then opens it for appending.
  static util::Result<DeltaLogWriter> Create(const std::string& path);

  // Reopens an existing log for appending. The header and every existing
  // record's frame (size and checksum) are validated first, by the same
  // reader as ReadDeltaLog: kNotFound missing file, kDataLoss short or
  // corrupt header (bad magic, nonzero flags) or the first torn or
  // corrupt record (named by index), kFailedPrecondition version skew.
  // Deltas inside a record are not decoded; ReadDeltaLog is the
  // full-validation path.
  static util::Result<DeltaLogWriter> OpenForAppend(const std::string& path);

  DeltaLogWriter(DeltaLogWriter&&) = default;
  DeltaLogWriter& operator=(DeltaLogWriter&&) = default;

  // Appends one framed record. Empty batches are rejected with
  // kInvalidArgument (an empty record would be an epoch with no cause).
  util::Status Append(const DeltaBatch& batch);

  size_t batches_written() const { return batches_written_; }

 private:
  DeltaLogWriter() = default;

  std::ofstream out_;
  size_t batches_written_ = 0;
};

// Reads and fully validates a delta log: every record's frame, checksum,
// and per-delta encoding. kNotFound (no file), kDataLoss (truncation,
// checksum mismatch, bad magic, nonzero flags, unknown delta/value kind,
// trailing garbage), kFailedPrecondition (format version other than this
// one).
util::Result<std::vector<DeltaBatch>> ReadDeltaLog(const std::string& path);

}  // namespace gale::store

#endif  // GALE_STORE_DELTA_LOG_H_
