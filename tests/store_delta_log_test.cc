// Delta log: batch round-trips, append/reopen, and coded rejection of
// every corruption class (truncation, bit flips, bad magic, version
// skew, malformed records).

#include "store/delta_log.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "core/sgan.h"
#include "graph/attributed_graph.h"
#include "test_files.h"
#include "util/status.h"
#include "util/string_util.h"

namespace gale::store {
namespace {

using graph::AttributeValue;
using testing::ReadFileBytes;
using testing::TempPath;
using testing::WriteFileBytes;

// One batch exercising every delta kind and every value kind.
DeltaBatch MakeKitchenSinkBatch() {
  return {
      Delta::UpsertNode(12, 0,
                        {AttributeValue::Text("Avengers"),
                         AttributeValue::Number(2012.0),
                         AttributeValue::Null()}),
      Delta::UpsertEdge(3, 7, 1),
      Delta::RemoveEdge(4, 9, 0),
      Delta::SetAttribute(5, 2, AttributeValue::Text("remaster")),
      Delta::SetAttribute(6, 0, AttributeValue::Number(-3.5)),
      Delta::SetLabel(8, core::kLabelError),
      Delta::SetLabel(9, core::kUnlabeled),
  };
}

// Writes `batches` to a fresh log at `path`.
void WriteLog(const std::string& path,
              const std::vector<DeltaBatch>& batches) {
  auto writer = DeltaLogWriter::Create(path);
  ASSERT_TRUE(writer.ok()) << writer.status();
  for (const DeltaBatch& batch : batches) {
    ASSERT_TRUE(writer.value().Append(batch).ok());
  }
}

TEST(DeltaLogTest, RoundTripPreservesEveryDeltaKind) {
  const std::string path = TempPath("log_roundtrip.bin");
  const std::vector<DeltaBatch> batches{
      MakeKitchenSinkBatch(),
      {Delta::SetLabel(0, core::kLabelCorrect)},
  };
  WriteLog(path, batches);

  auto back = ReadDeltaLog(path);
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back.value().size(), batches.size());
  for (size_t b = 0; b < batches.size(); ++b) {
    ASSERT_EQ(back.value()[b].size(), batches[b].size()) << "batch " << b;
    for (size_t i = 0; i < batches[b].size(); ++i) {
      EXPECT_EQ(back.value()[b][i], batches[b][i])
          << "batch " << b << " delta " << i;
    }
  }
}

// The written bytes of a two-batch log, pinned by size and FNV-1a. A
// change to the container or the delta encoding moves them, and then
// needs a kDeltaLogFormatVersion bump, not a new golden.
TEST(DeltaLogTest, WrittenBytesGolden) {
  const std::string path = TempPath("log_golden.bin");
  WriteLog(path, {MakeKitchenSinkBatch(),
                  {Delta::SetLabel(0, core::kLabelCorrect)}});
  const std::string bytes = ReadFileBytes(path);
  EXPECT_EQ(bytes.size(), 304u);
  EXPECT_EQ(util::Fnv1aHash(bytes), 0xb29a5bdbd6210a68ULL);
}

TEST(DeltaLogTest, AppendAfterReopenExtendsTheStream) {
  const std::string path = TempPath("log_reopen.bin");
  WriteLog(path, {MakeKitchenSinkBatch()});

  auto reopened = DeltaLogWriter::OpenForAppend(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  const DeltaBatch extra{Delta::UpsertEdge(1, 2, 0)};
  ASSERT_TRUE(reopened.value().Append(extra).ok());
  EXPECT_EQ(reopened.value().batches_written(), 1u);

  auto back = ReadDeltaLog(path);
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back.value().size(), 2u);
  EXPECT_EQ(back.value()[1], extra);
}

TEST(DeltaLogTest, AppendRejectsEmptyBatch) {
  const std::string path = TempPath("log_empty_batch.bin");
  auto writer = DeltaLogWriter::Create(path);
  ASSERT_TRUE(writer.ok()) << writer.status();
  const util::Status empty = writer.value().Append({});
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.code(), util::StatusCode::kInvalidArgument);
}

TEST(DeltaLogTest, EmptyLogReadsAsZeroBatches) {
  const std::string path = TempPath("log_header_only.bin");
  WriteLog(path, {});
  auto back = ReadDeltaLog(path);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE(back.value().empty());
}

TEST(DeltaLogTest, ReadRejectsMissingFile) {
  auto missing = ReadDeltaLog(TempPath("log_does_not_exist.bin"));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), util::StatusCode::kNotFound);

  auto reopen = DeltaLogWriter::OpenForAppend(TempPath("log_nope.bin"));
  ASSERT_FALSE(reopen.ok());
  EXPECT_EQ(reopen.status().code(), util::StatusCode::kNotFound);
}

TEST(DeltaLogTest, ReadRejectsTruncatedFile) {
  const std::string path = TempPath("log_trunc.bin");
  WriteLog(path, {MakeKitchenSinkBatch()});
  const std::string original = ReadFileBytes(path);

  // Mid-payload, mid-record-header, and header-only-plus-stub cuts.
  for (size_t keep : {original.size() - 3, size_t{16 + 7}, size_t{5}}) {
    std::string bytes = original;
    bytes.resize(keep);
    WriteFileBytes(path, bytes);
    auto truncated = ReadDeltaLog(path);
    ASSERT_FALSE(truncated.ok()) << "cut at " << keep;
    EXPECT_EQ(truncated.status().code(), util::StatusCode::kDataLoss)
        << "cut at " << keep;
  }
}

TEST(DeltaLogTest, OpenForAppendRefusesTornTail) {
  const std::string path = TempPath("log_torn_append.bin");
  WriteLog(path, {MakeKitchenSinkBatch()});
  std::string bytes = ReadFileBytes(path);
  bytes.resize(bytes.size() - 3);
  WriteFileBytes(path, bytes);

  // Appending after the torn record would acknowledge a batch that
  // ReadDeltaLog can never return; the reopen must refuse instead.
  auto reopen = DeltaLogWriter::OpenForAppend(path);
  ASSERT_FALSE(reopen.ok());
  EXPECT_EQ(reopen.status().code(), util::StatusCode::kDataLoss);
  EXPECT_NE(reopen.status().message().find("record 0"), std::string::npos)
      << reopen.status();
  EXPECT_EQ(ReadFileBytes(path), bytes) << "a refused reopen wrote bytes";

  // A checksum mismatch in an intact-length record is refused the same way.
  WriteLog(path, {{Delta::SetLabel(1, core::kLabelError)},
                  MakeKitchenSinkBatch()});
  bytes = ReadFileBytes(path);
  bytes[bytes.size() - 1] = static_cast<char>(bytes[bytes.size() - 1] ^ 0x04);
  WriteFileBytes(path, bytes);
  reopen = DeltaLogWriter::OpenForAppend(path);
  ASSERT_FALSE(reopen.ok());
  EXPECT_EQ(reopen.status().code(), util::StatusCode::kDataLoss);
  EXPECT_NE(reopen.status().message().find("record 1"), std::string::npos)
      << reopen.status();
}

TEST(DeltaLogTest, ReadRejectsBitFlips) {
  const std::string path = TempPath("log_flip.bin");
  WriteLog(path, {MakeKitchenSinkBatch()});
  const std::string original = ReadFileBytes(path);

  // Payload flips trip the checksum; a magic flip is caught up front.
  for (size_t pos : {size_t{40}, original.size() / 2, original.size() - 1}) {
    std::string bytes = original;
    bytes[pos] = static_cast<char>(bytes[pos] ^ 0x04);
    WriteFileBytes(path, bytes);
    auto corrupt = ReadDeltaLog(path);
    ASSERT_FALSE(corrupt.ok()) << "flip at " << pos;
    EXPECT_EQ(corrupt.status().code(), util::StatusCode::kDataLoss)
        << "flip at " << pos;
  }

  std::string bytes = original;
  bytes[0] = 'X';
  WriteFileBytes(path, bytes);
  auto bad_magic = ReadDeltaLog(path);
  ASSERT_FALSE(bad_magic.ok());
  EXPECT_EQ(bad_magic.status().code(), util::StatusCode::kDataLoss);
}

TEST(DeltaLogTest, ReadRejectsFutureFormatVersion) {
  const std::string path = TempPath("log_version.bin");
  WriteLog(path, {MakeKitchenSinkBatch()});
  std::string bytes = ReadFileBytes(path);
  uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 8, sizeof version);
  ASSERT_EQ(version, kDeltaLogFormatVersion);
  version = kDeltaLogFormatVersion + 1;
  std::memcpy(bytes.data() + 8, &version, sizeof version);
  WriteFileBytes(path, bytes);

  auto future = ReadDeltaLog(path);
  ASSERT_FALSE(future.ok());
  EXPECT_EQ(future.status().code(), util::StatusCode::kFailedPrecondition);

  // OpenForAppend must refuse the same skew instead of mixing formats.
  auto reopen = DeltaLogWriter::OpenForAppend(path);
  ASSERT_FALSE(reopen.ok());
  EXPECT_EQ(reopen.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST(DeltaLogTest, ReadRejectsUnknownDeltaKind) {
  const std::string path = TempPath("log_bad_kind.bin");
  // A single SetLabel delta: its u32 kind tag sits right after the
  // record header's u64 delta count.
  WriteLog(path, {{Delta::SetLabel(1, core::kLabelError)}});
  std::string bytes = ReadFileBytes(path);
  const size_t kind_offset = 16 + 16 + 8;  // file hdr + record hdr + count
  uint32_t kind = 0;
  std::memcpy(&kind, bytes.data() + kind_offset, sizeof kind);
  ASSERT_EQ(kind, static_cast<uint32_t>(DeltaKind::kSetLabel));
  kind = 99;
  std::memcpy(bytes.data() + kind_offset, &kind, sizeof kind);
  // Re-stamp the record checksum so only the kind is wrong, proving the
  // decoder (not the checksum) rejects it.
  const size_t payload_offset = 16 + 16;
  uint64_t checksum = 0;
  {
    std::string_view payload(bytes.data() + payload_offset,
                             bytes.size() - payload_offset);
    checksum = util::Fnv1aHash(payload);
  }
  std::memcpy(bytes.data() + 16 + 8, &checksum, sizeof checksum);
  WriteFileBytes(path, bytes);

  auto bad_kind = ReadDeltaLog(path);
  ASSERT_FALSE(bad_kind.ok());
  EXPECT_EQ(bad_kind.status().code(), util::StatusCode::kDataLoss);
}

TEST(DeltaLogTest, ReadRejectsTrailingGarbage) {
  const std::string path = TempPath("log_trailing.bin");
  WriteLog(path, {{Delta::SetLabel(1, core::kLabelError)}});
  std::string bytes = ReadFileBytes(path);
  bytes += "garbage";
  WriteFileBytes(path, bytes);
  auto trailing = ReadDeltaLog(path);
  ASSERT_FALSE(trailing.ok());
  EXPECT_EQ(trailing.status().code(), util::StatusCode::kDataLoss);
}

// A log cut at any length: at the end of the file header or of a record
// it reads as exactly the batches before the cut; anywhere else it is
// kDataLoss. OpenForAppend judges every cut the same way.
TEST(DeltaLogTest, ReadJudgesEveryTruncation) {
  const std::string path = TempPath("log_every_cut.bin");
  const std::vector<DeltaBatch> batches{
      MakeKitchenSinkBatch(), {Delta::SetLabel(0, core::kLabelCorrect)}};
  // File sizes after the header and after each record.
  std::vector<size_t> boundaries;
  {
    auto writer = DeltaLogWriter::Create(path);
    ASSERT_TRUE(writer.ok()) << writer.status();
    boundaries.push_back(ReadFileBytes(path).size());
    for (const DeltaBatch& batch : batches) {
      ASSERT_TRUE(writer.value().Append(batch).ok());
      boundaries.push_back(ReadFileBytes(path).size());
    }
  }
  const std::string original = ReadFileBytes(path);
  ASSERT_EQ(boundaries.back(), original.size());

  for (size_t keep = 0; keep < original.size(); ++keep) {
    WriteFileBytes(path, original.substr(0, keep));
    auto cut = ReadDeltaLog(path);
    const size_t whole = static_cast<size_t>(
        std::find(boundaries.begin(), boundaries.end(), keep) -
        boundaries.begin());
    if (whole == boundaries.size()) {
      ASSERT_FALSE(cut.ok()) << "cut at " << keep;
      ASSERT_EQ(cut.status().code(), util::StatusCode::kDataLoss)
          << "cut at " << keep << ": " << cut.status();
    } else {
      ASSERT_TRUE(cut.ok()) << "cut at " << keep << ": " << cut.status();
      EXPECT_EQ(cut.value(), std::vector<DeltaBatch>(batches.begin(),
                                                     batches.begin() + whole))
          << "cut at " << keep;
    }
    EXPECT_EQ(DeltaLogWriter::OpenForAppend(path).status().code(),
              cut.status().code())
        << "cut at " << keep;
  }
}

// One flipped bit anywhere is caught: in the version field (bytes 8-11)
// as version skew, everywhere else as kDataLoss — the magic and the
// reserved flags by the header check, the frames and the payloads by the
// checksums (an FNV-1a step is a bijection on its state, so any one-byte
// change to a payload changes its checksum). OpenForAppend agrees.
TEST(DeltaLogTest, ReadRejectsEveryByteFlip) {
  const std::string path = TempPath("log_every_flip.bin");
  WriteLog(path, {MakeKitchenSinkBatch(),
                  {Delta::SetLabel(0, core::kLabelCorrect)}});
  const std::string original = ReadFileBytes(path);
  for (size_t pos = 0; pos < original.size(); ++pos) {
    std::string bytes = original;
    bytes[pos] = static_cast<char>(bytes[pos] ^ (1 << (pos % 8)));
    WriteFileBytes(path, bytes);
    auto flipped = ReadDeltaLog(path);
    const util::StatusCode want = pos >= 8 && pos < 12
                                      ? util::StatusCode::kFailedPrecondition
                                      : util::StatusCode::kDataLoss;
    ASSERT_FALSE(flipped.ok()) << "flip at " << pos;
    ASSERT_EQ(flipped.status().code(), want)
        << "flip at " << pos << ": " << flipped.status();
    EXPECT_EQ(DeltaLogWriter::OpenForAppend(path).status().code(), want)
        << "flip at " << pos;
  }
}

// Create writes the header the way ScoringSnapshot::Save writes a file, so
// a Create that fails leaves an existing log intact.
TEST(DeltaLogTest, FailedCreateKeepsThePreviousLog) {
  const std::string path = TempPath("log_atomic.bin");
  WriteLog(path, {MakeKitchenSinkBatch()});
  const std::string before = ReadFileBytes(path);
  ASSERT_TRUE(std::filesystem::create_directory(path + ".tmp"));
  auto blocked = DeltaLogWriter::Create(path);
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.status().code(), util::StatusCode::kInternal);
  EXPECT_EQ(ReadFileBytes(path), before);
}

}  // namespace
}  // namespace gale::store
