// Crash-consistency property tests for the KvStore write-ahead log:
// whatever prefix of the log a crash leaves behind — truncated mid-record
// at ANY byte offset, or corrupted anywhere in the tail record — reopen
// must (a) replay every fully committed record before the damage,
// (b) drop the torn tail and report it in recovery_stats, and (c) leave
// a store that accepts new writes whose own reopen is clean.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/store/kvstore.h"
#include "src/store/snapshot.h"

namespace mws::store {
namespace {

using util::Bytes;
using util::BytesFromString;

std::string Key(size_t i) { return "key-" + std::to_string(i); }
Bytes Value(size_t i) {
  return BytesFromString("value-" + std::to_string(i) + "-payload");
}

class WalRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Key the path by pid as well: ctest runs each test in its own
    // process, and with deterministic allocation the `this` address (and
    // the default random_seed) coincide across concurrently running test
    // processes, which made parallel WAL tests clobber each other's file.
    path_ = (std::filesystem::temp_directory_path() /
             ("wal_recovery_" + std::to_string(::getpid()) + "_" +
              std::to_string(::testing::UnitTest::GetInstance()
                                 ->random_seed()) +
              "_" + std::to_string(reinterpret_cast<uintptr_t>(this))))
                .string();
    store::KvStore::RemoveFiles(path_);
  }
  void TearDown() override { store::KvStore::RemoveFiles(path_); }

  /// Appends `count` records, flushing after each one and recording the
  /// log size at every committed-record boundary. boundaries[k] = log
  /// size with exactly k records committed.
  std::vector<size_t> WriteRecords(size_t count) {
    std::vector<size_t> boundaries = {0};
    auto store = KvStore::Open({.path = path_}).value();
    for (size_t i = 0; i < count; ++i) {
      EXPECT_TRUE(store->Put(Key(i), Value(i)).ok());
      EXPECT_TRUE(store->Flush().ok());
      boundaries.push_back(
          static_cast<size_t>(std::filesystem::file_size(path_)));
    }
    return boundaries;
  }

  Bytes ReadLog() { return ReadFile(path_); }

  void WriteLog(const Bytes& content) { WriteFile(path_, content); }

  static Bytes ReadFile(const std::string& file) {
    std::ifstream in(file, std::ios::binary);
    return Bytes((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  }

  static void WriteFile(const std::string& file, const Bytes& content) {
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(content.data()),
              static_cast<std::streamsize>(content.size()));
  }

  std::string path_;
};

TEST_F(WalRecoveryTest, TruncationAtEveryByteOffsetKeepsCommittedPrefix) {
  constexpr size_t kRecords = 5;
  std::vector<size_t> boundaries = WriteRecords(kRecords);
  const Bytes full = ReadLog();
  ASSERT_EQ(full.size(), boundaries.back());

  for (size_t cut = 0; cut <= full.size(); ++cut) {
    WriteLog(Bytes(full.begin(), full.begin() + cut));

    // Number of records wholly inside the cut.
    size_t committed = 0;
    while (committed < kRecords && boundaries[committed + 1] <= cut) {
      ++committed;
    }

    auto store = KvStore::Open({.path = path_}).value();
    const auto& stats = store->recovery_stats();
    EXPECT_EQ(stats.records_replayed, committed) << "cut=" << cut;
    EXPECT_EQ(stats.bytes_replayed, boundaries[committed]) << "cut=" << cut;
    EXPECT_EQ(stats.bytes_truncated, cut - boundaries[committed])
        << "cut=" << cut;
    EXPECT_EQ(stats.torn_tail, cut != boundaries[committed]) << "cut=" << cut;

    for (size_t i = 0; i < kRecords; ++i) {
      if (i < committed) {
        auto value = store->Get(Key(i));
        ASSERT_TRUE(value.ok()) << "cut=" << cut << " record=" << i;
        EXPECT_EQ(value.value(), Value(i));
      } else {
        EXPECT_FALSE(store->Get(Key(i)).ok())
            << "cut=" << cut << " record=" << i;
      }
    }

    // The recovered store accepts new writes, and a clean reopen sees
    // the committed prefix plus the new write.
    EXPECT_TRUE(store->Put("after-crash", Value(99)).ok()) << "cut=" << cut;
    EXPECT_TRUE(store->Flush().ok());
    store.reset();
    auto reopened = KvStore::Open({.path = path_}).value();
    EXPECT_FALSE(reopened->recovery_stats().torn_tail) << "cut=" << cut;
    EXPECT_EQ(reopened->Size(), committed + 1) << "cut=" << cut;
    EXPECT_TRUE(reopened->Get("after-crash").ok()) << "cut=" << cut;
  }
}

TEST_F(WalRecoveryTest, CorruptionAnywhereInTailRecordDropsOnlyTheTail) {
  constexpr size_t kRecords = 4;
  std::vector<size_t> boundaries = WriteRecords(kRecords);
  const Bytes full = ReadLog();
  const size_t tail_start = boundaries[kRecords - 1];

  for (size_t offset = tail_start; offset < full.size(); ++offset) {
    Bytes mutated = full;
    mutated[offset] ^= 0xff;
    WriteLog(mutated);

    auto store = KvStore::Open({.path = path_}).value();
    const auto& stats = store->recovery_stats();
    EXPECT_TRUE(stats.torn_tail) << "offset=" << offset;
    EXPECT_EQ(stats.records_replayed, kRecords - 1) << "offset=" << offset;
    for (size_t i = 0; i + 1 < kRecords; ++i) {
      EXPECT_TRUE(store->Get(Key(i)).ok()) << "offset=" << offset;
    }
    EXPECT_FALSE(store->Get(Key(kRecords - 1)).ok()) << "offset=" << offset;
  }
}

TEST_F(WalRecoveryTest, DeletesAndOverwritesReplayInOrder) {
  {
    auto store = KvStore::Open({.path = path_}).value();
    ASSERT_TRUE(store->Put("a", BytesFromString("1")).ok());
    ASSERT_TRUE(store->Put("b", BytesFromString("2")).ok());
    ASSERT_TRUE(store->Put("a", BytesFromString("3")).ok());
    ASSERT_TRUE(store->Delete("b").ok());
    ASSERT_TRUE(store->Flush().ok());
  }
  auto store = KvStore::Open({.path = path_}).value();
  EXPECT_EQ(store->recovery_stats().records_replayed, 4u);
  EXPECT_FALSE(store->recovery_stats().torn_tail);
  EXPECT_EQ(store->recovery_stats().bytes_truncated, 0u);
  EXPECT_EQ(store->Get("a").value(), BytesFromString("3"));
  EXPECT_FALSE(store->Contains("b"));
}

// A killed process loses whatever its stream buffers still hold. A
// second Open of the path while the first store is alive (and has never
// been flushed or closed) reads exactly what such a restart would: every
// acknowledged Put, PutBatch and Delete must already be there.
TEST_F(WalRecoveryTest, AckedWritesSurviveAKilledProcess) {
  constexpr size_t kRecords = 5;
  auto live = KvStore::Open({.path = path_}).value();
  for (size_t i = 0; i < kRecords; ++i) {
    ASSERT_TRUE(live->Put(Key(i), Value(i)).ok());
  }
  {
    auto restarted = KvStore::Open({.path = path_}).value();
    EXPECT_FALSE(restarted->recovery_stats().torn_tail);
    ASSERT_EQ(restarted->Size(), kRecords);
    for (size_t i = 0; i < kRecords; ++i) {
      EXPECT_EQ(restarted->Get(Key(i)).value(), Value(i)) << "record=" << i;
    }
  }
  ASSERT_TRUE(live->PutBatch({{Key(kRecords), Value(kRecords)},
                              {Key(kRecords + 1), Value(kRecords + 1)}})
                  .ok());
  ASSERT_TRUE(live->Delete(Key(0)).ok());
  auto restarted = KvStore::Open({.path = path_}).value();
  EXPECT_EQ(restarted->Size(), kRecords + 1);
  EXPECT_FALSE(restarted->Contains(Key(0)));
  EXPECT_EQ(restarted->Get(Key(kRecords + 1)).value(), Value(kRecords + 1));
}

// --- Compaction crash states ---
//
// The compaction protocol has exactly three externally visible states:
//   (a) crash while writing `.ckpt.tmp`  — scratch file, any content;
//   (b) crash after the rename, before the WAL truncation — new
//       checkpoint + the FULL old WAL;
//   (c) steady state — checkpoint + post-compaction tail.
// (a) must be invisible, (b) must replay idempotently, and in (c) tail
// damage must cost only the tail, never the checkpoint base.

TEST_F(WalRecoveryTest, CompactionScratchCrashAtEveryPrefixIsInvisible) {
  constexpr size_t kBase = 5, kTail = 3;
  {
    auto store = KvStore::Open({.path = path_}).value();
    for (size_t i = 0; i < kBase; ++i) {
      ASSERT_TRUE(store->Put(Key(i), Value(i)).ok());
    }
    ASSERT_TRUE(store->Compact().ok());
    for (size_t i = kBase; i < kBase + kTail; ++i) {
      ASSERT_TRUE(store->Put(Key(i), Value(i)).ok());
    }
    ASSERT_TRUE(store->Flush().ok());
  }
  const std::string tmp = KvStore::CheckpointPath(path_) + ".tmp";
  // A crash mid-checkpoint leaves `.ckpt.tmp` holding any prefix of the
  // image the compactor was writing — emulate with every prefix of the
  // committed checkpoint (same writer, same framing), plus raw garbage.
  const Bytes image = ReadFile(KvStore::CheckpointPath(path_));
  ASSERT_FALSE(image.empty());
  std::vector<Bytes> scratch_states;
  for (size_t cut = 0; cut <= image.size(); cut += 7) {
    scratch_states.emplace_back(image.begin(), image.begin() + cut);
  }
  scratch_states.push_back(BytesFromString("not a checkpoint at all"));
  for (const Bytes& scratch : scratch_states) {
    WriteFile(tmp, scratch);
    auto store = KvStore::Open({.path = path_}).value();
    const auto& stats = store->recovery_stats();
    EXPECT_EQ(stats.checkpoint_records, kBase);
    EXPECT_EQ(stats.records_replayed, kBase + kTail);
    EXPECT_FALSE(stats.torn_tail);
    for (size_t i = 0; i < kBase + kTail; ++i) {
      EXPECT_EQ(store->Get(Key(i)).value(), Value(i));
    }
    // Open disposed of the scratch file; the next compaction starts
    // clean.
    EXPECT_FALSE(std::filesystem::exists(tmp));
  }
}

TEST_F(WalRecoveryTest, CheckpointPlusFullOldWalReplaysIdempotently) {
  // Crash between compaction's rename and its WAL truncation: recovery
  // sees the new checkpoint AND every record the checkpoint already
  // folded in. Replaying them on top must be a no-op — including the
  // delete, which must not resurrect via the checkpoint or the replay.
  {
    auto store = KvStore::Open({.path = path_}).value();
    ASSERT_TRUE(store->Put("a", BytesFromString("1")).ok());
    ASSERT_TRUE(store->Put("b", BytesFromString("2")).ok());
    ASSERT_TRUE(store->Put("a", BytesFromString("3")).ok());
    ASSERT_TRUE(store->Delete("b").ok());
    ASSERT_TRUE(store->Flush().ok());
    const Bytes old_wal = ReadLog();
    ASSERT_TRUE(store->Compact().ok());  // ckpt: {a=3}; WAL truncated
    store.reset();
    WriteLog(old_wal);  // un-truncate: the crash kept the full old WAL
  }
  auto store = KvStore::Open({.path = path_}).value();
  const auto& stats = store->recovery_stats();
  EXPECT_EQ(stats.checkpoint_records, 1u);       // only `a` is live
  EXPECT_EQ(stats.records_replayed, 1u + 4u);    // ckpt + full old WAL
  EXPECT_FALSE(stats.torn_tail);
  EXPECT_EQ(store->Size(), 1u);
  EXPECT_EQ(store->Get("a").value(), BytesFromString("3"));
  EXPECT_FALSE(store->Contains("b"));
  // The doubly-recovered store keeps working and reopens clean.
  ASSERT_TRUE(store->Put("c", BytesFromString("4")).ok());
  ASSERT_TRUE(store->Flush().ok());
  store.reset();
  auto reopened = KvStore::Open({.path = path_}).value();
  EXPECT_EQ(reopened->Size(), 2u);
  EXPECT_FALSE(reopened->Contains("b"));
}

TEST_F(WalRecoveryTest, TailTruncationAfterCompactionSparesTheCheckpoint) {
  constexpr size_t kBase = 4, kTail = 3;
  std::vector<size_t> boundaries = {0};
  {
    auto store = KvStore::Open({.path = path_}).value();
    for (size_t i = 0; i < kBase; ++i) {
      ASSERT_TRUE(store->Put(Key(i), Value(i)).ok());
    }
    ASSERT_TRUE(store->Compact().ok());
    for (size_t i = kBase; i < kBase + kTail; ++i) {
      ASSERT_TRUE(store->Put(Key(kBase + (i - kBase)), Value(i)).ok());
      ASSERT_TRUE(store->Flush().ok());
      boundaries.push_back(
          static_cast<size_t>(std::filesystem::file_size(path_)));
    }
  }
  const Bytes tail = ReadLog();
  ASSERT_EQ(tail.size(), boundaries.back());
  for (size_t cut = 0; cut <= tail.size(); ++cut) {
    WriteLog(Bytes(tail.begin(), tail.begin() + cut));
    size_t committed = 0;
    while (committed < kTail && boundaries[committed + 1] <= cut) {
      ++committed;
    }
    auto store = KvStore::Open({.path = path_}).value();
    const auto& stats = store->recovery_stats();
    EXPECT_EQ(stats.checkpoint_records, kBase) << "cut=" << cut;
    EXPECT_EQ(stats.records_replayed, kBase + committed) << "cut=" << cut;
    // The checkpoint base is untouchable by tail damage.
    for (size_t i = 0; i < kBase; ++i) {
      EXPECT_EQ(store->Get(Key(i)).value(), Value(i)) << "cut=" << cut;
    }
    for (size_t i = 0; i < kTail; ++i) {
      EXPECT_EQ(store->Contains(Key(kBase + i)), i < committed)
          << "cut=" << cut;
    }
  }
}

// --- Checkpoint decoder fuzz ---
//
// A checkpoint is all-or-nothing: unlike the WAL (whose tail may be
// legitimately torn by a crash), ANY defect in a committed checkpoint is
// silent data loss waiting to happen, so the decoder must reject the
// whole file and Open must refuse to come up half-recovered.

TEST_F(WalRecoveryTest, CheckpointBitflipAnywhereFailsTheOpenLoudly) {
  constexpr size_t kRecords = 5;
  {
    auto store = KvStore::Open({.path = path_}).value();
    for (size_t i = 0; i < kRecords; ++i) {
      ASSERT_TRUE(store->Put(Key(i), Value(i)).ok());
    }
    ASSERT_TRUE(store->Delete(Key(0)).ok());
    ASSERT_TRUE(store->Compact().ok());
  }
  const std::string ckpt = KvStore::CheckpointPath(path_);
  const Bytes image = ReadFile(ckpt);
  ASSERT_FALSE(image.empty());

  // Deterministic single-bit flips: every byte, one bit chosen by a
  // seeded LCG so repeated runs exercise the same corpus.
  uint64_t lcg = 0x853c49e6748fea9bull;
  for (size_t offset = 0; offset < image.size(); ++offset) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    Bytes mutated = image;
    mutated[offset] ^= static_cast<uint8_t>(1u << (lcg >> 61));
    // The decoder itself rejects with kCorruption...
    auto decoded = DecodeCheckpoint(mutated);
    ASSERT_FALSE(decoded.ok()) << "offset=" << offset;
    EXPECT_EQ(decoded.status().code(), util::StatusCode::kCorruption)
        << "offset=" << offset;
    // ...and Open refuses to start on the damaged file.
    WriteFile(ckpt, mutated);
    EXPECT_FALSE(KvStore::Open({.path = path_}).ok()) << "offset=" << offset;
  }

  // Truncation at every byte boundary is equally fatal — the footer is
  // the commit marker, and a footer-less image never parses.
  for (size_t cut = 0; cut < image.size(); ++cut) {
    Bytes torn(image.begin(), image.begin() + cut);
    auto decoded = DecodeCheckpoint(torn);
    ASSERT_FALSE(decoded.ok()) << "cut=" << cut;
    WriteFile(ckpt, torn);
    EXPECT_FALSE(KvStore::Open({.path = path_}).ok()) << "cut=" << cut;
  }
  // Bytes after the footer are splice damage, not slack: rejected.
  Bytes padded = image;
  padded.push_back(0x00);
  EXPECT_FALSE(DecodeCheckpoint(padded).ok());

  // Restoring the pristine image restores service: the checks above
  // failed because of the corruption, not a broken fixture.
  WriteFile(ckpt, image);
  auto store = KvStore::Open({.path = path_}).value();
  EXPECT_EQ(store->Size(), kRecords - 1);
  EXPECT_FALSE(store->Contains(Key(0)));
  EXPECT_EQ(store->Get(Key(1)).value(), Value(1));
}

}  // namespace
}  // namespace mws::store
