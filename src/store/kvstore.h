#ifndef MWSIBE_STORE_KVSTORE_H_
#define MWSIBE_STORE_KVSTORE_H_

#include <array>
#include <atomic>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>

#include "src/obs/metrics.h"
#include "src/store/table.h"

namespace mws::store {

/// Log-structured key–value store: every mutation is appended to a
/// CRC-framed log which doubles as the write-ahead log; the full map is
/// kept in an in-memory ordered index. Open() loads the checkpoint (if
/// one exists) and replays the WAL tail, truncating a torn tail — reopen
/// cost is O(live keys + tail), not O(full history). Compact() (or the
/// automatic `compact_threshold_bytes` trigger) checkpoints the live
/// index and truncates the WAL.
///
/// Crash model: each Put/PutBatch/Delete flushes its log bytes to the
/// file (one flush per call) before returning, so an acknowledged write
/// survives a killed process. Nothing calls fsync: not power loss.
///
/// Record framing: u8 type (1=put, 2=delete) | u32 klen | u32 vlen |
/// key | value | u32 crc32(over all preceding fields). The checkpoint
/// sidecar `<path>.ckpt` uses the same framing behind a magic + footer
/// (src/store/snapshot.h).
///
/// Crash safety of compaction (the recovery invariant): the checkpoint
/// is written to `<path>.ckpt.tmp` and renamed into place only when its
/// terminal footer is on disk, and the checkpoint always covers every
/// byte of the WAL at swap time. Because puts and deletes are absolute,
/// replaying the whole old WAL over the new checkpoint is idempotent —
/// so a crash between the rename and the WAL truncation recovers to
/// exactly the same view, and a crash before the rename leaves the old
/// checkpoint + full WAL untouched. No crash point loses an
/// acknowledged write or resurrects a compacted-away tombstone.
///
/// Concurrency: the index is striped across kShardCount shards, each an
/// ordered map behind its own shared_mutex, so point reads (Get/Contains)
/// on different keys never contend and Scan takes only shared locks. Log
/// appends serialize behind a separate mutex; a writer holds its shard
/// lock across the append so, per key, log order matches index order
/// (the WAL invariant recovery relies on). Lock order is always shard
/// (ascending index) before log, so multi-shard readers (Scan, Compact)
/// cannot deadlock with writers. Compaction scans the live index one
/// shard at a time under shared locks — readers are never blocked; only
/// the final delta-fold + WAL swap briefly holds the log mutex (which
/// stalls writers mid-append, never readers).
class KvStore : public Table {
 public:
  struct Options {
    /// Empty path = purely in-memory store (no durability).
    std::string path;
    /// Optional instrumentation sink (must outlive the store). Exposes
    /// `store.wal_appends`, `store.wal_bytes`, `store.shard_contention`,
    /// `store.compactions`, and the `store.recovery.*` gauges set once
    /// at Open.
    obs::Registry* metrics = nullptr;
    /// When > 0 (and the store is persistent), a mutation that grows the
    /// WAL past this many bytes triggers an automatic checkpoint +
    /// WAL truncation once the mutation's locks are released. 0 keeps
    /// compaction manual (Compact() only).
    size_t compact_threshold_bytes = 0;
  };

  /// Opens (creating or recovering) a store.
  static util::Result<std::unique_ptr<KvStore>> Open(const Options& options);

  ~KvStore() override;

  KvStore(const KvStore&) = delete;
  KvStore& operator=(const KvStore&) = delete;

  util::Status Put(const std::string& key, const util::Bytes& value) override;
  /// Groups entries by shard and takes each shard's lock once for its
  /// whole group (the per-key WAL invariant only needs same-key order,
  /// which grouping preserves). One shard lock is held at a time, in
  /// ascending shard order, so the documented lock order is unchanged.
  util::Status PutBatch(const std::vector<std::pair<std::string, util::Bytes>>&
                            entries) override;
  util::Result<util::Bytes> Get(const std::string& key) const override;
  util::Status Delete(const std::string& key) override;
  bool Contains(const std::string& key) const override;
  std::vector<std::pair<std::string, util::Bytes>> Scan(
      const std::string& prefix) const override;
  std::vector<std::string> ScanKeys(const std::string& prefix) const override;
  size_t CountPrefix(const std::string& prefix) const override;
  size_t Size() const override;
  util::Status Flush() override;

  /// Checkpoints the live index and truncates the WAL (persistent
  /// stores) or drops dead in-memory accounting (in-memory stores).
  /// Returns the number of log records dropped. Safe to call
  /// concurrently with readers and writers; concurrent compactions
  /// serialize.
  util::Result<size_t> Compact();

  /// Records reachable from the persisted state: checkpoint records plus
  /// WAL-tail records appended since the last compaction (live + dead).
  /// Exposed for tests and the E11 bench.
  size_t log_records() const {
    return log_records_.load(std::memory_order_relaxed);
  }

  /// Bytes in the active WAL tail (what the next reopen must replay on
  /// top of the checkpoint).
  size_t wal_bytes() const { return wal_bytes_.load(std::memory_order_relaxed); }

  /// What recovery found at Open: how much state was restored from the
  /// checkpoint vs replayed from the WAL tail, and whether a torn tail
  /// (truncated write or CRC-failed suffix) was dropped. Surfaced so
  /// operators and the resilience tests can distinguish a clean open
  /// from a crash recovery.
  struct RecoveryStats {
    /// Total records restored (checkpoint + WAL tail).
    size_t records_replayed = 0;
    /// Fully-valid WAL-tail bytes replayed.
    size_t bytes_replayed = 0;
    /// Bytes discarded from the WAL tail (0 on a clean open).
    size_t bytes_truncated = 0;
    bool torn_tail = false;
    /// Records / bytes loaded from `<path>.ckpt` (0 when none exists).
    size_t checkpoint_records = 0;
    size_t checkpoint_bytes = 0;
  };
  const RecoveryStats& recovery_stats() const { return recovery_; }

  /// Sidecar path of the checkpoint for `path`.
  static std::string CheckpointPath(const std::string& path) {
    return path + ".ckpt";
  }

  /// Removes the WAL and every compaction sidecar (`.ckpt`, scratch
  /// files). Tests and benches that want a truly fresh store must use
  /// this instead of removing only `path` — a stale checkpoint would
  /// otherwise resurrect a previous run's state.
  static void RemoveFiles(const std::string& path);

  /// Number of index stripes (exposed for the striped-lock tests).
  static constexpr size_t kShardCount = 16;

 private:
  struct Shard {
    mutable std::shared_mutex mutex;
    std::map<std::string, util::Bytes> map;
  };

  explicit KvStore(Options options) : options_(std::move(options)) {}

  bool persistent() const { return !options_.path.empty(); }
  Shard& ShardFor(const std::string& key) const {
    return shards_[std::hash<std::string>{}(key) % kShardCount];
  }
  /// Pre: caller holds the key's shard lock exclusively (WAL ordering).
  util::Status AppendRecord(uint8_t type, const std::string& key,
                            const util::Bytes& value);
  /// Loads `<path>.ckpt` (if any) and replays `path`, truncating at the
  /// first torn/corrupt WAL record. A corrupt checkpoint fails the Open
  /// — it cannot be skipped, the WAL tail alone is not the full history.
  /// Runs single-threaded inside Open, before the store is published.
  util::Status Recover();
  /// The compaction engine: fuzzy live-index scan under shared shard
  /// locks into `<path>.ckpt.tmp`, delta fold + atomic rename + WAL
  /// truncation under the log mutex. Returns records dropped.
  util::Result<size_t> Checkpoint();
  /// Fires Checkpoint() when the WAL tail crossed the configured
  /// threshold. Called with no locks held; concurrent triggers collapse.
  void MaybeCompact();

  Options options_;
  mutable std::array<Shard, kShardCount> shards_;
  /// Guards log_ (the append stream). Never held while acquiring a shard
  /// lock.
  std::mutex log_mutex_;
  std::ofstream log_;
  std::atomic<size_t> log_records_{0};
  /// Logical size of the active WAL (bytes appended since the last
  /// truncation; the stream buffer may lag until a flush).
  std::atomic<size_t> wal_bytes_{0};
  /// Serializes compactions (explicit Compact vs threshold trigger).
  std::mutex compact_mutex_;
  std::atomic<bool> compact_running_{false};
  RecoveryStats recovery_;

  /// Resolved once at Open when Options::metrics is set; null otherwise.
  obs::Counter* wal_appends_counter_ = nullptr;
  obs::Counter* wal_bytes_counter_ = nullptr;
  obs::Counter* contention_counter_ = nullptr;
  obs::Counter* compactions_counter_ = nullptr;
  obs::Counter* compaction_failures_counter_ = nullptr;
};

}  // namespace mws::store

#endif  // MWSIBE_STORE_KVSTORE_H_
