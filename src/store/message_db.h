#ifndef MWSIBE_STORE_MESSAGE_DB_H_
#define MWSIBE_STORE_MESSAGE_DB_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/store/table.h"

namespace mws::store {

/// One deposited message as the MWS stores it (paper §V.D: "rP || C ||
/// (A || Nonce) is stored in the Message Database"). The MWS sees the
/// attribute and nonce in the clear — by design it can route but not read.
struct StoredMessage {
  uint64_t id = 0;           // assigned by Append
  util::Bytes u;             // rP, serialized curve point
  util::Bytes ciphertext;    // C, the DEM ciphertext
  std::string attribute;     // A
  util::Bytes nonce;         // per-message nonce
  std::string device_id;     // ID_SD
  int64_t timestamp_micros = 0;  // T

  util::Bytes Encode() const;
  static util::Result<StoredMessage> Decode(const util::Bytes& data);
};

/// The Message Database (MD component of the architecture, Fig. 3).
/// Maintains a secondary index attribute -> message ids so retrieval by
/// attribute does not scan the full store.
///
/// Concurrency: safe for concurrent use from many threads on top of a
/// thread-safe Table. Ids come from an in-memory atomic counter seeded
/// from the persisted "m.next" record at construction, so concurrent
/// Appends never hand out duplicate ids and contend only on the table's
/// shard/log locks. The counter record is still written (monotonically,
/// under its own small mutex) so a reopened store resumes numbering.
class MessageDb {
 public:
  /// Borrows `table`; the table must outlive the MessageDb. Reads the
  /// persisted id counter to seed in-memory id assignment. `metrics`
  /// (optional, must outlive the MessageDb) exposes `md.appends` and
  /// `md.dedup_hits`.
  explicit MessageDb(Table* table, obs::Registry* metrics = nullptr);

  /// Stores `message` (its id field is ignored) and returns the assigned id.
  util::Result<uint64_t> Append(const StoredMessage& message);

  struct AppendOutcome {
    uint64_t id = 0;
    /// The message was already fully stored (a retransmit); `id` is the
    /// original assignment.
    bool deduplicated = false;
  };

  /// At-least-once safe append: dedupes retransmissions by
  /// (device_id, nonce) so a client that retries after a lost ack
  /// cannot double-store. A dedup marker "n/<ID_SD>/<nonce>" -> id is
  /// reserved *before* the message records are written; a retry of a
  /// torn append therefore resumes the reserved id and rewrites the
  /// same keys (idempotent) instead of allocating a fresh id — no
  /// duplicate ever becomes visible through the indexes. Assumes one
  /// client retries a given (device, nonce) serially, which the
  /// store-and-forward device model guarantees.
  util::Result<AppendOutcome> AppendDeduped(const StoredMessage& message);

  /// Batched AppendDeduped: same per-message outcomes as calling
  /// AppendDeduped sequentially (including intra-batch retransmits, which
  /// dedup against the first occurrence), but the table work is grouped
  /// into three PutBatch calls — all fresh dedup markers, then every
  /// message record, then every index key — so a KvStore backend takes
  /// each shard lock once per batch instead of once per key. Marker-first
  /// ordering holds batch-wide, so a crash between the phases is
  /// recovered exactly like a torn single-shot append: the retry resumes
  /// the reserved ids. Record-before-index ordering holds batch-wide
  /// too, so a concurrent reader never lists an id whose record it
  /// cannot Get, whatever order the table applies one batch in. A
  /// storage failure fails the whole call; retrying the batch is safe
  /// (at-least-once, absorbed by the markers).
  util::Result<std::vector<AppendOutcome>> AppendDedupedBatch(
      const std::vector<StoredMessage>& messages);

  /// Retransmissions absorbed by AppendDeduped.
  uint64_t dedup_hits() const {
    return dedup_hits_.load(std::memory_order_relaxed);
  }

  util::Result<StoredMessage> Get(uint64_t id) const;

  /// All messages whose attribute equals `attribute`, in id order.
  util::Result<std::vector<StoredMessage>> FindByAttribute(
      const std::string& attribute) const;

  /// Union over several attributes, deduplicated, in id order.
  util::Result<std::vector<StoredMessage>> FindByAttributes(
      const std::vector<std::string>& attributes) const;

  /// Messages with id > `after_id` for one attribute (incremental fetch).
  util::Result<std::vector<StoredMessage>> FindByAttributeAfter(
      const std::string& attribute, uint64_t after_id) const;

  /// Ids (only) with id > after_id for one attribute, in id order. A
  /// key-only index walk: no message value is materialized, so chunked
  /// retrieval can rank a 10k-message backlog before fetching anything.
  std::vector<uint64_t> IdsByAttributeAfter(const std::string& attribute,
                                            uint64_t after_id) const;

  /// Ids (only) for one attribute with timestamp in [from, to), in
  /// timestamp order — billing periods, the paper's motivating query.
  /// Served by a timestamp secondary index, not a scan. Pre: timestamps
  /// are non-negative.
  std::vector<uint64_t> IdsByAttributeInTimeRange(const std::string& attribute,
                                                  int64_t from_micros,
                                                  int64_t to_micros) const;

  /// Number of stored messages. Counts index entries only — no message
  /// value (ciphertext) is materialized.
  size_t Count() const;

  /// Highest id assigned so far (0 when empty). Monotone; ids may be
  /// sparse after failed appends or pruning.
  uint64_t last_assigned_id() const {
    return next_id_.load(std::memory_order_relaxed) - 1;
  }

  /// Retention: deletes every stored message with id <= `max_id` —
  /// message record, both secondary indexes, and its dedup marker.
  /// Returns the number of messages removed. This is what keeps a
  /// sustained warehouse's live set (and thus compaction checkpoints
  /// and reopen time) bounded while the WAL records full history until
  /// the next compaction. Deleting the dedup marker re-opens the
  /// at-least-once replay window for that (device, nonce), so the
  /// retention horizon must comfortably exceed the longest client
  /// retry/outbox-replay horizon. Safe concurrently with appends and
  /// reads; a concurrent retrieval may observe a partially-pruned
  /// message's indexes (Get then reports NotFound, as for any
  /// already-pruned id).
  util::Result<size_t> PruneThrough(uint64_t max_id);

  /// The distinct attribute strings present in the warehouse (derived
  /// from the secondary index; used by policy-expression matching).
  std::vector<std::string> DistinctAttributes() const;

 private:
  /// Writes the message record and both secondary indexes for `stored`
  /// (whose id is already assigned), then advances the persisted
  /// counter. Idempotent for a fixed id.
  util::Status WriteRecords(const StoredMessage& stored);
  /// Bumps the persisted "m.next" counter to at least `next`.
  util::Status PersistCounter(uint64_t next);

  Table* table_;
  /// Next id to assign; seeded from the persisted counter at open.
  std::atomic<uint64_t> next_id_{1};
  /// Guards persisted_next_ so the on-disk counter only moves forward
  /// even when appends complete out of id order.
  std::mutex counter_mutex_;
  uint64_t persisted_next_ = 0;
  std::atomic<uint64_t> dedup_hits_{0};

  /// Resolved at construction when `metrics` is set; null otherwise.
  obs::Counter* appends_counter_ = nullptr;
  obs::Counter* dedup_counter_ = nullptr;
  obs::Counter* pruned_counter_ = nullptr;
};

}  // namespace mws::store

#endif  // MWSIBE_STORE_MESSAGE_DB_H_
