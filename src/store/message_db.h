#ifndef MWSIBE_STORE_MESSAGE_DB_H_
#define MWSIBE_STORE_MESSAGE_DB_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_set>
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
/// thread-safe Table. Each Append takes one contiguous block of fresh
/// ids under a small mutex, seeded from the persisted "m.next" record at
/// construction, and keeps the block in flight until its index keys are
/// written or the append fails. visible_through() is how far no id is in
/// flight: the bound a retrieval cursor may advance to.
class MessageDb {
 public:
  /// Borrows `table`; the table must outlive the MessageDb. Reads the
  /// persisted id counter to seed id assignment. `metrics` (optional,
  /// must outlive the MessageDb) exposes `md.appends`, `md.dedup_hits`
  /// and `md.pruned`.
  explicit MessageDb(Table* table, obs::Registry* metrics = nullptr);

  struct AppendOutcome {
    uint64_t id = 0;
    /// The message was already fully stored (a retransmit); `id` is the
    /// original assignment.
    bool deduplicated = false;
  };

  /// The one append. Stores `messages` (their id fields are ignored) and
  /// returns one outcome per message, in order.
  ///
  /// At-least-once safe: a message with a device id and a nonce is
  /// deduplicated by (device_id, nonce), so a client that retries after
  /// a lost ack cannot double-store, and a repeat within one call
  /// resolves to its first occurrence. A dedup marker
  /// "n/<ID_SD>/<nonce>" -> id is written before the message records.
  /// Each call claims its dedup keys until it returns: while another
  /// append of one of its messages is still running, the whole call
  /// fails with kUnavailable (retryable) before reading any marker.
  /// Otherwise the record an earlier append stored is authoritative,
  /// whatever the retransmit's own timestamp (a device stamps each send
  /// afresh) or other fields: with every key of that record present it
  /// is a dedup hit. One that finds the marker but not every key
  /// finishes a torn append: it keeps the reserved id and the earlier
  /// record once the attribute-index key landed (a cursor may already
  /// have delivered that id); otherwise it deletes the record if it
  /// landed and takes a fresh id, so no cursor can have passed the id it
  /// ends up under.
  ///
  /// Writes the id counter, the dedup markers, the message records, the
  /// attribute-index keys and the time-index keys, in that order, one
  /// table call per group. A storage failure fails the whole call and
  /// abandons its fresh ids; retrying the call is safe (the markers
  /// absorb what landed).
  util::Result<std::vector<AppendOutcome>> Append(
      const std::vector<StoredMessage>& messages);

  /// Retransmissions absorbed by Append.
  uint64_t dedup_hits() const {
    return dedup_hits_.load(std::memory_order_relaxed);
  }

  util::Result<StoredMessage> Get(uint64_t id) const;

  /// All messages whose attribute equals `attribute`, in id order.
  util::Result<std::vector<StoredMessage>> FindByAttribute(
      const std::string& attribute) const;

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

  /// The highest N such that no id <= N is in flight (allocated by an
  /// Append that has neither written its index keys nor failed). Read
  /// before listing an index, it bounds what that listing may deliver:
  /// every id <= N finished writing before the listing began, so a
  /// cursor that stops at N never passes an id a later listing shows.
  uint64_t visible_through() const;

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
  /// Bumps the persisted "m.next" counter to at least `next`.
  util::Status PersistCounter(uint64_t next);

  Table* table_;
  /// Guards next_id_, in_flight_ and appending_.
  mutable std::mutex id_mutex_;
  /// Next id to hand out.
  uint64_t next_id_ = 1;
  /// Every block whose Append has not finished: first id -> end id.
  std::map<uint64_t, uint64_t> in_flight_;
  /// The dedup keys of every Append that has not finished. Each view
  /// points into that Append's own key set, and is erased before the
  /// Append returns.
  std::unordered_set<std::string_view> appending_;
  /// Guards persisted_next_ so the on-disk counter only moves forward
  /// even when concurrent appends persist out of block order.
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
