#include "src/store/message_db.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <set>

#include "src/util/hex.h"
#include "src/util/serde.h"

namespace mws::store {

namespace {

constexpr char kNextIdKey[] = "m.next";

std::string MessageKey(uint64_t id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "m/%016" PRIx64, id);
  return buf;
}

std::string IndexKey(const std::string& attribute, uint64_t id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/%016" PRIx64, id);
  return "x/" + attribute + buf;
}

std::string IndexPrefix(const std::string& attribute) {
  return "x/" + attribute + "/";
}

std::string TimeIndexKey(const std::string& attribute, int64_t ts,
                         uint64_t id) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "/%016" PRIx64 "/%016" PRIx64,
                static_cast<uint64_t>(ts), id);
  return "t/" + attribute + buf;
}

std::string TimeIndexBound(const std::string& attribute, int64_t ts) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/%016" PRIx64,
                static_cast<uint64_t>(ts));
  return "t/" + attribute + buf;
}

std::string DedupKey(const std::string& device_id, const util::Bytes& nonce) {
  return "n/" + device_id + "/" + util::HexEncode(nonce);
}

}  // namespace

util::Bytes StoredMessage::Encode() const {
  util::Writer w;
  w.PutU64(id);
  w.PutBytes(u);
  w.PutBytes(ciphertext);
  w.PutString(attribute);
  w.PutBytes(nonce);
  w.PutString(device_id);
  w.PutU64(static_cast<uint64_t>(timestamp_micros));
  return w.Take();
}

util::Result<StoredMessage> StoredMessage::Decode(const util::Bytes& data) {
  util::Reader r(data);
  StoredMessage m;
  uint64_t ts = 0;
  r.GetU64(&m.id);
  r.GetBytes(&m.u);
  r.GetBytes(&m.ciphertext);
  r.GetString(&m.attribute);
  r.GetBytes(&m.nonce);
  r.GetString(&m.device_id);
  r.GetU64(&ts);
  if (!r.Done()) {
    return util::Status::Corruption("malformed stored message record");
  }
  m.timestamp_micros = static_cast<int64_t>(ts);
  return m;
}

MessageDb::MessageDb(Table* table, obs::Registry* metrics) : table_(table) {
  if (metrics != nullptr) {
    appends_counter_ = metrics->GetCounter("md.appends");
    dedup_counter_ = metrics->GetCounter("md.dedup_hits");
    pruned_counter_ = metrics->GetCounter("md.pruned");
  }
  auto counter = table_->Get(kNextIdKey);
  if (counter.ok()) {
    uint64_t next = 0;
    util::Reader r(counter.value());
    if (r.GetU64(&next) && r.Done() && next > 0) {
      next_id_.store(next, std::memory_order_relaxed);
      persisted_next_ = next;
    }
  }
}

util::Status MessageDb::WriteRecords(const StoredMessage& stored) {
  MWS_RETURN_IF_ERROR(table_->Put(MessageKey(stored.id), stored.Encode()));
  MWS_RETURN_IF_ERROR(
      table_->Put(IndexKey(stored.attribute, stored.id), {}));
  MWS_RETURN_IF_ERROR(table_->Put(
      TimeIndexKey(stored.attribute, stored.timestamp_micros, stored.id),
      {}));
  return PersistCounter(stored.id + 1);
}

util::Status MessageDb::PersistCounter(uint64_t next) {
  // Appends can finish out of id order, so only ever write a value
  // larger than the last one persisted.
  std::lock_guard<std::mutex> lock(counter_mutex_);
  if (next > persisted_next_) {
    util::Writer w;
    w.PutU64(next);
    MWS_RETURN_IF_ERROR(table_->Put(kNextIdKey, w.Take()));
    persisted_next_ = next;
  }
  return util::Status::Ok();
}

util::Result<uint64_t> MessageDb::Append(const StoredMessage& message) {
  const uint64_t next = next_id_.fetch_add(1, std::memory_order_relaxed);
  StoredMessage stored = message;
  stored.id = next;

  util::Status write = WriteRecords(stored);
  if (!write.ok()) {
    // Hand the id back if no later append claimed one meanwhile, so a
    // healed retry reuses it. Under concurrency the id is simply skipped
    // — uniqueness and monotonicity hold either way.
    uint64_t expected = next + 1;
    next_id_.compare_exchange_strong(expected, next,
                                     std::memory_order_relaxed);
    return write;
  }
  if (appends_counter_ != nullptr) appends_counter_->Increment();
  return next;
}

util::Result<MessageDb::AppendOutcome> MessageDb::AppendDeduped(
    const StoredMessage& message) {
  if (message.device_id.empty() || message.nonce.empty()) {
    MWS_ASSIGN_OR_RETURN(uint64_t id, Append(message));
    return AppendOutcome{id, false};
  }
  const std::string dedup_key = DedupKey(message.device_id, message.nonce);
  StoredMessage stored = message;
  stored.id = 0;

  auto marker = table_->Get(dedup_key);
  if (marker.ok()) {
    uint64_t reserved = 0;
    util::Reader r(marker.value());
    if (r.GetU64(&reserved) && r.Done() && reserved > 0) {
      // Completeness check over every key the append writes: the
      // retransmit carries identical fields, so the keys reconstruct
      // exactly. All present -> pure retransmit, nothing to do.
      if (table_->Contains(MessageKey(reserved)) &&
          table_->Contains(IndexKey(stored.attribute, reserved)) &&
          table_->Contains(TimeIndexKey(stored.attribute,
                                        stored.timestamp_micros, reserved))) {
        dedup_hits_.fetch_add(1, std::memory_order_relaxed);
        if (dedup_counter_ != nullptr) dedup_counter_->Increment();
        return AppendOutcome{reserved, true};
      }
      // A torn earlier attempt: resume the reserved id and rewrite the
      // same keys (idempotent), so the partial records already visible
      // complete instead of duplicating under a fresh id.
      stored.id = reserved;
    }
  }
  if (stored.id == 0) {
    stored.id = next_id_.fetch_add(1, std::memory_order_relaxed);
    // Reserve before writing anything else: if any later write fails
    // the retry finds the marker and resumes this id.
    util::Writer w;
    w.PutU64(stored.id);
    MWS_RETURN_IF_ERROR(table_->Put(dedup_key, w.Take()));
  }
  MWS_RETURN_IF_ERROR(WriteRecords(stored));
  if (appends_counter_ != nullptr) appends_counter_->Increment();
  return AppendOutcome{stored.id, false};
}

util::Result<std::vector<MessageDb::AppendOutcome>>
MessageDb::AppendDedupedBatch(const std::vector<StoredMessage>& messages) {
  std::vector<AppendOutcome> outcomes(messages.size());
  // Classification pass: decide every message's id before writing
  // anything, mirroring what sequential AppendDeduped calls would do.
  // `batch_assigned` maps dedup keys claimed earlier in this batch so an
  // intra-batch retransmit resolves to the first occurrence's id — by the
  // time a sequential run reached it, the first copy's records would be
  // fully written and it would dedup.
  std::map<std::string, uint64_t> batch_assigned;
  struct Pending {
    StoredMessage stored;
  };
  std::vector<Pending> to_write;
  std::vector<std::pair<std::string, util::Bytes>> fresh_markers;
  size_t dedup_count = 0;

  for (size_t i = 0; i < messages.size(); ++i) {
    StoredMessage stored = messages[i];
    stored.id = 0;
    if (stored.device_id.empty() || stored.nonce.empty()) {
      // Non-dedupable message: plain Append semantics, no marker.
      stored.id = next_id_.fetch_add(1, std::memory_order_relaxed);
      outcomes[i] = AppendOutcome{stored.id, false};
      to_write.push_back(Pending{std::move(stored)});
      continue;
    }
    const std::string dedup_key = DedupKey(stored.device_id, stored.nonce);
    if (auto it = batch_assigned.find(dedup_key);
        it != batch_assigned.end()) {
      outcomes[i] = AppendOutcome{it->second, true};
      ++dedup_count;
      continue;
    }
    auto marker = table_->Get(dedup_key);
    uint64_t reserved = 0;
    if (marker.ok()) {
      util::Reader r(marker.value());
      uint64_t parsed = 0;
      if (r.GetU64(&parsed) && r.Done() && parsed > 0) reserved = parsed;
    }
    if (reserved != 0) {
      batch_assigned[dedup_key] = reserved;
      if (table_->Contains(MessageKey(reserved)) &&
          table_->Contains(IndexKey(stored.attribute, reserved)) &&
          table_->Contains(TimeIndexKey(stored.attribute,
                                        stored.timestamp_micros, reserved))) {
        outcomes[i] = AppendOutcome{reserved, true};
        ++dedup_count;
        continue;
      }
      // Torn earlier attempt: resume the reserved id, rewrite its keys.
      stored.id = reserved;
    } else {
      stored.id = next_id_.fetch_add(1, std::memory_order_relaxed);
      batch_assigned[dedup_key] = stored.id;
      util::Writer w;
      w.PutU64(stored.id);
      fresh_markers.emplace_back(dedup_key, w.Take());
    }
    outcomes[i] = AppendOutcome{stored.id, false};
    to_write.push_back(Pending{std::move(stored)});
  }

  // Phase 1: reserve every fresh id before any message record exists —
  // the batch-wide marker-first invariant. A crash after this point is
  // recovered by a retry resuming the reserved ids.
  if (!fresh_markers.empty()) {
    MWS_RETURN_IF_ERROR(table_->PutBatch(fresh_markers));
  }
  // Phase 2: every message record. Phase 3: every secondary-index key,
  // then one counter bump past the batch's highest id. A table may apply
  // one PutBatch in any cross-key order (KvStore goes shard by shard),
  // so sharing a batch could let a reader list an id whose record is not
  // there yet; separate batches keep an index entry from ever naming an
  // invisible record.
  std::vector<std::pair<std::string, util::Bytes>> records;
  std::vector<std::pair<std::string, util::Bytes>> index_keys;
  records.reserve(to_write.size());
  index_keys.reserve(to_write.size() * 2);
  uint64_t max_id = 0;
  for (const Pending& p : to_write) {
    records.emplace_back(MessageKey(p.stored.id), p.stored.Encode());
    index_keys.emplace_back(IndexKey(p.stored.attribute, p.stored.id),
                            util::Bytes{});
    index_keys.emplace_back(
        TimeIndexKey(p.stored.attribute, p.stored.timestamp_micros,
                     p.stored.id),
        util::Bytes{});
    max_id = std::max(max_id, p.stored.id);
  }
  if (!records.empty()) {
    MWS_RETURN_IF_ERROR(table_->PutBatch(records));
    MWS_RETURN_IF_ERROR(table_->PutBatch(index_keys));
    MWS_RETURN_IF_ERROR(PersistCounter(max_id + 1));
  }
  if (dedup_count > 0) {
    dedup_hits_.fetch_add(dedup_count, std::memory_order_relaxed);
    if (dedup_counter_ != nullptr) dedup_counter_->Increment(dedup_count);
  }
  if (appends_counter_ != nullptr && !to_write.empty()) {
    appends_counter_->Increment(to_write.size());
  }
  return outcomes;
}

util::Result<StoredMessage> MessageDb::Get(uint64_t id) const {
  MWS_ASSIGN_OR_RETURN(util::Bytes raw, table_->Get(MessageKey(id)));
  return StoredMessage::Decode(raw);
}

util::Result<std::vector<StoredMessage>> MessageDb::FindByAttribute(
    const std::string& attribute) const {
  return FindByAttributeAfter(attribute, 0);
}

std::vector<uint64_t> MessageDb::IdsByAttributeAfter(
    const std::string& attribute, uint64_t after_id) const {
  std::vector<uint64_t> out;
  const std::string prefix = IndexPrefix(attribute);
  for (const std::string& key : table_->ScanKeys(prefix)) {
    // Key shape: "x/<attribute>/<016x id>"; parse the id in place.
    uint64_t id = std::strtoull(key.c_str() + prefix.size(), nullptr, 16);
    if (id <= after_id) continue;
    out.push_back(id);
  }
  return out;
}

std::vector<uint64_t> MessageDb::IdsByAttributeInTimeRange(
    const std::string& attribute, int64_t from_micros,
    int64_t to_micros) const {
  std::vector<uint64_t> out;
  if (from_micros >= to_micros) return out;
  const std::string lower = TimeIndexBound(attribute, from_micros);
  const std::string upper = TimeIndexBound(attribute, to_micros);
  for (const std::string& key : table_->ScanKeys("t/" + attribute + "/")) {
    // Keys sort by timestamp; stop once past the upper bound.
    if (key < lower) continue;
    if (key >= upper) break;
    uint64_t id = std::strtoull(key.c_str() + key.rfind('/') + 1, nullptr, 16);
    out.push_back(id);
  }
  return out;
}

util::Result<std::vector<StoredMessage>> MessageDb::FindByAttributeAfter(
    const std::string& attribute, uint64_t after_id) const {
  std::vector<StoredMessage> out;
  for (uint64_t id : IdsByAttributeAfter(attribute, after_id)) {
    MWS_ASSIGN_OR_RETURN(StoredMessage m, Get(id));
    out.push_back(std::move(m));
  }
  return out;
}

util::Result<std::vector<StoredMessage>> MessageDb::FindByAttributes(
    const std::vector<std::string>& attributes) const {
  std::set<uint64_t> seen;
  std::vector<StoredMessage> out;
  for (const std::string& attribute : attributes) {
    MWS_ASSIGN_OR_RETURN(std::vector<StoredMessage> batch,
                         FindByAttribute(attribute));
    for (auto& m : batch) {
      if (seen.insert(m.id).second) out.push_back(std::move(m));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const StoredMessage& a, const StoredMessage& b) {
              return a.id < b.id;
            });
  return out;
}

size_t MessageDb::Count() const { return table_->CountPrefix("m/"); }

util::Result<size_t> MessageDb::PruneThrough(uint64_t max_id) {
  size_t pruned = 0;
  for (const std::string& key : table_->ScanKeys("m/")) {
    // Key shape: "m/<016x id>".
    uint64_t id = std::strtoull(key.c_str() + 2, nullptr, 16);
    if (id == 0 || id > max_id) continue;
    auto message = Get(id);
    if (!message.ok()) continue;  // racing prune; indexes go with theirs
    const StoredMessage& m = message.value();
    // Indexes and marker first, message record last: a crash mid-prune
    // leaves at worst dangling index keys pointing at a still-present
    // message (retrieval stays correct); the next prune pass finishes.
    MWS_RETURN_IF_ERROR(table_->Delete(IndexKey(m.attribute, id)));
    MWS_RETURN_IF_ERROR(table_->Delete(
        TimeIndexKey(m.attribute, m.timestamp_micros, id)));
    if (!m.device_id.empty() && !m.nonce.empty()) {
      MWS_RETURN_IF_ERROR(table_->Delete(DedupKey(m.device_id, m.nonce)));
    }
    MWS_RETURN_IF_ERROR(table_->Delete(MessageKey(id)));
    ++pruned;
  }
  if (pruned > 0 && pruned_counter_ != nullptr) {
    pruned_counter_->Increment(pruned);
  }
  return pruned;
}

std::vector<std::string> MessageDb::DistinctAttributes() const {
  std::vector<std::string> out;
  for (const std::string& key : table_->ScanKeys("x/")) {
    // Key shape: "x/<attribute>/<016x id>"; attributes contain no '/'.
    size_t slash = key.rfind('/');
    std::string attribute = key.substr(2, slash - 2);
    if (out.empty() || out.back() != attribute) {
      out.push_back(std::move(attribute));
    }
  }
  return out;
}

}  // namespace mws::store
