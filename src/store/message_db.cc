#include "src/store/message_db.h"

#include <cinttypes>
#include <cstdio>
#include <unordered_map>

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
      next_id_ = next;
      persisted_next_ = next;
    }
  }
}

util::Status MessageDb::PersistCounter(uint64_t next) {
  // Concurrent appends can persist out of block order, so only ever
  // write a value larger than the last one persisted.
  std::lock_guard<std::mutex> lock(counter_mutex_);
  if (next > persisted_next_) {
    util::Writer w;
    w.PutU64(next);
    MWS_RETURN_IF_ERROR(table_->Put(kNextIdKey, w.Take()));
    persisted_next_ = next;
  }
  return util::Status::Ok();
}

util::Result<std::vector<MessageDb::AppendOutcome>> MessageDb::Append(
    const std::vector<StoredMessage>& messages) {
  std::vector<AppendOutcome> outcomes(messages.size());
  // Classification: decide every message's fate before writing anything.
  struct Pending {
    StoredMessage stored;   // id 0: takes a fresh id
    size_t source;          // position in `messages`
    std::string dedup_key;  // empty: not deduplicated
  };
  std::vector<Pending> to_write;
  std::unordered_map<std::string, size_t> first_occurrence;
  std::vector<std::pair<size_t, size_t>> repeats;  // (message, first)
  std::vector<std::string> stale_records;  // torn appends' abandoned ids
  size_t dedup_count = 0;
  uint64_t fresh = 0;

  // Claim every dedup key of the call before reading any marker, so no
  // two appends of one message read its marker at once: both could miss
  // it, or both could abandon a torn append's id, and store it twice.
  // The append that wrote a marker held its claim until it returned, so
  // the marker's id is out of flight and the reads below are stable.
  std::vector<std::string> dedup_keys(messages.size());
  std::vector<bool> repeat(messages.size());
  for (size_t i = 0; i < messages.size(); ++i) {
    if (messages[i].device_id.empty() || messages[i].nonce.empty()) continue;
    dedup_keys[i] = DedupKey(messages[i].device_id, messages[i].nonce);
    auto [first, inserted] = first_occurrence.emplace(dedup_keys[i], i);
    if (!inserted) {
      repeats.emplace_back(i, first->second);
      repeat[i] = true;
    }
  }
  {
    std::lock_guard<std::mutex> lock(id_mutex_);
    for (const auto& [key, source] : first_occurrence) {
      if (appending_.count(key) > 0) {
        return util::Status::Unavailable(
            "an append of this message is still in progress");
      }
    }
    for (const auto& [key, source] : first_occurrence) appending_.insert(key);
  }
  // Releases the claims, and the block of fresh ids once one is taken,
  // when this call returns on any path; first_occurrence, which owns the
  // claimed keys, outlives it.
  struct InFlight {
    MessageDb* db;
    const std::unordered_map<std::string, size_t>& claimed;
    uint64_t first = 0, count = 0;
    ~InFlight() {
      std::lock_guard<std::mutex> lock(db->id_mutex_);
      for (const auto& [key, source] : claimed) db->appending_.erase(key);
      if (count > 0) db->in_flight_.erase(first);
    }
  } guard{this, first_occurrence};

  for (size_t i = 0; i < messages.size(); ++i) {
    if (repeat[i]) continue;
    StoredMessage stored = messages[i];
    stored.id = 0;
    std::string dedup_key = std::move(dedup_keys[i]);
    if (!dedup_key.empty()) {
      uint64_t reserved = 0;
      if (auto marker = table_->Get(dedup_key); marker.ok()) {
        util::Reader r(marker.value());
        if (!r.GetU64(&reserved) || !r.Done()) reserved = 0;
      }
      if (reserved != 0) {
        // The earlier attempt's record is authoritative: a retransmit is
        // stamped afresh and may name another attribute, so only the
        // record names the index keys. Records land before attribute-index
        // keys, and those before time-index keys.
        auto earlier = Get(reserved);
        if (!earlier.ok() ||
            !table_->Contains(IndexKey(earlier->attribute, reserved))) {
          // Torn before its attribute-index key landed, so a cursor may
          // have passed the reserved id and no reader has seen it: drop
          // the record and take a fresh id.
          if (earlier.ok()) stale_records.push_back(MessageKey(reserved));
        } else if (table_->Contains(TimeIndexKey(earlier->attribute,
                                                 earlier->timestamp_micros,
                                                 reserved))) {
          outcomes[i] = AppendOutcome{reserved, true};
          ++dedup_count;
          continue;
        } else {
          // Torn after its attribute-index key landed, so a cursor may
          // have delivered the reserved id: finish the append under it.
          stored = std::move(earlier).value();
          stored.id = reserved;
        }
      }
    }
    if (stored.id == 0) ++fresh;
    to_write.push_back({std::move(stored), i, std::move(dedup_key)});
  }

  // The one allocation: a contiguous block of fresh ids, in flight until
  // this call returns on any path. A failed append abandons its ids:
  // handing one back could reissue an id that a written marker names.
  uint64_t next = 0;
  {
    std::lock_guard<std::mutex> lock(id_mutex_);
    next = next_id_;
    next_id_ += fresh;
    if (fresh > 0) in_flight_.emplace(next, next_id_);
    guard.first = next;
    guard.count = fresh;
  }

  std::vector<std::pair<std::string, util::Bytes>> markers;
  std::vector<std::pair<std::string, util::Bytes>> records;
  std::vector<std::pair<std::string, util::Bytes>> index_keys;
  std::vector<std::pair<std::string, util::Bytes>> time_keys;
  records.reserve(to_write.size());
  index_keys.reserve(to_write.size());
  time_keys.reserve(to_write.size());
  for (Pending& p : to_write) {
    if (p.stored.id == 0) {
      p.stored.id = next++;
      if (!p.dedup_key.empty()) {
        util::Writer w;
        w.PutU64(p.stored.id);
        markers.emplace_back(std::move(p.dedup_key), w.Take());
      }
    }
    outcomes[p.source] = AppendOutcome{p.stored.id, false};
    records.emplace_back(MessageKey(p.stored.id), p.stored.Encode());
    index_keys.emplace_back(IndexKey(p.stored.attribute, p.stored.id),
                            util::Bytes{});
    time_keys.emplace_back(
        TimeIndexKey(p.stored.attribute, p.stored.timestamp_micros,
                     p.stored.id),
        util::Bytes{});
  }
  for (const auto& [message, first] : repeats) {
    outcomes[message] = AppendOutcome{outcomes[first].id, true};
    ++dedup_count;
  }

  // The counter goes first, so a reopened store never reissues an id a
  // marker names; stale records next. Then one table call per group: a
  // table may apply one PutBatch in any cross-key order (KvStore goes
  // shard by shard), so only separate calls keep an index entry from
  // naming a record that is not yet visible, and a time-index entry
  // from landing without its attribute-index entry (which decides a
  // torn append's retry).
  if (fresh > 0) MWS_RETURN_IF_ERROR(PersistCounter(next));
  for (const std::string& key : stale_records) {
    MWS_RETURN_IF_ERROR(table_->Delete(key));
  }
  if (!markers.empty()) MWS_RETURN_IF_ERROR(table_->PutBatch(markers));
  if (!records.empty()) {
    MWS_RETURN_IF_ERROR(table_->PutBatch(records));
    MWS_RETURN_IF_ERROR(table_->PutBatch(index_keys));
    MWS_RETURN_IF_ERROR(table_->PutBatch(time_keys));
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
  std::vector<StoredMessage> out;
  for (uint64_t id : IdsByAttributeAfter(attribute, 0)) {
    MWS_ASSIGN_OR_RETURN(StoredMessage m, Get(id));
    out.push_back(std::move(m));
  }
  return out;
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

size_t MessageDb::Count() const { return table_->CountPrefix("m/"); }

uint64_t MessageDb::visible_through() const {
  std::lock_guard<std::mutex> lock(id_mutex_);
  return (in_flight_.empty() ? next_id_ : in_flight_.begin()->first) - 1;
}

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
