#include "src/store/kvstore.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <vector>

#include "src/store/snapshot.h"
#include "src/util/serde.h"

namespace mws::store {

namespace {

bool HasPrefix(const std::string& key, const std::string& prefix) {
  return key.compare(0, prefix.size(), prefix) == 0;
}

/// Locks every shard's mutex in shared mode, ascending, for the lifetime
/// of the guard — the consistent-snapshot side of the lock order.
class AllShardsSharedLock {
 public:
  template <typename Shards>
  explicit AllShardsSharedLock(Shards& shards) {
    locks_.reserve(shards.size());
    for (auto& shard : shards) locks_.emplace_back(shard.mutex);
  }

 private:
  std::vector<std::shared_lock<std::shared_mutex>> locks_;
};

}  // namespace

void KvStore::RemoveFiles(const std::string& path) {
  if (path.empty()) return;
  std::error_code ec;
  std::filesystem::remove(path, ec);
  std::filesystem::remove(CheckpointPath(path), ec);
  std::filesystem::remove(CheckpointPath(path) + ".tmp", ec);
  std::filesystem::remove(path + ".compact", ec);  // pre-checkpoint scratch
}

util::Result<std::unique_ptr<KvStore>> KvStore::Open(const Options& options) {
  auto store = std::unique_ptr<KvStore>(new KvStore(options));
  if (options.metrics != nullptr) {
    store->wal_appends_counter_ = options.metrics->GetCounter("store.wal_appends");
    store->wal_bytes_counter_ = options.metrics->GetCounter("store.wal_bytes");
    store->contention_counter_ =
        options.metrics->GetCounter("store.shard_contention");
    store->compactions_counter_ =
        options.metrics->GetCounter("store.compactions");
    store->compaction_failures_counter_ =
        options.metrics->GetCounter("store.compaction_failures");
  }
  if (store->persistent()) {
    MWS_RETURN_IF_ERROR(store->Recover());
    store->log_.open(options.path, std::ios::binary | std::ios::app);
    if (!store->log_) {
      return util::Status::IoError("cannot open log for append: " +
                                   options.path);
    }
    if (options.metrics != nullptr) {
      // Recovery outcome as gauges: one value per Open, not cumulative.
      options.metrics->GetGauge("store.recovery.records_replayed")
          ->Set(static_cast<int64_t>(store->recovery_.records_replayed));
      options.metrics->GetGauge("store.recovery.bytes_truncated")
          ->Set(static_cast<int64_t>(store->recovery_.bytes_truncated));
      options.metrics->GetGauge("store.recovery.torn_tail")
          ->Set(store->recovery_.torn_tail ? 1 : 0);
      options.metrics->GetGauge("store.recovery.checkpoint_records")
          ->Set(static_cast<int64_t>(store->recovery_.checkpoint_records));
    }
  }
  return store;
}

KvStore::~KvStore() {
  if (log_.is_open()) log_.flush();
}

util::Status KvStore::Recover() {
  std::error_code ec;
  // A scratch checkpoint is an interrupted compaction's partial write:
  // it was never renamed into place, so it holds nothing durable.
  std::filesystem::remove(CheckpointPath(options_.path) + ".tmp", ec);
  std::filesystem::remove(options_.path + ".compact", ec);

  // 1. Checkpoint base image (if one exists). A corrupt checkpoint is an
  // unrecoverable defect — the WAL tail alone is not the full history —
  // so it surfaces as a failed Open instead of silent data loss.
  auto ckpt = ReadCheckpointFile(CheckpointPath(options_.path));
  if (ckpt.ok()) {
    for (const KvRecord& record : ckpt.value().records) {
      if (record.type == kKvRecordPut) {
        ShardFor(record.key).map[record.key] = record.value;
      } else {
        ShardFor(record.key).map.erase(record.key);
      }
    }
    recovery_.checkpoint_records = ckpt.value().records.size();
    recovery_.checkpoint_bytes = ckpt.value().bytes;
    log_records_.store(recovery_.checkpoint_records,
                       std::memory_order_relaxed);
  } else if (ckpt.status().code() != util::StatusCode::kNotFound) {
    return ckpt.status();
  }

  // 2. WAL tail replay with torn-tail truncation.
  std::ifstream in(options_.path, std::ios::binary);
  if (!in) {
    // Fresh WAL (possibly atop a checkpoint: a crash exactly between
    // compaction's rename and its truncating reopen leaves no WAL file
    // only if one never existed — truncation keeps the inode).
    recovery_.records_replayed = recovery_.checkpoint_records;
    return util::Status::Ok();
  }
  util::Bytes content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  bool torn = false;
  size_t wal_records = 0;
  size_t valid_end = ScanKvRecords(
      content, 0, &torn,
      [&](uint8_t type, std::string_view key, const uint8_t* value,
          size_t value_len) {
        if (type == kKvRecordFooter) {
          // Footers belong to checkpoint files only; a CRC-valid one in
          // a WAL can only come from splicing. Skip it without applying.
          return;
        }
        std::string k(key);
        if (type == kKvRecordPut) {
          ShardFor(k).map[k] = util::Bytes(value, value + value_len);
        } else {
          ShardFor(k).map.erase(k);
        }
        ++wal_records;
      });
  log_records_.fetch_add(wal_records, std::memory_order_relaxed);
  recovery_.records_replayed = recovery_.checkpoint_records + wal_records;
  recovery_.bytes_replayed = valid_end;
  recovery_.torn_tail = torn;
  recovery_.bytes_truncated = content.size() - valid_end;
  wal_bytes_.store(valid_end, std::memory_order_relaxed);
  if (torn) {
    // Drop the torn tail so future appends produce a clean log; every
    // fully-committed record before it has already been replayed.
    std::filesystem::resize_file(options_.path, valid_end, ec);
    if (ec) {
      return util::Status::IoError("cannot truncate torn WAL tail: " +
                                   ec.message());
    }
  }
  return util::Status::Ok();
}

util::Status KvStore::AppendRecord(uint8_t type, const std::string& key,
                                   const util::Bytes& value) {
  if (!persistent()) {
    log_records_.fetch_add(1, std::memory_order_relaxed);
    return util::Status::Ok();
  }
  util::Bytes record = EncodeKvRecord(type, key, value);
  std::lock_guard<std::mutex> log_lock(log_mutex_);
  log_.write(reinterpret_cast<const char*>(record.data()),
             static_cast<std::streamsize>(record.size()));
  if (!log_) return util::Status::IoError("log append failed");
  log_records_.fetch_add(1, std::memory_order_relaxed);
  wal_bytes_.fetch_add(record.size(), std::memory_order_relaxed);
  if (wal_appends_counter_ != nullptr) {
    wal_appends_counter_->Increment();
    wal_bytes_counter_->Increment(record.size());
  }
  return util::Status::Ok();
}

util::Status KvStore::Put(const std::string& key, const util::Bytes& value) {
  {
    Shard& shard = ShardFor(key);
    // try_lock first so stripe contention is observable: a failed
    // non-blocking acquire means another writer holds this shard.
    std::unique_lock<std::shared_mutex> lock(shard.mutex, std::try_to_lock);
    if (!lock.owns_lock()) {
      if (contention_counter_ != nullptr) contention_counter_->Increment();
      lock.lock();
    }
    MWS_RETURN_IF_ERROR(AppendRecord(kKvRecordPut, key, value));
    shard.map[key] = value;
  }
  MWS_RETURN_IF_ERROR(Flush());
  MaybeCompact();
  return util::Status::Ok();
}

util::Status KvStore::PutBatch(
    const std::vector<std::pair<std::string, util::Bytes>>& entries) {
  // Entry indices per shard, preserving batch order within each shard so
  // a duplicated key resolves last-write-wins exactly like N Puts.
  std::array<std::vector<size_t>, kShardCount> by_shard;
  for (size_t i = 0; i < entries.size(); ++i) {
    by_shard[std::hash<std::string>{}(entries[i].first) % kShardCount]
        .push_back(i);
  }
  for (size_t s = 0; s < kShardCount; ++s) {
    if (by_shard[s].empty()) continue;
    Shard& shard = shards_[s];
    std::unique_lock<std::shared_mutex> lock(shard.mutex, std::try_to_lock);
    if (!lock.owns_lock()) {
      if (contention_counter_ != nullptr) contention_counter_->Increment();
      lock.lock();
    }
    for (size_t i : by_shard[s]) {
      const auto& [key, value] = entries[i];
      MWS_RETURN_IF_ERROR(AppendRecord(kKvRecordPut, key, value));
      shard.map[key] = value;
    }
  }
  MWS_RETURN_IF_ERROR(Flush());
  MaybeCompact();
  return util::Status::Ok();
}

util::Result<util::Bytes> KvStore::Get(const std::string& key) const {
  Shard& shard = ShardFor(key);
  std::shared_lock<std::shared_mutex> lock(shard.mutex);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    return util::Status::NotFound("key not found: " + key);
  }
  return it->second;
}

util::Status KvStore::Delete(const std::string& key) {
  {
    Shard& shard = ShardFor(key);
    std::unique_lock<std::shared_mutex> lock(shard.mutex);
    if (shard.map.find(key) == shard.map.end()) return util::Status::Ok();
    MWS_RETURN_IF_ERROR(AppendRecord(kKvRecordDelete, key, {}));
    shard.map.erase(key);
  }
  MWS_RETURN_IF_ERROR(Flush());
  MaybeCompact();
  return util::Status::Ok();
}

bool KvStore::Contains(const std::string& key) const {
  Shard& shard = ShardFor(key);
  std::shared_lock<std::shared_mutex> lock(shard.mutex);
  return shard.map.find(key) != shard.map.end();
}

std::vector<std::pair<std::string, util::Bytes>> KvStore::Scan(
    const std::string& prefix) const {
  std::vector<std::pair<std::string, util::Bytes>> out;
  AllShardsSharedLock lock(shards_);
  for (const Shard& shard : shards_) {
    for (auto it = shard.map.lower_bound(prefix); it != shard.map.end();
         ++it) {
      if (!HasPrefix(it->first, prefix)) break;
      out.emplace_back(it->first, it->second);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

std::vector<std::string> KvStore::ScanKeys(const std::string& prefix) const {
  std::vector<std::string> out;
  AllShardsSharedLock lock(shards_);
  for (const Shard& shard : shards_) {
    for (auto it = shard.map.lower_bound(prefix); it != shard.map.end();
         ++it) {
      if (!HasPrefix(it->first, prefix)) break;
      out.push_back(it->first);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

size_t KvStore::CountPrefix(const std::string& prefix) const {
  size_t count = 0;
  AllShardsSharedLock lock(shards_);
  for (const Shard& shard : shards_) {
    for (auto it = shard.map.lower_bound(prefix); it != shard.map.end();
         ++it) {
      if (!HasPrefix(it->first, prefix)) break;
      ++count;
    }
  }
  return count;
}

size_t KvStore::Size() const {
  size_t total = 0;
  AllShardsSharedLock lock(shards_);
  for (const Shard& shard : shards_) total += shard.map.size();
  return total;
}

util::Status KvStore::Flush() {
  if (!persistent()) return util::Status::Ok();
  std::lock_guard<std::mutex> log_lock(log_mutex_);
  log_.flush();
  if (!log_) return util::Status::IoError("log flush failed");
  return util::Status::Ok();
}

void KvStore::MaybeCompact() {
  if (!persistent() || options_.compact_threshold_bytes == 0) return;
  if (wal_bytes_.load(std::memory_order_relaxed) <
      options_.compact_threshold_bytes) {
    return;
  }
  // Collapse concurrent triggers: whoever wins runs the checkpoint, the
  // rest return to their callers immediately.
  if (compact_running_.exchange(true, std::memory_order_acquire)) return;
  util::Result<size_t> result = Checkpoint();
  if (!result.ok() && compaction_failures_counter_ != nullptr) {
    // Best-effort: a failed background checkpoint leaves the WAL fully
    // intact (durability unaffected); the next threshold crossing
    // retries.
    compaction_failures_counter_->Increment();
  }
  compact_running_.store(false, std::memory_order_release);
}

util::Result<size_t> KvStore::Compact() { return Checkpoint(); }

util::Result<size_t> KvStore::Checkpoint() {
  std::lock_guard<std::mutex> compact_lock(compact_mutex_);
  if (!persistent()) {
    // In-memory: only the accounting compacts.
    AllShardsSharedLock lock(shards_);
    size_t live = 0;
    for (const Shard& shard : shards_) live += shard.map.size();
    size_t before = log_records_.exchange(live, std::memory_order_relaxed);
    return before > live ? before - live : 0;
  }
  const size_t before = log_records_.load(std::memory_order_relaxed);

  // 1. Note the fuzzy-scan cut. Flush first so every byte below the cut
  // is on disk for the delta read later.
  size_t cut;
  {
    std::lock_guard<std::mutex> log_lock(log_mutex_);
    log_.flush();
    if (!log_) return util::Status::IoError("flush before checkpoint failed");
    cut = wal_bytes_.load(std::memory_order_relaxed);
  }

  // 2. Fuzzy base scan: one shard at a time under a shared lock, so
  // readers are never blocked and writers only wait for their own
  // shard's copy-out. Appends racing the scan land in the WAL past the
  // cut and are folded in as the delta below — whether or not the scan
  // also saw their index effect, replay order makes the delta win.
  const std::string ckpt_path = CheckpointPath(options_.path);
  const std::string tmp = ckpt_path + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out) return util::Status::IoError("cannot create checkpoint scratch");
  out.write(kCheckpointMagic, sizeof(kCheckpointMagic));
  size_t ckpt_records = 0;
  for (Shard& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard.mutex);
    for (const auto& [key, value] : shard.map) {
      util::Bytes record = EncodeKvRecord(kKvRecordPut, key, value);
      out.write(reinterpret_cast<const char*>(record.data()),
                static_cast<std::streamsize>(record.size()));
      ++ckpt_records;
    }
  }
  if (!out) return util::Status::IoError("checkpoint base write failed");

  // 3. Freeze the log (writers block at their append, readers continue),
  // fold in the delta appended during the scan, commit, truncate.
  std::lock_guard<std::mutex> log_lock(log_mutex_);
  log_.flush();
  if (!log_) return util::Status::IoError("flush at checkpoint swap failed");
  const size_t end = wal_bytes_.load(std::memory_order_relaxed);
  if (end > cut) {
    std::ifstream wal_in(options_.path, std::ios::binary);
    if (!wal_in) return util::Status::IoError("cannot read WAL delta");
    util::Bytes delta(end - cut);
    wal_in.seekg(static_cast<std::streamoff>(cut));
    wal_in.read(reinterpret_cast<char*>(delta.data()),
                static_cast<std::streamsize>(delta.size()));
    if (wal_in.gcount() != static_cast<std::streamsize>(delta.size())) {
      return util::Status::IoError("short WAL delta read");
    }
    bool torn = false;
    size_t delta_records = 0;
    size_t consumed = ScanKvRecords(
        delta, 0, &torn,
        [&](uint8_t, std::string_view, const uint8_t*, size_t) {
          ++delta_records;
        });
    if (torn || consumed != delta.size()) {
      // We wrote these bytes ourselves under the log mutex; a parse
      // failure means the WAL file diverged from the stream (external
      // tampering or IO corruption). Abort, leaving the WAL untouched.
      return util::Status::Corruption("WAL delta unparseable at checkpoint");
    }
    // Verbatim copy: same framing in WAL and checkpoint.
    out.write(reinterpret_cast<const char*>(delta.data()),
              static_cast<std::streamsize>(delta.size()));
    ckpt_records += delta_records;
  }
  util::Bytes footer = EncodeCheckpointFooter(ckpt_records);
  out.write(reinterpret_cast<const char*>(footer.data()),
            static_cast<std::streamsize>(footer.size()));
  out.flush();
  out.close();
  if (!out) return util::Status::IoError("checkpoint finalize failed");

  // Commit point: the atomic rename. Before it, recovery sees old ckpt +
  // full WAL; after it, new ckpt + full WAL (idempotent replay) until
  // the truncation lands.
  std::error_code ec;
  std::filesystem::rename(tmp, ckpt_path, ec);
  if (ec) return util::Status::IoError("checkpoint rename failed");

  log_.close();
  log_.open(options_.path, std::ios::binary | std::ios::trunc);
  if (!log_) return util::Status::IoError("cannot truncate WAL");
  wal_bytes_.store(0, std::memory_order_relaxed);
  log_records_.store(ckpt_records, std::memory_order_relaxed);
  if (compactions_counter_ != nullptr) compactions_counter_->Increment();
  return before > ckpt_records ? before - ckpt_records : 0;
}

}  // namespace mws::store
