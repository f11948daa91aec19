#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>

#include "src/store/flatfile.h"
#include "src/store/kvstore.h"
#include "src/store/message_db.h"
#include "src/store/policy_db.h"
#include "src/store/user_db.h"
#include "src/util/serde.h"

namespace mws::store {
namespace {

using util::Bytes;
using util::BytesFromString;

std::string TempPath(std::string name) {
  // Parameterized test names contain '/'; keep the path flat.
  for (char& c : name) {
    if (c == '/') c = '_';
  }
  return (std::filesystem::temp_directory_path() /
          ("mwsibe_store_test_" + name + "_" +
           std::to_string(::getpid())))
      .string();
}

enum class Backend { kKvMemory, kKvDisk, kFlatMemory, kFlatDisk };

class TableTest : public ::testing::TestWithParam<Backend> {
 protected:
  void SetUp() override {
    path_ = TempPath(::testing::UnitTest::GetInstance()
                         ->current_test_info()
                         ->name());
    KvStore::RemoveFiles(path_);
    table_ = MakeTable();
  }

  void TearDown() override { KvStore::RemoveFiles(path_); }

  std::unique_ptr<Table> MakeTable() {
    switch (GetParam()) {
      case Backend::kKvMemory:
        return std::move(KvStore::Open({.path = ""}).value());
      case Backend::kKvDisk:
        return std::move(KvStore::Open({.path = path_}).value());
      case Backend::kFlatMemory:
        return std::move(FlatFileStore::Open({.path = ""}).value());
      case Backend::kFlatDisk:
        return std::move(FlatFileStore::Open({.path = path_}).value());
    }
    return nullptr;
  }

  std::string path_;
  std::unique_ptr<Table> table_;
};

TEST_P(TableTest, PutGetDelete) {
  EXPECT_TRUE(table_->Put("k1", BytesFromString("v1")).ok());
  EXPECT_TRUE(table_->Put("k2", BytesFromString("v2")).ok());
  EXPECT_EQ(table_->Get("k1").value(), BytesFromString("v1"));
  EXPECT_EQ(table_->Size(), 2u);
  EXPECT_TRUE(table_->Contains("k2"));
  EXPECT_FALSE(table_->Contains("k3"));
  EXPECT_TRUE(table_->Get("k3").status().IsNotFound());
  EXPECT_TRUE(table_->Delete("k1").ok());
  EXPECT_FALSE(table_->Contains("k1"));
  EXPECT_EQ(table_->Size(), 1u);
  // Deleting a missing key is OK.
  EXPECT_TRUE(table_->Delete("nope").ok());
}

TEST_P(TableTest, OverwriteKeepsLatest) {
  EXPECT_TRUE(table_->Put("k", BytesFromString("old")).ok());
  EXPECT_TRUE(table_->Put("k", BytesFromString("new")).ok());
  EXPECT_EQ(table_->Get("k").value(), BytesFromString("new"));
  EXPECT_EQ(table_->Size(), 1u);
}

TEST_P(TableTest, EmptyKeyAndValue) {
  EXPECT_TRUE(table_->Put("", Bytes{}).ok());
  EXPECT_TRUE(table_->Contains(""));
  EXPECT_EQ(table_->Get("").value(), Bytes{});
}

TEST_P(TableTest, BinaryValues) {
  Bytes binary;
  for (int i = 0; i < 256; ++i) binary.push_back(static_cast<uint8_t>(i));
  EXPECT_TRUE(table_->Put("bin", binary).ok());
  EXPECT_TRUE(table_->Flush().ok());
  EXPECT_EQ(table_->Get("bin").value(), binary);
}

TEST_P(TableTest, ScanPrefixOrdered) {
  table_->Put("a/1", BytesFromString("1")).ok();
  table_->Put("a/3", BytesFromString("3")).ok();
  table_->Put("a/2", BytesFromString("2")).ok();
  table_->Put("b/1", BytesFromString("x")).ok();
  table_->Put("", BytesFromString("root")).ok();
  auto rows = table_->Scan("a/");
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].first, "a/1");
  EXPECT_EQ(rows[1].first, "a/2");
  EXPECT_EQ(rows[2].first, "a/3");
  EXPECT_EQ(table_->Scan("").size(), 5u);
  EXPECT_TRUE(table_->Scan("zzz").empty());
}

TEST_P(TableTest, PersistenceAcrossReopen) {
  if (GetParam() == Backend::kKvMemory || GetParam() == Backend::kFlatMemory) {
    GTEST_SKIP() << "memory backends are not persistent";
  }
  table_->Put("persist", BytesFromString("me")).ok();
  table_->Put("gone", BytesFromString("soon")).ok();
  table_->Delete("gone").ok();
  table_->Flush().ok();
  table_ = MakeTable();  // reopen from disk
  EXPECT_EQ(table_->Get("persist").value(), BytesFromString("me"));
  EXPECT_FALSE(table_->Contains("gone"));
  EXPECT_EQ(table_->Size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, TableTest,
                         ::testing::Values(Backend::kKvMemory,
                                           Backend::kKvDisk,
                                           Backend::kFlatMemory,
                                           Backend::kFlatDisk),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                           switch (info.param) {
                             case Backend::kKvMemory:
                               return "KvMemory";
                             case Backend::kKvDisk:
                               return "KvDisk";
                             case Backend::kFlatMemory:
                               return "FlatMemory";
                             case Backend::kFlatDisk:
                               return "FlatDisk";
                           }
                           return "Unknown";
                         });

TEST(KvStoreTest, RecoversFromTornTail) {
  std::string path = TempPath("torn");
  KvStore::RemoveFiles(path);
  {
    auto store = KvStore::Open({.path = path}).value();
    store->Put("a", BytesFromString("1")).ok();
    store->Put("b", BytesFromString("2")).ok();
    store->Flush().ok();
  }
  // Append garbage simulating a torn write (crash mid-record).
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write("\x01\x00\x00", 3);
  }
  auto store = KvStore::Open({.path = path});
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store.value()->Get("a").value(), BytesFromString("1"));
  EXPECT_EQ(store.value()->Get("b").value(), BytesFromString("2"));
  EXPECT_EQ(store.value()->Size(), 2u);
  // New writes after recovery land on a clean log.
  store.value()->Put("c", BytesFromString("3")).ok();
  store.value()->Flush().ok();
  auto again = KvStore::Open({.path = path});
  EXPECT_EQ(again.value()->Size(), 3u);
  KvStore::RemoveFiles(path);
}

TEST(KvStoreTest, DetectsCorruptRecordMidLog) {
  std::string path = TempPath("corrupt");
  KvStore::RemoveFiles(path);
  {
    auto store = KvStore::Open({.path = path}).value();
    store->Put("first", BytesFromString("ok")).ok();
    store->Put("second", BytesFromString("damaged")).ok();
    store->Flush().ok();
  }
  // Flip a byte inside the second record's value.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-3, std::ios::end);
    f.put('X');
  }
  auto store = KvStore::Open({.path = path});
  ASSERT_TRUE(store.ok());
  // First record survives; corrupt tail is dropped.
  EXPECT_TRUE(store.value()->Contains("first"));
  EXPECT_FALSE(store.value()->Contains("second"));
  KvStore::RemoveFiles(path);
}

TEST(KvStoreTest, CompactionDropsDeadRecords) {
  std::string path = TempPath("compact");
  KvStore::RemoveFiles(path);
  auto store = KvStore::Open({.path = path}).value();
  for (int i = 0; i < 10; ++i) {
    store->Put("key", BytesFromString(std::to_string(i))).ok();
  }
  store->Put("other", BytesFromString("live")).ok();
  store->Delete("other").ok();
  EXPECT_EQ(store->log_records(), 12u);
  auto dropped = store->Compact();
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(dropped.value(), 11u);
  EXPECT_EQ(store->log_records(), 1u);
  EXPECT_EQ(store->Get("key").value(), BytesFromString("9"));
  // Store still writable and recoverable after compaction.
  store->Put("post", BytesFromString("compact")).ok();
  store->Flush().ok();
  auto reopened = KvStore::Open({.path = path});
  EXPECT_EQ(reopened.value()->Size(), 2u);
  KvStore::RemoveFiles(path);
}

TEST(FlatFileTest, HumanReadableFormat) {
  std::string path = TempPath("flatfmt");
  KvStore::RemoveFiles(path);
  auto store = FlatFileStore::Open({.path = path}).value();
  store->Put("key", BytesFromString("value")).ok();
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "6b6579\t76616c7565");
  KvStore::RemoveFiles(path);
}

TEST(FlatFileTest, RejectsCorruptFile) {
  std::string path = TempPath("flatbad");
  {
    std::ofstream out(path);
    out << "not-a-valid-line\n";
  }
  EXPECT_FALSE(FlatFileStore::Open({.path = path}).ok());
  KvStore::RemoveFiles(path);
}

// --- MessageDb ---

class MessageDbTest : public ::testing::Test {
 protected:
  MessageDbTest()
      : table_(KvStore::Open({.path = ""}).value()), db_(table_.get()) {}

  /// A fresh message: every call draws its own nonce, as devices do.
  StoredMessage Make(const std::string& attr, const std::string& payload) {
    StoredMessage m;
    m.u = BytesFromString("rP-" + payload);
    m.ciphertext = BytesFromString(payload);
    m.attribute = attr;
    m.nonce = BytesFromString("nonce-" + std::to_string(++nonces_));
    m.device_id = "SD-1";
    m.timestamp_micros = 1234567;
    return m;
  }

  /// Appends one message and returns its id.
  uint64_t Append(const StoredMessage& m) {
    return db_.Append({m}).value().front().id;
  }

  std::unique_ptr<KvStore> table_;
  MessageDb db_;
  int nonces_ = 0;
};

TEST_F(MessageDbTest, AppendAssignsSequentialIds) {
  EXPECT_EQ(Append(Make("A1", "m1")), 1u);
  EXPECT_EQ(Append(Make("A1", "m2")), 2u);
  EXPECT_EQ(Append(Make("A2", "m3")), 3u);
  EXPECT_EQ(db_.Count(), 3u);
}

TEST_F(MessageDbTest, RoundTripAllFields) {
  StoredMessage m = Make("ELECTRIC-APT-SV-CA", "ciphertext-bytes");
  uint64_t id = Append(m);
  StoredMessage got = db_.Get(id).value();
  EXPECT_EQ(got.id, id);
  EXPECT_EQ(got.u, m.u);
  EXPECT_EQ(got.ciphertext, m.ciphertext);
  EXPECT_EQ(got.attribute, m.attribute);
  EXPECT_EQ(got.nonce, m.nonce);
  EXPECT_EQ(got.device_id, m.device_id);
  EXPECT_EQ(got.timestamp_micros, m.timestamp_micros);
}

TEST_F(MessageDbTest, FindByAttribute) {
  Append(Make("A1", "m1"));
  Append(Make("A2", "m2"));
  Append(Make("A1", "m3"));
  auto a1 = db_.FindByAttribute("A1").value();
  ASSERT_EQ(a1.size(), 2u);
  EXPECT_EQ(a1[0].ciphertext, BytesFromString("m1"));
  EXPECT_EQ(a1[1].ciphertext, BytesFromString("m3"));
  EXPECT_TRUE(db_.FindByAttribute("A9").value().empty());
}

TEST_F(MessageDbTest, AttributePrefixesDoNotCollide) {
  // "A1" must not match "A10" (index key framing).
  Append(Make("A1", "m1"));
  Append(Make("A10", "m2"));
  EXPECT_EQ(db_.FindByAttribute("A1").value().size(), 1u);
  EXPECT_EQ(db_.FindByAttribute("A10").value().size(), 1u);
}

TEST_F(MessageDbTest, IncrementalFetchAfterId) {
  Append(Make("A1", "m1"));
  Append(Make("A1", "m2"));
  uint64_t id3 = Append(Make("A1", "m3"));
  EXPECT_EQ(db_.IdsByAttributeAfter("A1", 2), std::vector<uint64_t>{id3});
}

TEST_F(MessageDbTest, RestampedRetransmitIsADedupHit) {
  // A device stamps every send afresh, so a retransmit after a lost ack
  // carries a later timestamp than the stored original.
  StoredMessage original = Make("A1", "m1");
  original.timestamp_micros = 100;
  ASSERT_EQ(Append(original), 1u);
  StoredMessage resent = original;
  resent.timestamp_micros = 200;
  auto outcome = db_.Append({resent}).value().front();
  EXPECT_EQ(outcome.id, 1u);
  EXPECT_TRUE(outcome.deduplicated);
  // The original record and its one time-index entry stand.
  EXPECT_EQ(db_.Get(1)->timestamp_micros, 100);
  EXPECT_EQ(db_.IdsByAttributeInTimeRange("A1", 0, 1000),
            std::vector<uint64_t>{1});
  // So retention leaves no time-index entry naming a pruned record.
  ASSERT_EQ(db_.PruneThrough(1).value(), 1u);
  EXPECT_TRUE(db_.IdsByAttributeInTimeRange("A1", 0, 1000).empty());
}

TEST_F(MessageDbTest, RetransmitUnderAnotherAttributeIsADedupHit) {
  // A device that reuses a nonce under another attribute: the stored
  // record stands, as when any other field differs.
  StoredMessage original = Make("A1", "m1");
  ASSERT_EQ(Append(original), 1u);
  StoredMessage reused = original;
  reused.attribute = "A2";
  auto outcome = db_.Append({reused}).value().front();
  EXPECT_EQ(outcome.id, 1u);
  EXPECT_TRUE(outcome.deduplicated);
  // The original's index entry still resolves.
  EXPECT_EQ(db_.IdsByAttributeAfter("A1", 0), std::vector<uint64_t>{1});
  ASSERT_TRUE(db_.Get(1).ok());
  EXPECT_EQ(db_.Get(1)->attribute, "A1");
  EXPECT_TRUE(db_.IdsByAttributeAfter("A2", 0).empty());
  EXPECT_EQ(db_.Count(), 1u);
}

TEST_F(MessageDbTest, GetMissingIsNotFound) {
  EXPECT_TRUE(db_.Get(99).status().IsNotFound());
}

TEST_F(MessageDbTest, DistinctAttributes) {
  Append(Make("B", "m1"));
  Append(Make("A", "m2"));
  Append(Make("B", "m3"));
  auto attrs = db_.DistinctAttributes();
  ASSERT_EQ(attrs.size(), 2u);
  EXPECT_EQ(attrs[0], "A");
  EXPECT_EQ(attrs[1], "B");
}

TEST_F(MessageDbTest, TimeRangeQueries) {
  auto make_at = [&](int64_t ts) {
    StoredMessage m = Make("A1", "reading@" + std::to_string(ts));
    m.timestamp_micros = ts;
    return m;
  };
  constexpr int64_t kDay = 86'400'000'000ll;
  // A month of daily readings (timestamps out of insertion order).
  for (int64_t day : {5, 1, 20, 10, 15, 25, 30}) {
    Append(make_at(day * kDay));
  }
  auto timestamps = [&](const std::vector<uint64_t>& ids) {
    std::vector<int64_t> out;
    for (uint64_t id : ids) out.push_back(db_.Get(id)->timestamp_micros);
    return out;
  };
  // Billing period: days [10, 25). Ids come back in timestamp order.
  EXPECT_EQ(timestamps(db_.IdsByAttributeInTimeRange("A1", 10 * kDay,
                                                     25 * kDay)),
            (std::vector<int64_t>{10 * kDay, 15 * kDay, 20 * kDay}));
  // Bounds: inclusive lower, exclusive upper.
  EXPECT_EQ(db_.IdsByAttributeInTimeRange("A1", 5 * kDay, 5 * kDay + 1)
                .size(),
            1u);
  // Empty and inverted ranges.
  EXPECT_TRUE(db_.IdsByAttributeInTimeRange("A1", 40, 50).empty());
  EXPECT_TRUE(db_.IdsByAttributeInTimeRange("A1", 50, 40).empty());
  // Other attributes unaffected.
  EXPECT_TRUE(db_.IdsByAttributeInTimeRange("A2", 0, 100 * kDay).empty());
}

/// A Table whose PutBatch applies entries one at a time in reverse order
/// — a cross-key order KvStore may use, since it applies a batch shard
/// by shard — and runs `after_each` after every entry lands.
class ReversedBatchTable : public Table {
 public:
  explicit ReversedBatchTable(Table* base) : base_(base) {}

  std::function<void()> after_each;

  util::Status Put(const std::string& key, const Bytes& value) override {
    return base_->Put(key, value);
  }
  util::Status PutBatch(
      const std::vector<std::pair<std::string, Bytes>>& entries) override {
    for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
      MWS_RETURN_IF_ERROR(base_->Put(it->first, it->second));
      if (after_each) after_each();
    }
    return util::Status::Ok();
  }
  util::Result<Bytes> Get(const std::string& key) const override {
    return base_->Get(key);
  }
  util::Status Delete(const std::string& key) override {
    return base_->Delete(key);
  }
  bool Contains(const std::string& key) const override {
    return base_->Contains(key);
  }
  std::vector<std::pair<std::string, Bytes>> Scan(
      const std::string& prefix) const override {
    return base_->Scan(prefix);
  }
  size_t Size() const override { return base_->Size(); }
  util::Status Flush() override { return base_->Flush(); }

 private:
  Table* base_;
};

TEST(MessageDbBatchOrderTest, IndexNeverNamesAMissingRecord) {
  // A reader listing ids through either index must find every record,
  // at every point inside a batch append.
  auto base = KvStore::Open({.path = ""}).value();
  ReversedBatchTable table(base.get());
  MessageDb db(&table);
  size_t checks = 0;
  size_t orphans = 0;
  table.after_each = [&] {
    ++checks;
    for (uint64_t id : db.IdsByAttributeAfter("A1", 0)) {
      if (!db.Get(id).ok()) ++orphans;
    }
    for (uint64_t id : db.IdsByAttributeInTimeRange(
             "A1", 0, std::numeric_limits<int64_t>::max())) {
      if (!db.Get(id).ok()) ++orphans;
    }
  };
  std::vector<StoredMessage> batch(4);
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i].u = BytesFromString("rP");
    batch[i].ciphertext = BytesFromString("m" + std::to_string(i));
    batch[i].attribute = "A1";
    batch[i].nonce = BytesFromString("nonce-" + std::to_string(i));
    batch[i].device_id = "SD-1";
    batch[i].timestamp_micros = 1000 + static_cast<int64_t>(i);
  }
  ASSERT_TRUE(db.Append(batch).ok());
  EXPECT_GT(checks, 0u);
  EXPECT_EQ(orphans, 0u) << "an index listed an id before its record";
  EXPECT_EQ(db.IdsByAttributeAfter("A1", 0).size(), batch.size());
}

// --- PolicyDb: reproduces the paper's Table 1 exactly ---

class PolicyDbTest : public ::testing::Test {
 protected:
  PolicyDbTest()
      : table_(KvStore::Open({.path = ""}).value()), db_(table_.get()) {}

  std::unique_ptr<KvStore> table_;
  PolicyDb db_;
};

TEST_F(PolicyDbTest, PaperTable1) {
  // Table 1: IDRC1/A1=1, IDRC1/A2=2, IDRC2/A1=3, IDRC3/A3=4, IDRC4/A4=5.
  EXPECT_EQ(db_.Grant("IDRC1", "A1").value(), 1u);
  EXPECT_EQ(db_.Grant("IDRC1", "A2").value(), 2u);
  EXPECT_EQ(db_.Grant("IDRC2", "A1").value(), 3u);
  EXPECT_EQ(db_.Grant("IDRC3", "A3").value(), 4u);
  EXPECT_EQ(db_.Grant("IDRC4", "A4").value(), 5u);

  auto rows = db_.AllRows().value();
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[0], (PolicyRow{"IDRC1", "A1", 1}));
  EXPECT_EQ(rows[1], (PolicyRow{"IDRC1", "A2", 2}));
  EXPECT_EQ(rows[2], (PolicyRow{"IDRC2", "A1", 3}));
  EXPECT_EQ(rows[3], (PolicyRow{"IDRC3", "A3", 4}));
  EXPECT_EQ(rows[4], (PolicyRow{"IDRC4", "A4", 5}));

  // Same attribute, different identity => different AID (paper's point).
  EXPECT_NE(rows[0].aid, rows[2].aid);
}

TEST_F(PolicyDbTest, GrantRejectsDuplicates) {
  EXPECT_TRUE(db_.Grant("RC", "A").ok());
  auto dup = db_.Grant("RC", "A");
  EXPECT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), util::StatusCode::kAlreadyExists);
}

TEST_F(PolicyDbTest, RowsForIdentity) {
  db_.Grant("RC1", "A1").value();
  db_.Grant("RC1", "A2").value();
  db_.Grant("RC2", "A3").value();
  auto rows = db_.RowsForIdentity("RC1").value();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].attribute, "A1");
  EXPECT_EQ(rows[1].attribute, "A2");
  EXPECT_TRUE(db_.RowsForIdentity("RC9").value().empty());
}

TEST_F(PolicyDbTest, IdentityPrefixesDoNotCollide) {
  db_.Grant("RC1", "A1").value();
  db_.Grant("RC10", "A2").value();
  EXPECT_EQ(db_.RowsForIdentity("RC1").value().size(), 1u);
}

TEST_F(PolicyDbTest, AidLookupAndRevocation) {
  uint64_t aid = db_.Grant("RC1", "A1").value();
  auto row = db_.RowForAid(aid).value();
  EXPECT_EQ(row.identity, "RC1");
  EXPECT_EQ(row.attribute, "A1");
  EXPECT_TRUE(db_.HasAccess("RC1", "A1"));

  EXPECT_TRUE(db_.Revoke("RC1", "A1").ok());
  EXPECT_FALSE(db_.HasAccess("RC1", "A1"));
  EXPECT_TRUE(db_.RowForAid(aid).status().IsNotFound());
  EXPECT_TRUE(db_.Revoke("RC1", "A1").IsNotFound());
}

TEST_F(PolicyDbTest, AidsNeverReusedAfterRevocation) {
  uint64_t aid1 = db_.Grant("RC1", "A1").value();
  db_.Revoke("RC1", "A1").ok();
  uint64_t aid2 = db_.Grant("RC1", "A1").value();
  EXPECT_GT(aid2, aid1);
}

// --- UserDb / DeviceKeyDb ---

TEST(UserDbTest, RegisterGetRemove) {
  auto table = KvStore::Open({.path = ""}).value();
  UserDb db(table.get());
  UserRecord rec{"C-SERVICES", BytesFromString("hash"),
                 BytesFromString("rsa-pub")};
  EXPECT_TRUE(db.Register(rec).ok());
  EXPECT_FALSE(db.Register(rec).ok());  // duplicate
  auto got = db.Get("C-SERVICES").value();
  EXPECT_EQ(got.identity, rec.identity);
  EXPECT_EQ(got.password_hash, rec.password_hash);
  EXPECT_EQ(got.rsa_public_key, rec.rsa_public_key);
  EXPECT_TRUE(db.Get("NOBODY").status().IsNotFound());
  auto ids = db.AllIdentities().value();
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids[0], "C-SERVICES");
  EXPECT_TRUE(db.Remove("C-SERVICES").ok());
  EXPECT_TRUE(db.Remove("C-SERVICES").IsNotFound());
}

TEST(DeviceKeyDbTest, RegisterGetRemove) {
  auto table = KvStore::Open({.path = ""}).value();
  DeviceKeyDb db(table.get());
  EXPECT_TRUE(db.Register("SD-1", BytesFromString("mac-key-1")).ok());
  EXPECT_FALSE(db.Register("SD-1", BytesFromString("other")).ok());
  EXPECT_EQ(db.GetKey("SD-1").value(), BytesFromString("mac-key-1"));
  EXPECT_TRUE(db.GetKey("SD-2").status().IsNotFound());
  EXPECT_EQ(db.Count(), 1u);
  EXPECT_TRUE(db.Remove("SD-1").ok());
  EXPECT_EQ(db.Count(), 0u);
}

TEST(UserDeviceDbTest, ShareOneTableWithoutCollisions) {
  auto table = KvStore::Open({.path = ""}).value();
  UserDb users(table.get());
  DeviceKeyDb devices(table.get());
  users.Register({"X", BytesFromString("h"), BytesFromString("k")}).ok();
  devices.Register("X", BytesFromString("mac")).ok();
  EXPECT_TRUE(users.Get("X").ok());
  EXPECT_TRUE(devices.GetKey("X").ok());
}

// --- Serde primitives used by the stores ---

TEST(SerdeTest, RoundTripAllTypes) {
  util::Writer w;
  w.PutU8(0xab);
  w.PutU16(0x1234);
  w.PutU32(0xdeadbeef);
  w.PutU64(0x0123456789abcdefULL);
  w.PutBytes(BytesFromString("blob"));
  w.PutString("text");
  w.PutRaw(BytesFromString("raw"));
  Bytes data = w.Take();

  util::Reader r(data);
  uint8_t u8;
  uint16_t u16;
  uint32_t u32;
  uint64_t u64;
  Bytes blob, raw;
  std::string text;
  EXPECT_TRUE(r.GetU8(&u8));
  EXPECT_TRUE(r.GetU16(&u16));
  EXPECT_TRUE(r.GetU32(&u32));
  EXPECT_TRUE(r.GetU64(&u64));
  EXPECT_TRUE(r.GetBytes(&blob));
  EXPECT_TRUE(r.GetString(&text));
  EXPECT_TRUE(r.GetRaw(3, &raw));
  EXPECT_TRUE(r.Done());
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u16, 0x1234);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefULL);
  EXPECT_EQ(blob, BytesFromString("blob"));
  EXPECT_EQ(text, "text");
  EXPECT_EQ(raw, BytesFromString("raw"));
}

TEST(SerdeTest, TruncationFailsAndSticks) {
  util::Writer w;
  w.PutU32(7);
  Bytes data = w.Take();
  util::Reader r(data);
  uint64_t v64;
  EXPECT_FALSE(r.GetU64(&v64));
  EXPECT_FALSE(r.ok());
  uint8_t v8;
  EXPECT_FALSE(r.GetU8(&v8));  // sticky failure
  EXPECT_FALSE(r.Done());
}

TEST(SerdeTest, LengthPrefixBeyondInputFails) {
  util::Writer w;
  w.PutU32(1000);  // claims 1000 bytes follow
  util::Reader r(w.data());
  Bytes b;
  EXPECT_FALSE(r.GetBytes(&b));
}

TEST(SerdeTest, DoneDetectsTrailingGarbage) {
  util::Writer w;
  w.PutU8(1);
  w.PutU8(2);
  util::Reader r(w.data());
  uint8_t v;
  EXPECT_TRUE(r.GetU8(&v));
  EXPECT_FALSE(r.Done());
}

TEST(Crc32Test, KnownVector) {
  // CRC-32("123456789") = 0xcbf43926 (IEEE).
  EXPECT_EQ(util::Crc32(BytesFromString("123456789")), 0xcbf43926u);
  EXPECT_EQ(util::Crc32(Bytes{}), 0u);
}

}  // namespace
}  // namespace mws::store
