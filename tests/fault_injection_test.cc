// Failure-injection tests: the shared store::FaultyTable decorator
// (src/store/faulty_table.h) wraps the typed databases and the MWS
// service, verifying that storage failures surface as Status errors
// (never crashes), that the databases stay consistent after a failed
// multi-key operation, and that the seeded util::FaultInjector drives
// deterministic fault schedules — including torn writes, the
// applied-but-acked-as-failed shape that at-least-once dedup absorbs.

#include <gtest/gtest.h>

#include "src/crypto/hmac.h"
#include "src/mws/mws_service.h"
#include "src/store/faulty_table.h"
#include "src/store/kvstore.h"
#include "src/store/message_db.h"
#include "src/store/policy_db.h"
#include "src/util/clock.h"
#include "src/util/fault.h"

namespace mws::store {
namespace {

using util::Bytes;
using util::BytesFromString;

StoredMessage SampleMessage() {
  StoredMessage m;
  m.u = Bytes(10, 1);
  m.ciphertext = Bytes(10, 2);
  m.attribute = "A";
  m.nonce = Bytes(16, 3);
  m.device_id = "SD";
  return m;
}

/// Appends one message.
util::Result<MessageDb::AppendOutcome> AppendOne(MessageDb& db,
                                                 const StoredMessage& m) {
  MWS_ASSIGN_OR_RETURN(std::vector<MessageDb::AppendOutcome> outcomes,
                       db.Append({m}));
  return outcomes.front();
}

/// Applies a PutBatch last entry first, as a table may apply one batch
/// in any cross-key order (KvStore goes shard by shard).
class ReversingTable : public Table {
 public:
  explicit ReversingTable(Table* base) : base_(base) {}

  util::Status Put(const std::string& key, const Bytes& value) override {
    return base_->Put(key, value);
  }
  util::Status PutBatch(
      const std::vector<std::pair<std::string, Bytes>>& entries) override {
    for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
      MWS_RETURN_IF_ERROR(base_->Put(it->first, it->second));
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

class FaultInjectionTest : public ::testing::Test {
 protected:
  FaultInjectionTest()
      : base_(KvStore::Open({.path = ""}).value()),
        injector_(/*seed=*/7),
        faulty_(base_.get(), &injector_) {}

  std::unique_ptr<KvStore> base_;
  util::FaultInjector injector_;
  FaultyTable faulty_;
};

TEST_F(FaultInjectionTest, MessageDbAppendPropagatesFailure) {
  MessageDb db(&faulty_);
  StoredMessage m = SampleMessage();

  faulty_.FailWritesAfter(0);
  auto result = AppendOne(db, m);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kIoError);

  // After healing, appends work. The failed append's id 1 is abandoned:
  // never issued again and never listed.
  faulty_.Heal();
  auto healed = AppendOne(db, m);
  ASSERT_TRUE(healed.ok()) << healed.status();
  EXPECT_EQ(healed->id, 2u);
  EXPECT_FALSE(healed->deduplicated);
  EXPECT_TRUE(db.Get(1).status().IsNotFound());
  EXPECT_EQ(db.IdsByAttributeAfter("A", 0), std::vector<uint64_t>{2});
}

TEST_F(FaultInjectionTest, MessageDbPartialAppendDoesNotCorruptReads) {
  MessageDb db(&faulty_);
  ASSERT_TRUE(AppendOne(db, SampleMessage()).ok());

  // A second message; fail its index write, the fourth of the append's
  // writes (counter, marker, record, index).
  StoredMessage second = SampleMessage();
  second.nonce = Bytes(16, 4);
  faulty_.FailWritesAfter(3);
  EXPECT_FALSE(AppendOne(db, second).ok());
  faulty_.Heal();

  // The first message is still fully readable; a dangling record may
  // exist but must not break queries.
  auto visible = db.FindByAttribute("A");
  ASSERT_TRUE(visible.ok());
  EXPECT_GE(visible->size(), 1u);
  EXPECT_EQ(visible->at(0).id, 1u);
}

TEST_F(FaultInjectionTest, DiskFullFailsWithoutApplyingAndIsCounted) {
  MessageDb db(&faulty_);
  injector_.AddRule({.kind = util::FaultKind::kDiskFull,
                     .pattern = "table.",
                     .nth = 1,
                     .code = util::StatusCode::kResourceExhausted,
                     .message = "store volume full"});

  auto result = AppendOne(db, SampleMessage());
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kResourceExhausted);
  EXPECT_EQ(faulty_.disk_full_faults(), 1u);

  // Unlike a torn write, nothing was applied: the retried append is a
  // fresh store (not a dedup hit) and exactly one copy exists. The
  // failed append's id 1 is abandoned, never issued and never listed.
  auto outcome = AppendOne(db, SampleMessage());
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->id, 2u);
  EXPECT_FALSE(outcome->deduplicated);
  EXPECT_TRUE(db.Get(1).status().IsNotFound());
  EXPECT_EQ(db.IdsByAttributeAfter("A", 0), std::vector<uint64_t>{2});
}

TEST_F(FaultInjectionTest, PolicyDbGrantPropagatesFailure) {
  PolicyDb db(&faulty_);
  faulty_.FailWritesAfter(0);
  EXPECT_FALSE(db.Grant("RC", "A").ok());
  faulty_.Heal();
  EXPECT_TRUE(db.Grant("RC", "A").ok());
  EXPECT_TRUE(db.HasAccess("RC", "A"));
}

TEST_F(FaultInjectionTest, PolicyDbRevokeMidFailureStaysQueryable) {
  PolicyDb db(&faulty_);
  uint64_t aid = db.Grant("RC", "A").value();
  // Fail the second delete (the AID row).
  faulty_.FailWritesAfter(1);
  auto status = db.Revoke("RC", "A");
  EXPECT_FALSE(status.ok());
  faulty_.Heal();
  // The grant row is gone; access is already revoked (fail-closed), and
  // re-granting produces a fresh AID.
  EXPECT_FALSE(db.HasAccess("RC", "A"));
  uint64_t aid2 = db.Grant("RC", "A").value();
  EXPECT_GT(aid2, aid);
}

TEST_F(FaultInjectionTest, MwsDepositSurfacesStorageErrors) {
  util::SimulatedClock clock(1'000'000);
  util::DeterministicRandom rng(1);
  mws::MwsService service(&faulty_, Bytes(32, 1), &clock, &rng);
  Bytes mac_key(32, 9);
  ASSERT_TRUE(service.RegisterDevice("SD-1", mac_key).ok());

  wire::DepositRequest request;
  request.u = BytesFromString("u");
  request.ciphertext = BytesFromString("c");
  request.attribute = "A1";
  request.nonce = Bytes(16, 0);
  request.device_id = "SD-1";
  request.timestamp_micros = clock.NowMicros();
  request.mac = crypto::HmacSha256(mac_key, request.AuthenticatedBytes());

  faulty_.FailWritesAfter(0);
  auto result = service.Deposit(request);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kIoError);
  faulty_.Heal();
  EXPECT_TRUE(service.Deposit(request).ok());
}

// --- Injector-driven faults ---

TEST_F(FaultInjectionTest, NthTriggerFiresExactlyOnce) {
  injector_.AddRule({.kind = util::FaultKind::kError,
                     .pattern = "table.put/",
                     .nth = 2,
                     .code = util::StatusCode::kUnavailable});
  EXPECT_TRUE(faulty_.Put("k1", BytesFromString("v")).ok());
  auto second = faulty_.Put("k2", BytesFromString("v"));
  EXPECT_TRUE(second.IsUnavailable()) << second.ToString();
  // kError never applied the write.
  EXPECT_FALSE(base_->Contains("k2"));
  // Spent: every later matching call proceeds.
  EXPECT_TRUE(faulty_.Put("k3", BytesFromString("v")).ok());
  EXPECT_EQ(injector_.fired(), 1u);
}

TEST_F(FaultInjectionTest, PatternScopesFaultsToMatchingOperations) {
  injector_.AddRule({.kind = util::FaultKind::kError,
                     .pattern = "table.delete/",
                     .nth = 1});
  EXPECT_TRUE(faulty_.Put("k", BytesFromString("v")).ok());
  EXPECT_FALSE(faulty_.Delete("k").ok());  // first delete faulted
  EXPECT_TRUE(base_->Contains("k"));
  EXPECT_TRUE(faulty_.Delete("k").ok());
}

TEST_F(FaultInjectionTest, TornWriteAppliesThenReportsFailure) {
  injector_.AddRule({.kind = util::FaultKind::kTornWrite,
                     .pattern = "table.put/",
                     .nth = 1});
  auto status = faulty_.Put("torn", BytesFromString("v"));
  EXPECT_TRUE(status.IsUnavailable()) << status.ToString();
  // The write went through even though the caller saw a failure — the
  // lost-ack shape that forces retries to dedupe.
  EXPECT_TRUE(base_->Contains("torn"));
  EXPECT_EQ(faulty_.torn_writes(), 1u);
}

TEST_F(FaultInjectionTest, SameSeedSameFaultSchedule) {
  auto schedule = [](uint64_t seed) {
    util::FaultInjector injector(seed);
    injector.AddRule({.kind = util::FaultKind::kError,
                      .pattern = "",
                      .probability = 0.3});
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(injector.Evaluate("op").has_value());
    }
    return fired;
  };
  EXPECT_EQ(schedule(11), schedule(11));
  EXPECT_NE(schedule(11), schedule(12));
}

TEST_F(FaultInjectionTest, TornAppendDedupedResumesReservedId) {
  MessageDb db(&faulty_);
  StoredMessage m = SampleMessage();

  // Tear the attribute-index put (the writes go counter, marker,
  // record, attribute-index then time-index keys): applied but acked as
  // failed. Once the index key landed a cursor may have delivered id 1.
  injector_.AddRule({.kind = util::FaultKind::kTornWrite,
                     .pattern = "table.put/x/",
                     .nth = 1});
  EXPECT_FALSE(AppendOne(db, m).ok());

  // The retransmit resumes the reserved id instead of double-storing.
  auto second = AppendOne(db, m);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->id, 1u);
  EXPECT_FALSE(second->deduplicated);
  auto visible = db.FindByAttribute("A");
  ASSERT_TRUE(visible.ok());
  EXPECT_EQ(visible->size(), 1u);
  EXPECT_EQ(visible->at(0).id, second->id);
  EXPECT_EQ(db.IdsByAttributeInTimeRange("A", 0, 1),
            std::vector<uint64_t>{1});
}

TEST_F(FaultInjectionTest, TornAppendBeforeIndexTakesAFreshId) {
  MessageDb db(&faulty_);
  StoredMessage m = SampleMessage();

  // Tear the message-record put: the marker names id 1 and its record
  // landed, but no index key did. A cursor may have passed id 1.
  injector_.AddRule({.kind = util::FaultKind::kTornWrite,
                     .pattern = "table.put/m/",
                     .nth = 1});
  EXPECT_FALSE(AppendOne(db, m).ok());
  ASSERT_TRUE(db.Get(1).ok());

  // The retransmit stores the message once, under a fresh id above
  // every cursor, and drops the orphaned record so Count() stays exact.
  auto second = AppendOne(db, m);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->id, 2u);
  EXPECT_FALSE(second->deduplicated);
  EXPECT_TRUE(db.Get(1).status().IsNotFound());
  EXPECT_EQ(db.Count(), 1u);
  EXPECT_EQ(db.IdsByAttributeAfter("A", 0), std::vector<uint64_t>{2});

  // Its marker now names the fresh id: a further retransmit dedups.
  auto third = AppendOne(db, m);
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(third->deduplicated);
  EXPECT_EQ(third->id, 2u);
}

TEST_F(FaultInjectionTest, TimeIndexNeverLandsWithoutTheAttributeIndex) {
  // Fail the attribute-index put of an append whose batches apply last
  // entry first.
  ReversingTable table(&faulty_);
  MessageDb db(&table);
  StoredMessage m = SampleMessage();
  injector_.AddRule({.kind = util::FaultKind::kError,
                     .pattern = "table.put/x/",
                     .nth = 1});
  EXPECT_FALSE(AppendOne(db, m).ok());

  // The retransmit abandons id 1, so no time-window reader may have seen
  // it: the window shows the message once, under its fresh id.
  EXPECT_TRUE(db.IdsByAttributeInTimeRange("A", 0, 1).empty());
  auto second = AppendOne(db, m);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->id, 2u);
  EXPECT_EQ(db.IdsByAttributeInTimeRange("A", 0, 1),
            std::vector<uint64_t>{2});
  EXPECT_EQ(db.Count(), 1u);
}

TEST_F(FaultInjectionTest, ReopenedStoreNeverReissuesAReservedId) {
  // Device A's append reserves id 1 (its marker lands), then fails
  // before its record does, and the process dies. A reopened store must
  // not hand id 1 to device B, or A's retry would resume id 1 and
  // overwrite B's acked message.
  injector_.AddRule({.kind = util::FaultKind::kError,
                     .pattern = "table.put/m/",
                     .nth = 1});
  StoredMessage a = SampleMessage();
  a.ciphertext = BytesFromString("device A");
  a.device_id = "SD-A";
  a.timestamp_micros = 100;
  {
    MessageDb before_crash(&faulty_);
    ASSERT_FALSE(AppendOne(before_crash, a).ok());
  }

  MessageDb db(&faulty_);
  StoredMessage b = SampleMessage();
  b.ciphertext = BytesFromString("device B");
  b.device_id = "SD-B";
  b.timestamp_micros = 200;
  auto b_id = AppendOne(db, b);
  ASSERT_TRUE(b_id.ok()) << b_id.status();
  auto a_id = AppendOne(db, a);
  ASSERT_TRUE(a_id.ok()) << a_id.status();

  EXPECT_NE(a_id->id, b_id->id);
  EXPECT_EQ(db.Get(b_id->id)->ciphertext, b.ciphertext);
  EXPECT_EQ(db.Get(a_id->id)->ciphertext, a.ciphertext);
  EXPECT_EQ(db.Count(), 2u);
}

TEST_F(FaultInjectionTest, CompletedAppendDedupedIsDeduplicated) {
  MessageDb db(&faulty_);
  StoredMessage m = SampleMessage();
  auto first = AppendOne(db, m);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->deduplicated);

  // Retransmit of a fully stored deposit: same id, flagged, not stored
  // twice.
  auto second = AppendOne(db, m);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->deduplicated);
  EXPECT_EQ(second->id, first->id);
  EXPECT_EQ(db.Count(), 1u);
  EXPECT_EQ(db.dedup_hits(), 1u);
}

}  // namespace
}  // namespace mws::store
