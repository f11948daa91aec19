// Tests for the sharded warehouse: consistent-hash shard placement, the
// router's id-space / session / cursor algebra, the 1-vs-N equivalence
// property (same client script, byte-identical plaintexts and identical
// per-item outcomes regardless of shard count), per-shard fault
// degradation, and crash-restart of a shard under live traffic with an
// exactly-once audit.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/sharded.h"
#include "src/store/kvstore.h"
#include "src/util/fault.h"
#include "src/wire/messages.h"
#include "src/wire/router.h"

namespace mws {
namespace {

using client::ReceivedMessage;
using sim::ShardedWarehouse;
using util::Bytes;
using util::BytesFromString;
using util::StringFromBytes;
using wire::ShardMap;
using wire::ShardRouter;

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("mwsibe_shard_test_" + name + "_" + std::to_string(::getpid())))
      .string();
}

std::vector<std::string> ZoneAttributes(size_t n) {
  std::vector<std::string> attrs;
  for (size_t a = 0; a < n; ++a) {
    attrs.push_back("ELECTRIC-ZONE-" + std::to_string(a));
  }
  return attrs;
}

// --- ShardMap placement ---

TEST(ShardMapTest, DeterministicAndCoversAllShards) {
  ShardMap a(4), b(4);
  std::set<size_t> seen;
  for (int i = 0; i < 2000; ++i) {
    std::string key = "meter-" + std::to_string(i);
    size_t shard = a.ShardFor(key);
    EXPECT_EQ(shard, b.ShardFor(key)) << key;
    EXPECT_LT(shard, 4u);
    seen.insert(shard);
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(ShardMapTest, SingleShardMapsEverythingToZero) {
  ShardMap map(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(map.ShardFor("k" + std::to_string(i)), 0u);
  }
}

TEST(ShardMapTest, VirtualNodesKeepLoadBalanced) {
  ShardMap map(4);
  std::vector<size_t> load(4, 0);
  constexpr int kKeys = 20000;
  for (int i = 0; i < kKeys; ++i) {
    ++load[map.ShardFor("attribute/" + std::to_string(i))];
  }
  // With 64 vnodes/shard the peak/mean imbalance stays well inside 2x;
  // assert a loose envelope so the test pins "balanced", not one ring.
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_GT(load[s], kKeys / 16) << "shard " << s << " starved";
    EXPECT_LT(load[s], kKeys / 2) << "shard " << s << " overloaded";
  }
}

TEST(ShardMapTest, VersionParticipatesInPlacement) {
  ShardMap v1(4, /*version=*/1), v2(4, /*version=*/2);
  int moved = 0;
  for (int i = 0; i < 2000; ++i) {
    std::string key = "k" + std::to_string(i);
    if (v1.ShardFor(key) != v2.ShardFor(key)) ++moved;
  }
  EXPECT_GT(moved, 0);
}

TEST(ShardMapTest, GrowingTheFleetMovesOnlyToTheNewShard) {
  // Consistent hashing's defining property: adding shard 4 leaves the
  // old shards' ring points in place, so a key either stays put or
  // moves to the NEW shard — and only ~1/5 of keys move at all.
  ShardMap four(4), five(5);
  constexpr int kKeys = 20000;
  int moved = 0;
  for (int i = 0; i < kKeys; ++i) {
    std::string key = "meter/" + std::to_string(i);
    size_t before = four.ShardFor(key);
    size_t after = five.ShardFor(key);
    if (before != after) {
      EXPECT_EQ(after, 4u) << "key moved between old shards: " << key;
      ++moved;
    }
  }
  EXPECT_GT(moved, 0);
  EXPECT_LT(moved, kKeys * 2 / 5);  // ~20% expected; 40% is the alarm line
}

// --- Router id-space and session algebra ---

TEST(RouterAlgebraTest, RouterIdIsInjectiveAndOrderPreserving) {
  constexpr size_t kShards = 4;
  std::set<uint64_t> ids;
  for (size_t shard = 0; shard < kShards; ++shard) {
    uint64_t previous = 0;
    for (uint64_t local = 1; local <= 200; ++local) {
      uint64_t id = ShardRouter::RouterId(local, shard, kShards);
      EXPECT_TRUE(ids.insert(id).second) << "collision at " << id;
      EXPECT_GT(id, previous);
      previous = id;
    }
  }
  // Local id 0 ("no message") is preserved, never remapped onto a shard.
  EXPECT_EQ(ShardRouter::RouterId(0, 3, kShards), 0u);
}

TEST(RouterAlgebraTest, LocalAfterIsTheExactCursorInverse) {
  // LocalAfter(A, s, N) must be the largest local L with
  // RouterId(L) <= A — brute-force the whole small domain.
  for (size_t shards = 1; shards <= 5; ++shards) {
    for (size_t shard = 0; shard < shards; ++shard) {
      for (uint64_t after = 0; after <= 300; ++after) {
        uint64_t expected = 0;
        for (uint64_t local = 1; local <= 400; ++local) {
          if (ShardRouter::RouterId(local, shard, shards) <= after) {
            expected = local;
          }
        }
        EXPECT_EQ(ShardRouter::LocalAfter(after, shard, shards), expected)
            << "after=" << after << " shard=" << shard << " N=" << shards;
      }
    }
  }
}

TEST(RouterAlgebraTest, CompositeSessionRoundTrip) {
  std::vector<Bytes> sessions = {BytesFromString("alpha"), Bytes{},
                                 BytesFromString("gamma-session")};
  Bytes blob = ShardRouter::EncodeCompositeSession(sessions);
  auto decoded = ShardRouter::DecodeCompositeSession(blob, 3);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), sessions);
}

TEST(RouterAlgebraTest, CompositeSessionRejectsMalformedBlobs) {
  std::vector<Bytes> sessions = {BytesFromString("s0"), BytesFromString("s1")};
  Bytes blob = ShardRouter::EncodeCompositeSession(sessions);

  // Wrong shard count (fleet resized between auth and retrieve).
  EXPECT_FALSE(ShardRouter::DecodeCompositeSession(blob, 3).ok());
  // Unknown version byte.
  Bytes bad_version = blob;
  bad_version[0] = 9;
  EXPECT_FALSE(ShardRouter::DecodeCompositeSession(bad_version, 2).ok());
  // Truncation at every byte boundary.
  for (size_t cut = 0; cut < blob.size(); ++cut) {
    Bytes torn(blob.begin(), blob.begin() + cut);
    EXPECT_FALSE(ShardRouter::DecodeCompositeSession(torn, 2).ok())
        << "cut=" << cut;
  }
  // Trailing garbage.
  Bytes padded = blob;
  padded.push_back(0x5a);
  EXPECT_FALSE(ShardRouter::DecodeCompositeSession(padded, 2).ok());
  // A raw (non-composite) gatekeeper session must not parse.
  EXPECT_FALSE(
      ShardRouter::DecodeCompositeSession(BytesFromString("rawsession"), 2)
          .ok());
}

TEST(RouterAlgebraTest, CompositeSessionCountIsCheckedBeforeAllocating) {
  // 9 bytes claiming 0xFFFFFFFF sessions: the count is refused before
  // anything is allocated for it, whether or not a count is expected.
  Bytes bomb = {1, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0};
  for (size_t expected : {size_t{2}, size_t{0}}) {
    auto decoded = ShardRouter::DecodeCompositeSession(bomb, expected);
    EXPECT_TRUE(decoded.status().IsUnauthenticated())
        << "expected=" << expected << ": " << decoded.status();
  }
  // Through the router: a retrieval with that session is refused as
  // unauthenticated before any shard is called.
  wire::InProcessTransport shard0, shard1;
  ShardRouter router(ShardMap(2), {&shard0, &shard1});
  wire::RetrieveChunkRequest request;
  request.session_id = bomb;
  request.max_messages = 8;
  auto response = router.Call("mws.retrieve_chunk", request.Encode());
  EXPECT_TRUE(response.status().IsUnauthenticated()) << response.status();
  EXPECT_EQ(router.shard_calls(0) + router.shard_calls(1), 0u);
}

// --- 1-vs-N equivalence ---

struct ScriptResult {
  std::vector<std::string> plaintexts;            // sorted
  std::vector<std::pair<bool, bool>> outcomes;    // (ok, deduplicated)
  std::vector<uint64_t> retrieved_ids;            // in retrieval order
  size_t stored = 0;
  uint64_t dedup_hits = 0;
};

/// The client script run against a warehouse of `shard_count` shards:
/// batch deposit with an intra-batch retransmit, a full batch replay, a
/// single-shot deposit replayed once, then full retrieve-and-decrypt.
/// Everything a client can observe is captured for comparison.
ScriptResult RunScript(size_t shard_count) {
  ShardedWarehouse::Options options;
  options.shard_count = shard_count;
  auto warehouse = ShardedWarehouse::Create(options).value();
  std::vector<std::string> attrs = ZoneAttributes(8);
  client::ReceivingClient* company =
      warehouse->MakeCompany("CO-1", attrs).value();
  client::SmartDevice* device = warehouse->MakeDevice("SD-1").value();

  std::vector<std::string> payloads;
  wire::DepositBatchRequest batch;
  for (size_t a = 0; a < attrs.size(); ++a) {
    std::string payload = "reading-" + std::to_string(a);
    payloads.push_back(payload);
    batch.items.push_back(
        device->BuildDeposit(attrs[a], BytesFromString(payload)).value());
  }
  // Intra-batch retransmit: same sealed request appended again. The
  // second occurrence must dedup against the first wherever it lands.
  batch.items.push_back(batch.items[0]);

  ScriptResult result;
  Bytes encoded = batch.Encode();
  for (int send = 0; send < 2; ++send) {  // second send = full replay
    auto raw = warehouse->client_transport()->Call("mws.deposit_batch",
                                                   encoded);
    EXPECT_TRUE(raw.ok()) << raw.status().message();
    auto response = wire::DepositBatchResponse::Decode(raw.value()).value();
    for (const auto& item : response.items) {
      result.outcomes.emplace_back(item.ok, item.deduplicated);
    }
  }

  // Single-shot deposit, replayed once: both sends must ack the same id.
  payloads.push_back("single-reading");
  wire::DepositRequest single =
      device->BuildDeposit(attrs[2], BytesFromString("single-reading"))
          .value();
  Bytes single_encoded = single.Encode();
  uint64_t acked_ids[2] = {0, 0};
  for (int send = 0; send < 2; ++send) {
    auto raw =
        warehouse->client_transport()->Call("mws.deposit", single_encoded);
    EXPECT_TRUE(raw.ok()) << raw.status().message();
    acked_ids[send] =
        wire::DepositResponse::Decode(raw.value()).value().message_id;
  }
  EXPECT_EQ(acked_ids[0], acked_ids[1]) << "replay minted a fresh id";

  result.stored = warehouse->TotalStored();
  result.dedup_hits = warehouse->TotalDedupHits();

  auto received = company->FetchAndDecrypt().value();
  for (const ReceivedMessage& m : received) {
    result.retrieved_ids.push_back(m.message_id);
    result.plaintexts.push_back(StringFromBytes(m.plaintext));
  }
  std::sort(result.plaintexts.begin(), result.plaintexts.end());

  // The retrieved plaintext multiset is exactly the deposited payloads.
  std::sort(payloads.begin(), payloads.end());
  EXPECT_EQ(result.plaintexts, payloads);
  // Merged retrieval order is strictly ascending in router-id space.
  EXPECT_TRUE(std::is_sorted(result.retrieved_ids.begin(),
                             result.retrieved_ids.end()));
  EXPECT_EQ(std::set<uint64_t>(result.retrieved_ids.begin(),
                               result.retrieved_ids.end())
                .size(),
            result.retrieved_ids.size());

  if (shard_count > 1) {
    size_t shards_hit = 0;
    for (size_t i = 0; i < shard_count; ++i) {
      if (warehouse->router().shard_calls(i) > 0) ++shards_hit;
    }
    EXPECT_GE(shards_hit, 2u) << "workload never actually sharded";
  }
  return result;
}

TEST(ShardEquivalenceTest, OneShardAndFourShardsAgreeByteForByte) {
  ScriptResult one = RunScript(1);
  ScriptResult four = RunScript(4);
  // Byte-identical plaintexts, identical per-item outcomes (including
  // every dedup decision), identical warehouse totals. Message ids are
  // NOT compared — the router id space is allowed to differ.
  EXPECT_EQ(one.plaintexts, four.plaintexts);
  EXPECT_EQ(one.outcomes, four.outcomes);
  EXPECT_EQ(one.stored, four.stored);
  EXPECT_EQ(one.dedup_hits, four.dedup_hits);
  EXPECT_EQ(one.retrieved_ids.size(), four.retrieved_ids.size());
}

TEST(ShardEquivalenceTest, ChunkedRetrievalMatchesFullAcrossShards) {
  ShardedWarehouse::Options options;
  options.shard_count = 4;
  auto warehouse = ShardedWarehouse::Create(options).value();
  std::vector<std::string> attrs = ZoneAttributes(6);
  client::ReceivingClient* company =
      warehouse->MakeCompany("CO-1", attrs).value();
  client::SmartDevice* device = warehouse->MakeDevice("SD-1").value();

  std::vector<std::pair<ibe::Attribute, Bytes>> readings;
  for (int i = 0; i < 25; ++i) {
    readings.emplace_back(attrs[i % attrs.size()],
                          BytesFromString("r-" + std::to_string(i)));
  }
  auto outcomes = device->DepositMany(readings).value();
  for (const auto& outcome : outcomes) ASSERT_TRUE(outcome.ok());

  auto full = company->FetchAndDecrypt().value();
  // chunk_size 4 < 25/4 per shard forces multi-chunk pagination with
  // trims at merge boundaries — the token must still arrive exactly on
  // the final chunk.
  auto chunked = company->FetchAndDecryptBulk(/*after_id=*/0,
                                              /*from_micros=*/0,
                                              /*to_micros=*/0,
                                              /*chunk_size=*/4).value();
  ASSERT_EQ(full.size(), chunked.size());
  ASSERT_EQ(full.size(), readings.size());
  for (size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(full[i].message_id, chunked[i].message_id);
    EXPECT_EQ(full[i].aid, chunked[i].aid);
    EXPECT_EQ(full[i].plaintext, chunked[i].plaintext);
  }
}

// --- Per-shard fault degradation ---

TEST(ShardFaultTest, DeadShardDegradesToPerItemUnavailable) {
  ShardedWarehouse::Options options;
  options.shard_count = 3;
  options.resilience = true;
  auto warehouse = ShardedWarehouse::Create(options).value();
  std::vector<std::string> attrs = ZoneAttributes(9);
  client::ReceivingClient* company =
      warehouse->MakeCompany("CO-1", attrs).value();
  client::SmartDevice* device = warehouse->MakeDevice("SD-1").value();

  // Pick the victim shard by where the attributes actually live.
  const ShardMap& map = warehouse->router().map();
  size_t victim = map.ShardFor(attrs[0]);
  size_t on_victim = 0;
  for (const auto& attr : attrs) {
    if (map.ShardFor(attr) == victim) ++on_victim;
  }
  ASSERT_GT(on_victim, 0u);
  ASSERT_LT(on_victim, attrs.size()) << "every attribute on one shard";

  wire::DepositBatchRequest batch;
  for (size_t a = 0; a < attrs.size(); ++a) {
    batch.items.push_back(
        device->BuildDeposit(attrs[a],
                             BytesFromString("m-" + std::to_string(a)))
            .value());
  }
  Bytes encoded = batch.Encode();

  warehouse->SetShardDown(victim, true);
  auto raw = warehouse->client_transport()->Call("mws.deposit_batch", encoded);
  ASSERT_TRUE(raw.ok());
  auto degraded = wire::DepositBatchResponse::Decode(raw.value()).value();
  ASSERT_EQ(degraded.items.size(), attrs.size());
  for (size_t a = 0; a < attrs.size(); ++a) {
    if (map.ShardFor(attrs[a]) == victim) {
      EXPECT_FALSE(degraded.items[a].ok);
      util::Status status = wire::DecodeWireError(degraded.items[a].error);
      EXPECT_EQ(status.code(), util::StatusCode::kUnavailable)
          << status.message();
      EXPECT_TRUE(util::IsRetryableCode(status.code()));
    } else {
      EXPECT_TRUE(degraded.items[a].ok) << "healthy shard item failed";
      EXPECT_FALSE(degraded.items[a].deduplicated);
    }
  }
  EXPECT_EQ(warehouse->TotalStored(), attrs.size() - on_victim);

  // Shard returns; the client retries the SAME batch. Previously-acked
  // items dedup, previously-failed items land fresh: exactly-once.
  warehouse->SetShardDown(victim, false);
  raw = warehouse->client_transport()->Call("mws.deposit_batch", encoded);
  ASSERT_TRUE(raw.ok());
  auto retried = wire::DepositBatchResponse::Decode(raw.value()).value();
  for (size_t a = 0; a < attrs.size(); ++a) {
    EXPECT_TRUE(retried.items[a].ok);
    bool was_acked = map.ShardFor(attrs[a]) != victim;
    EXPECT_EQ(retried.items[a].deduplicated, was_acked) << "item " << a;
  }
  EXPECT_EQ(warehouse->TotalStored(), attrs.size());
  EXPECT_EQ(warehouse->TotalDedupHits(), attrs.size() - on_victim);

  // Every message is retrievable exactly once.
  auto received = company->FetchAndDecrypt().value();
  std::set<std::string> unique;
  for (const auto& m : received) unique.insert(StringFromBytes(m.plaintext));
  EXPECT_EQ(received.size(), attrs.size());
  EXPECT_EQ(unique.size(), attrs.size());
}

TEST(ShardFaultTest, TransientDropsAbsorbedBelowTheRouter) {
  ShardedWarehouse::Options options;
  options.shard_count = 3;
  options.resilience = true;
  options.retry.max_attempts = 6;
  // The point here is duplicate-absorption, not budget exhaustion (the
  // retry suite owns that) — so give the budget headroom.
  options.retry.retry_budget = 1000.0;
  auto warehouse = ShardedWarehouse::Create(options).value();
  std::vector<std::string> attrs = ZoneAttributes(6);
  client::ReceivingClient* company =
      warehouse->MakeCompany("CO-1", attrs).value();
  client::SmartDevice* device = warehouse->MakeDevice("SD-1").value();

  // One flaky shard — the one that actually serves attrs[0], so the
  // rule is guaranteed traffic: 30% of its responses vanish after the
  // handler ran, the fault that manufactures duplicate deliveries. The
  // per-shard retry layer replays; shard-local dedup absorbs.
  size_t flaky = warehouse->router().map().ShardFor(attrs[0]);
  warehouse->shard_injector(flaky)->AddRule(
      {.kind = util::FaultKind::kConnectionDrop,
       .pattern = "transport.call/mws.deposit",
       .probability = 0.15,
       .message = "injected response drop"});

  constexpr int kMessages = 30;
  std::set<uint64_t> acked;
  for (int i = 0; i < kMessages; ++i) {
    auto id = device->DepositMessage(attrs[i % attrs.size()],
                                     BytesFromString("p" + std::to_string(i)));
    ASSERT_TRUE(id.ok()) << i << ": " << id.status().message();
    EXPECT_TRUE(acked.insert(id.value()).second) << "duplicate ack id";
  }
  EXPECT_EQ(warehouse->TotalStored(), static_cast<size_t>(kMessages));
  // At least one drop actually fired and was absorbed as a dedup replay.
  EXPECT_GT(warehouse->TotalDedupHits(), 0u);

  auto received = company->FetchAndDecrypt().value();
  std::set<std::string> unique;
  for (const auto& m : received) unique.insert(StringFromBytes(m.plaintext));
  EXPECT_EQ(received.size(), static_cast<size_t>(kMessages));
  EXPECT_EQ(unique.size(), static_cast<size_t>(kMessages));
}

// --- Shard restart under live traffic ---

class ShardRestartTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = TempPath(::testing::UnitTest::GetInstance()
                         ->current_test_info()
                         ->name());
    for (size_t i = 0; i < 4; ++i) {
      store::KvStore::RemoveFiles(base_ + ".s" + std::to_string(i));
    }
  }
  void TearDown() override {
    for (size_t i = 0; i < 4; ++i) {
      store::KvStore::RemoveFiles(base_ + ".s" + std::to_string(i));
    }
  }
  std::string base_;
};

TEST_F(ShardRestartTest, RestartLosesNothingAndResurrectsNothing) {
  ShardedWarehouse::Options options;
  options.shard_count = 2;
  options.store_path_base = base_;
  auto warehouse = ShardedWarehouse::Create(options).value();
  std::vector<std::string> attrs = ZoneAttributes(6);
  client::ReceivingClient* company =
      warehouse->MakeCompany("CO-1", attrs).value();
  client::SmartDevice* device = warehouse->MakeDevice("SD-1").value();

  // Wave 1, acked before the crash.
  wire::DepositBatchRequest wave1;
  for (size_t a = 0; a < attrs.size(); ++a) {
    wave1.items.push_back(
        device->BuildDeposit(attrs[a],
                             BytesFromString("pre-" + std::to_string(a)))
            .value());
  }
  Bytes wave1_encoded = wave1.Encode();
  auto raw =
      warehouse->client_transport()->Call("mws.deposit_batch", wave1_encoded);
  ASSERT_TRUE(raw.ok());
  auto first = wire::DepositBatchResponse::Decode(raw.value()).value();
  std::vector<uint64_t> wave1_ids;
  for (const auto& item : first.items) {
    ASSERT_TRUE(item.ok);
    wave1_ids.push_back(item.message_id);
  }

  // An authenticated session from before the crash...
  ASSERT_TRUE(company->Authenticate().ok());

  // Both shards crash and recover from their WAL + checkpoint files.
  ASSERT_TRUE(warehouse->RestartShard(0).ok());
  ASSERT_TRUE(warehouse->RestartShard(1).ok());

  // ...does not survive it: gatekeeper sessions are process-local.
  EXPECT_FALSE(company->Retrieve(0).ok());

  // The device replays wave 1 (it never saw a crash, only silence):
  // every item dedups against the recovered markers with its original
  // id — nothing lost, nothing double-stored.
  raw = warehouse->client_transport()->Call("mws.deposit_batch",
                                            wave1_encoded);
  ASSERT_TRUE(raw.ok());
  auto replay = wire::DepositBatchResponse::Decode(raw.value()).value();
  ASSERT_EQ(replay.items.size(), wave1_ids.size());
  for (size_t a = 0; a < replay.items.size(); ++a) {
    EXPECT_TRUE(replay.items[a].ok);
    EXPECT_TRUE(replay.items[a].deduplicated) << "item " << a;
    EXPECT_EQ(replay.items[a].message_id, wave1_ids[a]) << "item " << a;
  }

  // Wave 2, deposited on the recovered fleet, mints fresh ids above the
  // recovered counters.
  wire::DepositBatchRequest wave2;
  for (size_t a = 0; a < attrs.size(); ++a) {
    wave2.items.push_back(
        device->BuildDeposit(attrs[a],
                             BytesFromString("post-" + std::to_string(a)))
            .value());
  }
  raw = warehouse->client_transport()->Call("mws.deposit_batch",
                                            wave2.Encode());
  ASSERT_TRUE(raw.ok());
  auto second = wire::DepositBatchResponse::Decode(raw.value()).value();
  for (const auto& item : second.items) {
    ASSERT_TRUE(item.ok);
    EXPECT_FALSE(item.deduplicated);
    EXPECT_EQ(std::count(wave1_ids.begin(), wave1_ids.end(),
                         item.message_id),
              0)
        << "fresh deposit reused a pre-crash id";
  }

  EXPECT_EQ(warehouse->TotalStored(), attrs.size() * 2);

  // Exactly-once, end to end: a fresh retrieval decrypts each payload
  // exactly once.
  auto received = company->FetchAndDecrypt().value();
  std::set<std::string> unique;
  for (const auto& m : received) unique.insert(StringFromBytes(m.plaintext));
  EXPECT_EQ(received.size(), attrs.size() * 2);
  EXPECT_EQ(unique.size(), attrs.size() * 2);
}

TEST_F(ShardRestartTest, CompactedShardRecoversUnderRouter) {
  // Deposit through the router with aggressive auto-compaction plus a
  // retention prune, restart a shard, and verify the fleet still serves
  // the full live set — the checkpoint/WAL recovery path exercised in
  // its deployment position rather than on a bare store.
  ShardedWarehouse::Options options;
  options.shard_count = 2;
  options.store_path_base = base_;
  options.compact_threshold_bytes = 16 * 1024;
  auto warehouse = ShardedWarehouse::Create(options).value();
  std::vector<std::string> attrs = ZoneAttributes(4);
  client::ReceivingClient* company =
      warehouse->MakeCompany("CO-1", attrs).value();
  client::SmartDevice* device = warehouse->MakeDevice("SD-1").value();

  std::vector<std::pair<ibe::Attribute, Bytes>> readings;
  for (int i = 0; i < 40; ++i) {
    readings.emplace_back(attrs[i % attrs.size()],
                          BytesFromString("live-" + std::to_string(i)));
  }
  auto outcomes = device->DepositMany(readings).value();
  std::vector<uint64_t> ids;
  for (const auto& outcome : outcomes) {
    ASSERT_TRUE(outcome.ok());
    ids.push_back(outcome.value());
  }
  // Retention: consume the first half of the stream, then prune it.
  std::sort(ids.begin(), ids.end());
  uint64_t horizon = ids[ids.size() / 2 - 1];
  auto pruned = warehouse->PruneThrough(horizon);
  ASSERT_TRUE(pruned.ok());
  EXPECT_EQ(pruned.value(), ids.size() / 2);
  ASSERT_TRUE(warehouse->CompactAll().ok());

  ASSERT_TRUE(warehouse->RestartShard(0).ok());
  ASSERT_TRUE(warehouse->RestartShard(1).ok());

  EXPECT_EQ(warehouse->TotalStored(), ids.size() / 2);
  auto received = company->FetchAndDecrypt().value();
  EXPECT_EQ(received.size(), ids.size() / 2);
  std::set<std::string> unique;
  for (const auto& m : received) unique.insert(StringFromBytes(m.plaintext));
  EXPECT_EQ(unique.size(), ids.size() / 2);
  // The pruned (tombstoned) half stays gone after checkpoint recovery.
  for (const auto& m : received) {
    EXPECT_GT(m.message_id, horizon);
  }
}

}  // namespace
}  // namespace mws
