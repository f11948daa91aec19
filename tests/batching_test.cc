// Equivalence and concurrency tests for the batch data plane (E17):
// DepositBatch / DepositMany, chunked retrieval, DecryptAll, and the
// pipelined TCP transport. The load-bearing property everywhere is
// *bit-identical equivalence*: the batch paths must produce exactly the
// records and plaintexts of N single-shot calls, including under dedup
// replay and fault-injection interleavings.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/sim/scenario.h"
#include "src/wire/pipeline.h"
#include "src/wire/retry.h"
#include "src/wire/tcp.h"

namespace mws {
namespace {

using util::Bytes;
using util::BytesFromString;
using util::StringFromBytes;

sim::UtilityScenario::Options SmallOptions() {
  sim::UtilityScenario::Options options;
  options.preset = math::ParamPreset::kSmall;
  options.devices_per_class = 1;
  return options;
}

/// Every stored message of the scenario's warehouse, encoded, in id
/// order — the "bit-identical records" witness.
std::vector<Bytes> DumpWarehouse(sim::UtilityScenario& scenario) {
  const store::MessageDb& db = scenario.mws().message_db();
  std::vector<Bytes> out;
  for (const std::string& attribute : db.DistinctAttributes()) {
    auto messages = db.FindByAttribute(attribute);
    EXPECT_TRUE(messages.ok()) << messages.status();
    for (const store::StoredMessage& m : messages.value()) {
      out.push_back(m.Encode());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The retrieve-layer view for one company: every RetrievedMessage,
/// encoded. RetrievedMessage carries id, u, ciphertext, aid, and nonce
/// but no deposit timestamp, so this compares everything the batch path
/// must preserve bit-for-bit while ignoring send-time stamps (a buffered
/// batch is legitimately stamped when the device drains its buffer, and
/// retry backoff advances the simulated clock).
std::vector<Bytes> DumpRetrieved(sim::UtilityScenario& scenario) {
  client::ReceivingClient& rc =
      scenario.company(sim::UtilityScenario::kCServices);
  EXPECT_TRUE(rc.Authenticate().ok());
  auto response = rc.Retrieve();
  EXPECT_TRUE(response.ok()) << response.status();
  std::vector<Bytes> out;
  for (const wire::RetrievedMessage& m : response.value().messages) {
    out.push_back(m.Encode());
  }
  return out;
}

// ---------------------------------------------------------------------
// DepositBatch equivalence

TEST(BatchDepositTest, BatchStoresBitIdenticalRecordsForSameRequests) {
  // Same seed, same requests: scenario A deposits them one by one,
  // scenario B ships the identical requests as one DepositBatch. The
  // stored records — ids, index entries, ciphertexts, MAC-covered
  // fields — must be byte-for-byte equal.
  auto single = sim::UtilityScenario::Create(SmallOptions()).value();
  auto batched = sim::UtilityScenario::Create(SmallOptions()).value();

  constexpr int kMessages = 6;
  wire::DepositBatchRequest batch;
  for (int i = 0; i < kMessages; ++i) {
    const Bytes payload = BytesFromString("payload-" + std::to_string(i));
    auto a = single->devices().front().BuildDeposit(
        sim::UtilityScenario::kElectricAttr, payload);
    ASSERT_TRUE(a.ok()) << a.status();
    auto b = batched->devices().front().BuildDeposit(
        sim::UtilityScenario::kElectricAttr, payload);
    ASSERT_TRUE(b.ok()) << b.status();
    // Same seed, same draws: the two scenarios built identical requests.
    ASSERT_EQ(a.value().Encode(), b.value().Encode());
    ASSERT_TRUE(single->mws().Deposit(a.value()).ok());
    batch.items.push_back(std::move(b).value());
  }
  auto response = batched->mws().DepositBatch(batch);
  ASSERT_TRUE(response.ok()) << response.status();
  for (const auto& item : response->items) ASSERT_TRUE(item.ok);

  EXPECT_EQ(DumpWarehouse(*single), DumpWarehouse(*batched));
}

TEST(BatchDepositTest, BatchFlowMatchesSequentialFlowEndToEnd) {
  // The scenario-level flows: every device either deposits readings one
  // by one or buffers them into a DepositMany batch. Ids, ciphertexts,
  // and decryptable content must match exactly; only the deposit
  // timestamps differ (batch items share the drain time).
  auto sequential = sim::UtilityScenario::Create(SmallOptions());
  ASSERT_TRUE(sequential.ok()) << sequential.status();
  auto batched = sim::UtilityScenario::Create(SmallOptions());
  ASSERT_TRUE(batched.ok()) << batched.status();

  auto n_seq = sequential.value()->DepositReadings(4);
  ASSERT_TRUE(n_seq.ok()) << n_seq.status();
  auto n_batch = batched.value()->DepositReadingsBatch(4);
  ASSERT_TRUE(n_batch.ok()) << n_batch.status();
  EXPECT_EQ(n_seq.value(), n_batch.value());

  EXPECT_EQ(DumpRetrieved(*sequential.value()),
            DumpRetrieved(*batched.value()));
}

TEST(BatchDepositTest, PerItemIdsMatchSequentialAssignment) {
  auto scenario = sim::UtilityScenario::Create(SmallOptions()).value();
  client::SmartDevice& device = scenario->devices().front();
  std::vector<std::pair<ibe::Attribute, Bytes>> readings;
  for (int i = 0; i < 5; ++i) {
    readings.emplace_back(sim::UtilityScenario::kElectricAttr,
                          BytesFromString("reading-" + std::to_string(i)));
  }
  auto outcomes = device.DepositMany(readings);
  ASSERT_TRUE(outcomes.ok()) << outcomes.status();
  ASSERT_EQ(outcomes->size(), readings.size());
  uint64_t expected = 1;
  for (const auto& outcome : outcomes.value()) {
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    EXPECT_EQ(outcome.value(), expected++);
  }
  EXPECT_EQ(device.deposits_sent(), readings.size());
}

TEST(BatchDepositTest, ReplayedBatchDeduplicates) {
  auto scenario = sim::UtilityScenario::Create(SmallOptions()).value();
  client::SmartDevice& device = scenario->devices().front();

  wire::DepositBatchRequest batch;
  for (int i = 0; i < 3; ++i) {
    auto request = device.BuildDeposit(sim::UtilityScenario::kElectricAttr,
                                       BytesFromString("r"));
    ASSERT_TRUE(request.ok()) << request.status();
    batch.items.push_back(std::move(request).value());
  }
  auto first = scenario->mws().DepositBatch(batch);
  ASSERT_TRUE(first.ok()) << first.status();
  std::vector<Bytes> records = DumpWarehouse(*scenario);

  // A device whose ack was lost retransmits the identical batch: every
  // item must come back with its original id and nothing new stored.
  auto replay = scenario->mws().DepositBatch(batch);
  ASSERT_TRUE(replay.ok()) << replay.status();
  for (size_t i = 0; i < batch.items.size(); ++i) {
    ASSERT_TRUE(replay->items[i].ok);
    EXPECT_EQ(replay->items[i].message_id, first->items[i].message_id);
  }
  EXPECT_EQ(DumpWarehouse(*scenario), records);
  EXPECT_GE(scenario->mws().message_db().dedup_hits(), batch.items.size());
}

TEST(BatchDepositTest, IntraBatchDuplicateResolvesToFirstOccurrence) {
  auto scenario = sim::UtilityScenario::Create(SmallOptions()).value();
  client::SmartDevice& device = scenario->devices().front();
  auto request = device.BuildDeposit(sim::UtilityScenario::kElectricAttr,
                                     BytesFromString("r"));
  ASSERT_TRUE(request.ok()) << request.status();

  wire::DepositBatchRequest batch;
  batch.items.push_back(request.value());
  batch.items.push_back(request.value());  // same (device, nonce)
  auto response = scenario->mws().DepositBatch(batch);
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_TRUE(response->items[0].ok);
  ASSERT_TRUE(response->items[1].ok);
  EXPECT_EQ(response->items[0].message_id, response->items[1].message_id);
  EXPECT_EQ(scenario->mws().message_db().Count(), 1u);
}

TEST(BatchDepositTest, BadMacRejectsThatItemOnly) {
  auto scenario = sim::UtilityScenario::Create(SmallOptions()).value();
  client::SmartDevice& device = scenario->devices().front();

  wire::DepositBatchRequest batch;
  for (int i = 0; i < 3; ++i) {
    batch.items.push_back(
        device
            .BuildDeposit(sim::UtilityScenario::kElectricAttr,
                          BytesFromString("r" + std::to_string(i)))
            .value());
  }
  batch.items[1].mac[0] ^= 0xFF;
  auto response = scenario->mws().DepositBatch(batch);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->items[0].ok);
  ASSERT_FALSE(response->items[1].ok);
  EXPECT_EQ(wire::DecodeWireError(response->items[1].error).code(),
            util::StatusCode::kUnauthenticated);
  EXPECT_TRUE(response->items[2].ok);
  EXPECT_EQ(scenario->mws().message_db().Count(), 2u);
}

TEST(BatchDepositTest, ConcurrentBatchesAssignDisjointIds) {
  auto scenario = sim::UtilityScenario::Create(SmallOptions()).value();
  client::SmartDevice& device = scenario->devices().front();

  // Build every request up front (BuildDeposit shares the scenario rng,
  // which is not the unit under test); dispatch the batches in parallel.
  constexpr int kBatches = 4;
  constexpr int kPerBatch = 8;
  std::vector<wire::DepositBatchRequest> batches(kBatches);
  for (int b = 0; b < kBatches; ++b) {
    for (int i = 0; i < kPerBatch; ++i) {
      batches[b].items.push_back(
          device
              .BuildDeposit(sim::UtilityScenario::kElectricAttr,
                            BytesFromString("r"))
              .value());
    }
  }
  std::vector<std::thread> threads;
  std::vector<util::Result<wire::DepositBatchResponse>> responses(
      kBatches, util::Status::Internal("unset"));
  for (int b = 0; b < kBatches; ++b) {
    threads.emplace_back([&, b] {
      responses[b] = scenario->mws().DepositBatch(batches[b]);
    });
  }
  for (std::thread& t : threads) t.join();

  std::vector<uint64_t> ids;
  for (const auto& response : responses) {
    ASSERT_TRUE(response.ok()) << response.status();
    for (const auto& item : response.value().items) {
      ASSERT_TRUE(item.ok);
      ids.push_back(item.message_id);
    }
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end())
      << "duplicate id assigned across concurrent batches";
  EXPECT_EQ(scenario->mws().message_db().Count(),
            static_cast<size_t>(kBatches * kPerBatch));
}

TEST(BatchDepositTest, FaultyTransportReplaysAreAbsorbed) {
  // Response drops force the retry layer to retransmit whole batches;
  // the dedup markers must keep the warehouse byte-identical to a
  // fault-free run of the same requests, stored exactly once.
  sim::UtilityScenario::Options options = SmallOptions();
  options.resilience.enable = true;
  options.resilience.response_drop_rate = 0.3;
  auto faulty_or = sim::UtilityScenario::Create(options);
  ASSERT_TRUE(faulty_or.ok()) << faulty_or.status();
  sim::UtilityScenario& faulty = *faulty_or.value();
  auto clean = sim::UtilityScenario::Create(SmallOptions()).value();

  // Same seed, same draws: both worlds build identical batches up front
  // (retry backoff advances the simulated clock, so anything clock-
  // stamped after the first drop would legitimately diverge).
  wire::DepositBatchRequest faulty_batch;
  wire::DepositBatchRequest clean_batch;
  for (int i = 0; i < 6; ++i) {
    const Bytes payload = BytesFromString("reading-" + std::to_string(i));
    faulty_batch.items.push_back(
        faulty.devices()
            .front()
            .BuildDeposit(sim::UtilityScenario::kElectricAttr, payload)
            .value());
    clean_batch.items.push_back(
        clean->devices()
            .front()
            .BuildDeposit(sim::UtilityScenario::kElectricAttr, payload)
            .value());
    ASSERT_EQ(faulty_batch.items.back().Encode(),
              clean_batch.items.back().Encode());
  }
  ASSERT_TRUE(clean->mws().DepositBatch(clean_batch).ok());

  // Ship the batch through the drop/retry chain several times — an
  // at-least-once client whose acks keep vanishing. Every round must
  // come back fully acknowledged with the original ids.
  const Bytes encoded = faulty_batch.Encode();
  for (int round = 0; round < 3; ++round) {
    auto response =
        faulty.client_transport().Call("mws.deposit_batch", encoded);
    ASSERT_TRUE(response.ok()) << "round " << round << ": "
                               << response.status();
    auto decoded = wire::DepositBatchResponse::Decode(response.value());
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    for (size_t i = 0; i < decoded->items.size(); ++i) {
      ASSERT_TRUE(decoded->items[i].ok);
      EXPECT_EQ(decoded->items[i].message_id, i + 1);
    }
  }

  EXPECT_EQ(DumpWarehouse(faulty), DumpWarehouse(*clean));
  EXPECT_GE(faulty.mws().message_db().dedup_hits(),
            2 * faulty_batch.items.size());
}

// ---------------------------------------------------------------------
// Chunked retrieval + DecryptAll equivalence

TEST(BulkRetrieveTest, ChunkedRetrieveMatchesFullRetrieve) {
  auto scenario = sim::UtilityScenario::Create(SmallOptions()).value();
  // One reading per simulated second, so ids and timestamps both climb.
  const int64_t start = scenario->clock().NowMicros();
  ASSERT_TRUE(scenario->DepositReadings(5).ok());

  client::ReceivingClient& rc =
      scenario->company(sim::UtilityScenario::kCServices);
  ASSERT_TRUE(rc.Authenticate().ok());
  // Every record of one retrieval, encoded; each retrieval ends with a
  // token.
  auto encoded = [](const util::Result<wire::RetrieveResponse>& response) {
    EXPECT_TRUE(response.ok()) << response.status();
    std::vector<Bytes> out;
    if (!response.ok()) return out;
    EXPECT_FALSE(response->token.empty());
    for (const wire::RetrievedMessage& m : response->messages) {
      out.push_back(m.Encode());
    }
    return out;
  };
  std::vector<Bytes> all = encoded(rc.Retrieve());
  ASSERT_GT(all.size(), 4u);
  EXPECT_EQ(encoded(rc.RetrieveChunked(0, 0, 0, /*chunk_size=*/4)), all);

  // A billing window plus a cursor: exactly the records past the cursor
  // whose deposit timestamp falls inside [from, to).
  const uint64_t after_id = 5;
  const int64_t from = start + 3'000'000;
  const int64_t to = start + 12'000'000;
  std::vector<Bytes> expected;
  size_t past_cursor = 0;
  for (const Bytes& record : all) {
    auto m = wire::RetrievedMessage::Decode(record);
    ASSERT_TRUE(m.ok()) << m.status();
    if (m->message_id <= after_id) continue;
    ++past_cursor;
    int64_t ts = scenario->mws().message_db().Get(m->message_id)
                     ->timestamp_micros;
    if (ts >= from && ts < to) expected.push_back(record);
  }
  ASSERT_GT(expected.size(), 0u);
  ASSERT_LT(expected.size(), past_cursor) << "the window should bite";
  EXPECT_EQ(encoded(rc.Retrieve(after_id, from, to)), expected);
  EXPECT_EQ(encoded(rc.RetrieveChunked(after_id, from, to, /*chunk_size=*/4)),
            expected);
}

TEST(BulkRetrieveTest, TokenOnlyOnFinalChunk) {
  auto scenario = sim::UtilityScenario::Create(SmallOptions()).value();
  ASSERT_TRUE(scenario->DepositReadings(5).ok());

  client::ReceivingClient& rc =
      scenario->company(sim::UtilityScenario::kCServices);
  ASSERT_TRUE(rc.Authenticate().ok());
  uint64_t cursor = 0;
  size_t chunks = 0;
  for (;;) {
    auto chunk = rc.RetrieveChunk(cursor, 0, 0, /*max_messages=*/4);
    ASSERT_TRUE(chunk.ok()) << chunk.status();
    ++chunks;
    if (chunk->has_more) {
      EXPECT_TRUE(chunk->token.empty());
      EXPECT_EQ(chunk->messages.size(), 4u);
      ASSERT_GT(chunk->next_after_id, cursor) << "cursor must advance";
      cursor = chunk->next_after_id;
    } else {
      EXPECT_FALSE(chunk->token.empty());
      break;
    }
  }
  EXPECT_GT(chunks, 1u) << "test should span several chunks";
}

TEST(BulkRetrieveTest, DecryptAllBitIdenticalToPerMessageDecryption) {
  auto scenario = sim::UtilityScenario::Create(SmallOptions()).value();
  ASSERT_TRUE(scenario->DepositReadings(4).ok());

  client::ReceivingClient& rc =
      scenario->company(sim::UtilityScenario::kCServices);
  ASSERT_TRUE(rc.Authenticate().ok());
  auto retrieved = rc.Retrieve();
  ASSERT_TRUE(retrieved.ok()) << retrieved.status();
  ASSERT_TRUE(rc.AuthenticateWithPkg(retrieved->token).ok());

  // Reference: one key request + one decryption per message.
  std::vector<Bytes> reference;
  for (const wire::RetrievedMessage& m : retrieved->messages) {
    auto key = rc.RequestKey(m.aid, m.nonce);
    ASSERT_TRUE(key.ok()) << key.status();
    auto plain = rc.DecryptMessage(m, key.value());
    ASSERT_TRUE(plain.ok()) << plain.status();
    reference.push_back(std::move(plain).value());
  }

  auto bulk = rc.DecryptAll(retrieved->messages);
  ASSERT_TRUE(bulk.ok()) << bulk.status();
  ASSERT_EQ(bulk->size(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(bulk.value()[i].message_id, retrieved->messages[i].message_id);
    EXPECT_EQ(bulk.value()[i].plaintext, reference[i]);
  }
}

TEST(BulkRetrieveTest, DecryptAllRepeatedKeysDecryptIdentically) {
  // Duplicate retrieved records (same AID+nonce => same key) must
  // decrypt to identical plaintexts.
  auto scenario = sim::UtilityScenario::Create(SmallOptions()).value();
  ASSERT_TRUE(scenario->DepositReadings(2).ok());

  client::ReceivingClient& rc =
      scenario->company(sim::UtilityScenario::kCServices);
  ASSERT_TRUE(rc.Authenticate().ok());
  auto retrieved = rc.Retrieve();
  ASSERT_TRUE(retrieved.ok()) << retrieved.status();
  ASSERT_TRUE(rc.AuthenticateWithPkg(retrieved->token).ok());

  std::vector<wire::RetrievedMessage> doubled = retrieved->messages;
  doubled.insert(doubled.end(), retrieved->messages.begin(),
                 retrieved->messages.end());
  auto bulk = rc.DecryptAll(doubled);
  ASSERT_TRUE(bulk.ok()) << bulk.status();
  ASSERT_EQ(bulk->size(), doubled.size());
  const size_t half = retrieved->messages.size();
  for (size_t i = 0; i < half; ++i) {
    EXPECT_EQ(bulk.value()[i].plaintext, bulk.value()[i + half].plaintext);
  }
}

TEST(BulkRetrieveTest, DecryptAllFailsWithTheBadMessagesStatus) {
  auto scenario = sim::UtilityScenario::Create(SmallOptions()).value();
  ASSERT_TRUE(scenario->DepositReadings(2).ok());

  client::ReceivingClient& rc =
      scenario->company(sim::UtilityScenario::kCServices);
  ASSERT_TRUE(rc.Authenticate().ok());
  auto retrieved = rc.Retrieve();
  ASSERT_TRUE(retrieved.ok()) << retrieved.status();
  ASSERT_GE(retrieved->messages.size(), 3u);
  ASSERT_TRUE(rc.AuthenticateWithPkg(retrieved->token).ok());

  // One truncated U: the call fails with exactly the status that
  // message's own decryption reports.
  std::vector<wire::RetrievedMessage> truncated = retrieved->messages;
  wire::RetrievedMessage& bad = truncated[1];
  bad.u.resize(bad.u.size() / 2);
  auto key = rc.RequestKey(bad.aid, bad.nonce);
  ASSERT_TRUE(key.ok()) << key.status();
  util::Status expected = rc.DecryptMessage(bad, key.value()).status();
  ASSERT_FALSE(expected.ok());
  auto result = rc.DecryptAll(truncated);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), expected.code());
  EXPECT_EQ(result.status().message(), expected.message());

  // One AID outside the ticket: the PKG refuses that key, so the call
  // fails with the refusal.
  std::vector<wire::RetrievedMessage> foreign = retrieved->messages;
  foreign[1].aid = 987654321;
  result = rc.DecryptAll(foreign);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kPermissionDenied);
  EXPECT_NE(result.status().message().find("987654321"), std::string::npos)
      << result.status();

  // The untouched list still decrypts in full.
  auto good = rc.DecryptAll(retrieved->messages);
  ASSERT_TRUE(good.ok()) << good.status();
  EXPECT_EQ(good->size(), retrieved->messages.size());
}

TEST(BulkRetrieveTest, FetchAndDecryptBulkMatchesFetchAndDecrypt) {
  auto scenario = sim::UtilityScenario::Create(SmallOptions()).value();
  ASSERT_TRUE(scenario->DepositReadingsBatch(4).ok());

  auto single = scenario->RetrieveFor(sim::UtilityScenario::kElectricGas);
  ASSERT_TRUE(single.ok()) << single.status();
  auto bulk = scenario->RetrieveBulkFor(sim::UtilityScenario::kElectricGas,
                                        /*after_id=*/0, /*chunk_size=*/3);
  ASSERT_TRUE(bulk.ok()) << bulk.status();

  ASSERT_EQ(bulk->size(), single->size());
  ASSERT_GT(bulk->size(), 0u);
  for (size_t i = 0; i < single->size(); ++i) {
    EXPECT_EQ(bulk.value()[i].message_id, single.value()[i].message_id);
    EXPECT_EQ(bulk.value()[i].aid, single.value()[i].aid);
    EXPECT_EQ(bulk.value()[i].plaintext, single.value()[i].plaintext);
  }
}

// ---------------------------------------------------------------------
// Pipelined transport

TEST(PipelinedTransportTest, EchoRoundTrip) {
  wire::InProcessTransport backend;
  backend.Register("echo", [](const Bytes& b) -> util::Result<Bytes> {
    return b;
  });
  auto server = wire::TcpServer::Start(&backend, 0).value();
  wire::PipelinedTcpClientTransport client("127.0.0.1", server->port());
  auto response = client.Call("echo", BytesFromString("pipelined"));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response.value(), BytesFromString("pipelined"));
}

TEST(PipelinedTransportTest, CallPipelinedPreservesRequestOrder) {
  wire::InProcessTransport backend;
  backend.Register("echo", [](const Bytes& b) -> util::Result<Bytes> {
    return b;
  });
  auto server = wire::TcpServer::Start(&backend, 0).value();
  wire::PipelinedTcpClientTransport client("127.0.0.1", server->port());

  std::vector<Bytes> requests;
  for (int i = 0; i < 100; ++i) {
    requests.push_back(BytesFromString("req-" + std::to_string(i)));
  }
  auto results = client.CallPipelined("echo", requests);
  ASSERT_EQ(results.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << i << ": " << results[i].status();
    EXPECT_EQ(results[i].value(), requests[i]);
  }
}

TEST(PipelinedTransportTest, ConcurrentCallersShareOneConnection) {
  wire::InProcessTransport backend;
  backend.Register("echo", [](const Bytes& b) -> util::Result<Bytes> {
    return b;
  });
  auto server = wire::TcpServer::Start(&backend, 0).value();
  wire::PipelinedTcpClientTransport client("127.0.0.1", server->port());

  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCallsPerThread; ++i) {
        Bytes payload =
            BytesFromString(std::to_string(t) + ":" + std::to_string(i));
        auto response = client.Call("echo", payload);
        if (!response.ok() || response.value() != payload) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(client.reconnects(), 0u);
}

TEST(PipelinedTransportTest, ServerErrorsRelayedPerRequest) {
  wire::InProcessTransport backend;
  backend.Register("flaky", [](const Bytes& b) -> util::Result<Bytes> {
    if (!b.empty() && b[0] == 1) {
      return util::Status::PermissionDenied("computer says no");
    }
    return b;
  });
  auto server = wire::TcpServer::Start(&backend, 0).value();
  wire::PipelinedTcpClientTransport client("127.0.0.1", server->port());

  std::vector<Bytes> requests = {Bytes{0}, Bytes{1}, Bytes{0}};
  auto results = client.CallPipelined("flaky", requests);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  ASSERT_FALSE(results[1].ok());
  EXPECT_EQ(results[1].status().code(), util::StatusCode::kPermissionDenied);
  EXPECT_TRUE(results[2].ok());
}

TEST(PipelinedTransportTest, ComposesUnderRetryingTransport) {
  wire::InProcessTransport backend;
  std::atomic<int> calls{0};
  backend.Register("flaky-once", [&](const Bytes& b) -> util::Result<Bytes> {
    if (calls.fetch_add(1) == 0) {
      return util::Status::Unavailable("warming up");
    }
    return b;
  });
  auto server = wire::TcpServer::Start(&backend, 0).value();
  wire::PipelinedTcpClientTransport base("127.0.0.1", server->port());
  util::SystemClock clock;
  wire::RetryOptions retry_options;
  retry_options.initial_backoff_micros = 1'000;
  wire::RetryingTransport retrying(&base, &clock, retry_options);
  retrying.set_sleep_fn([](int64_t) {});

  auto response = retrying.Call("flaky-once", BytesFromString("payload"));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response.value(), BytesFromString("payload"));
  EXPECT_EQ(calls.load(), 2);
}

TEST(PipelinedTransportTest, ConnectionRefusedSurfacesRetryably) {
  wire::PipelinedTcpClientTransport client("127.0.0.1", 1);
  auto response = client.Call("x", {});
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), util::StatusCode::kUnavailable);
}

TEST(PipelinedTransportTest, ReconnectsAfterServerRestart) {
  wire::InProcessTransport backend;
  backend.Register("echo", [](const Bytes& b) -> util::Result<Bytes> {
    return b;
  });
  auto first = wire::TcpServer::Start(&backend, 0).value();
  const uint16_t port = first->port();
  wire::PipelinedTcpClientTransport client("127.0.0.1", port);
  ASSERT_TRUE(client.Call("echo", BytesFromString("a")).ok());

  first->Shutdown();
  first.reset();
  // The in-flight-free connection is now dead; the next call may fail
  // once (retryably) while the reader notices, then reconnect.
  auto second = wire::TcpServer::Start(&backend, port);
  ASSERT_TRUE(second.ok()) << second.status();
  bool recovered = false;
  for (int attempt = 0; attempt < 10 && !recovered; ++attempt) {
    recovered = client.Call("echo", BytesFromString("b")).ok();
  }
  EXPECT_TRUE(recovered);
  EXPECT_GE(client.reconnects(), 1u);
}

/// A hand-rolled one-connection server speaking the pipelined framing,
/// for wire-level misbehavior the real server never produces.
class RawPipelineServer {
 public:
  RawPipelineServer() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    ::listen(listen_fd_, 1);
  }
  ~RawPipelineServer() {
    if (conn_fd_ >= 0) ::close(conn_fd_);
    ::close(listen_fd_);
  }

  uint16_t port() const { return port_; }

  /// Blocks for the next pipelined request frame; returns its
  /// correlation id.
  uint64_t ReadRequest() {
    if (conn_fd_ < 0) conn_fd_ = ::accept(listen_fd_, nullptr, nullptr);
    EXPECT_GE(conn_fd_, 0);
    uint8_t pre[11];  // sentinel(2) version(1) correlation(8)
    ReadFull(pre, sizeof(pre));
    EXPECT_EQ(pre[0], 0xFF);
    EXPECT_EQ(pre[1], 0xFF);
    uint64_t correlation_id = 0;
    for (int i = 0; i < 8; ++i) {
      correlation_id = (correlation_id << 8) | pre[3 + i];
    }
    uint8_t elen_bytes[2];
    ReadFull(elen_bytes, 2);
    size_t elen = (static_cast<size_t>(elen_bytes[0]) << 8) | elen_bytes[1];
    std::vector<uint8_t> skip(elen);
    ReadFull(skip.data(), elen);
    uint8_t blen_bytes[4];
    ReadFull(blen_bytes, 4);
    size_t blen = (static_cast<size_t>(blen_bytes[0]) << 24) |
                  (static_cast<size_t>(blen_bytes[1]) << 16) |
                  (static_cast<size_t>(blen_bytes[2]) << 8) | blen_bytes[3];
    skip.resize(blen);
    ReadFull(skip.data(), blen);
    return correlation_id;
  }

  void WriteResponse(uint64_t correlation_id, const Bytes& payload) {
    std::vector<uint8_t> frame;
    frame.push_back(2);  // kPipelineOk
    for (int i = 7; i >= 0; --i) {
      frame.push_back(static_cast<uint8_t>(correlation_id >> (8 * i)));
    }
    for (int i = 3; i >= 0; --i) {
      frame.push_back(static_cast<uint8_t>(payload.size() >> (8 * i)));
    }
    frame.insert(frame.end(), payload.begin(), payload.end());
    ASSERT_EQ(::send(conn_fd_, frame.data(), frame.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(frame.size()));
  }

 private:
  void ReadFull(uint8_t* out, size_t len) {
    size_t done = 0;
    while (done < len) {
      ssize_t n = ::read(conn_fd_, out + done, len - done);
      ASSERT_GT(n, 0);
      done += static_cast<size_t>(n);
    }
  }

  int listen_fd_ = -1;
  int conn_fd_ = -1;
  uint16_t port_ = 0;
};

TEST(PipelinedTransportTest, DuplicateCorrelationIdDroppedWithoutDesync) {
  RawPipelineServer server;
  std::thread misbehave([&server] {
    uint64_t first = server.ReadRequest();
    server.WriteResponse(first, BytesFromString("answer-1"));
    // A confused server repeats the same correlation id: the client has
    // already completed that slot and must discard the frame while
    // staying in sync for the next one.
    server.WriteResponse(first, BytesFromString("stale-duplicate"));
    uint64_t second = server.ReadRequest();
    server.WriteResponse(second, BytesFromString("answer-2"));
  });

  wire::PipelinedTcpClientTransport client("127.0.0.1", server.port());
  auto first = client.Call("x", BytesFromString("a"));
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(StringFromBytes(first.value()), "answer-1");
  auto second = client.Call("x", BytesFromString("b"));
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(StringFromBytes(second.value()), "answer-2");
  EXPECT_EQ(client.reconnects(), 0u);
  misbehave.join();
}

TEST(PipelinedTransportTest, LegacyAndPipelinedClientsShareServer) {
  wire::InProcessTransport backend;
  backend.Register("echo", [](const Bytes& b) -> util::Result<Bytes> {
    return b;
  });
  auto server = wire::TcpServer::Start(&backend, 0).value();
  wire::TcpClientTransport legacy("127.0.0.1", server->port());
  wire::PipelinedTcpClientTransport pipelined("127.0.0.1", server->port());
  for (int i = 0; i < 5; ++i) {
    auto a = legacy.Call("echo", BytesFromString("legacy-" + std::to_string(i)));
    ASSERT_TRUE(a.ok()) << a.status();
    auto b =
        pipelined.Call("echo", BytesFromString("pipe-" + std::to_string(i)));
    ASSERT_TRUE(b.ok()) << b.status();
  }
}

// End-to-end over real sockets: batch deposit and bulk retrieve through
// the pipelined transport against a TcpServer-fronted MWS+PKG.
TEST(PipelinedTransportTest, BatchProtocolEndToEndOverTcp) {
  auto scenario = sim::UtilityScenario::Create(SmallOptions()).value();
  auto server = wire::TcpServer::Start(&scenario->transport(), 0).value();
  wire::PipelinedTcpClientTransport transport("127.0.0.1", server->port());

  // A device built over the pipelined transport, registered out of band.
  client::SmartDevice device(
      "SD-TCP-1", BytesFromString("tcp-device-mac-key"),
      scenario->pkg().PublicParams(), scenario->options().dem, &transport,
      &scenario->clock(), &scenario->rng());
  ASSERT_TRUE(scenario->mws()
                  .RegisterDevice("SD-TCP-1",
                                  BytesFromString("tcp-device-mac-key"))
                  .ok());
  std::vector<std::pair<ibe::Attribute, Bytes>> readings;
  for (int i = 0; i < 6; ++i) {
    readings.emplace_back(sim::UtilityScenario::kElectricAttr,
                          BytesFromString("tcp-reading-" + std::to_string(i)));
  }
  auto outcomes = device.DepositMany(readings);
  ASSERT_TRUE(outcomes.ok()) << outcomes.status();
  for (const auto& outcome : outcomes.value()) {
    ASSERT_TRUE(outcome.ok()) << outcome.status();
  }

  client::ReceivingClient rc(
      sim::UtilityScenario::kCServices,
      std::string("pw-") + sim::UtilityScenario::kCServices,
      crypto::RsaGenerateKeyPair(scenario->options().rsa_bits,
                                 scenario->rng())
          .value(),
      scenario->pkg().PublicParams(), scenario->options().cipher,
      scenario->options().dem, &transport, &scenario->clock(),
      &scenario->rng());
  auto received = rc.FetchAndDecryptBulk(/*after_id=*/0, 0, 0,
                                         /*chunk_size=*/4);
  ASSERT_TRUE(received.ok()) << received.status();
  EXPECT_EQ(received->size(), readings.size());
  for (size_t i = 0; i < received->size(); ++i) {
    EXPECT_EQ(StringFromBytes(received.value()[i].plaintext),
              "tcp-reading-" + std::to_string(i));
  }
}

}  // namespace
}  // namespace mws
