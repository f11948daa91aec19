// Concurrency tests for the parallel request path: the striped-lock
// KvStore, MessageDb's id allocation and retrieval watermark, and the
// full MWS/PKG protocol under multi-threaded load over real TCP.
// Designed to run under -DMWSIBE_SANITIZE=thread as well as plain builds.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <functional>
#include <future>
#include <limits>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/client/receiving_client.h"
#include "src/client/smart_device.h"
#include "src/crypto/rsa.h"
#include "src/math/params.h"
#include "src/mws/mms.h"
#include "src/mws/mws_service.h"
#include "src/pkg/pkg_service.h"
#include "src/store/kvstore.h"
#include "src/store/message_db.h"
#include "src/store/policy_db.h"
#include "src/wire/auth.h"
#include "src/wire/tcp.h"

namespace mws {
namespace {

using util::Bytes;
using util::BytesFromString;

std::string TempPath(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("mwsibe_conc_" + tag + "_" + std::to_string(::getpid())))
      .string();
}

// --- KvStore striped locking ---

TEST(KvStoreConcurrencyTest, ParallelWritersDisjointKeys) {
  auto store = store::KvStore::Open({.path = ""}).value();
  constexpr int kThreads = 4;
  constexpr int kKeysPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kKeysPerThread; ++i) {
        std::string key =
            "w/" + std::to_string(t) + "/" + std::to_string(i);
        ASSERT_TRUE(store->Put(key, BytesFromString(key)).ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(store->Size(), static_cast<size_t>(kThreads * kKeysPerThread));
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kKeysPerThread; ++i) {
      std::string key = "w/" + std::to_string(t) + "/" + std::to_string(i);
      auto value = store->Get(key);
      ASSERT_TRUE(value.ok()) << key;
      EXPECT_EQ(value.value(), BytesFromString(key));
    }
  }
}

TEST(KvStoreConcurrencyTest, ReadersScanWhileWritersMutate) {
  auto store = store::KvStore::Open({.path = ""}).value();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        store->Put("base/" + std::to_string(i), BytesFromString("v")).ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> scans{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        // The 100 pre-seeded keys are immutable during the test; every
        // snapshot must contain all of them regardless of writer churn.
        EXPECT_GE(store->CountPrefix("base/"), 100u);
        EXPECT_GE(store->ScanKeys("base/").size(), 100u);
        auto rows = store->Scan("hot/");
        for (const auto& [key, value] : rows) {
          EXPECT_EQ(value, BytesFromString("hot"));
        }
        ++scans;
      }
    });
  }
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < 300; ++i) {
        std::string key =
            "hot/" + std::to_string(w) + "/" + std::to_string(i % 25);
        ASSERT_TRUE(store->Put(key, BytesFromString("hot")).ok());
        if (i % 3 == 0) {
          ASSERT_TRUE(store->Delete(key).ok());
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_GT(scans.load(), 0u);
  EXPECT_EQ(store->CountPrefix("base/"), 100u);
}

TEST(KvStoreConcurrencyTest, ParallelWritesSurviveRecovery) {
  std::string path = TempPath("kvrecover");
  store::KvStore::RemoveFiles(path);
  constexpr int kThreads = 4;
  constexpr int kKeysPerThread = 100;
  {
    auto store = store::KvStore::Open({.path = path}).value();
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kKeysPerThread; ++i) {
          std::string key =
              "r/" + std::to_string(t) + "/" + std::to_string(i);
          ASSERT_TRUE(store->Put(key, BytesFromString(key)).ok());
        }
      });
    }
    for (auto& t : threads) t.join();
    ASSERT_TRUE(store->Flush().ok());
  }
  auto reopened = store::KvStore::Open({.path = path}).value();
  EXPECT_EQ(reopened->Size(),
            static_cast<size_t>(kThreads * kKeysPerThread));
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kKeysPerThread; ++i) {
      std::string key = "r/" + std::to_string(t) + "/" + std::to_string(i);
      auto value = reopened->Get(key);
      ASSERT_TRUE(value.ok()) << key;
      EXPECT_EQ(value.value(), BytesFromString(key));
    }
  }
  store::KvStore::RemoveFiles(path);
}

// --- MessageDb id allocation ---

TEST(MessageDbConcurrencyTest, ConcurrentAppendsYieldUniqueSequentialIds) {
  auto store = store::KvStore::Open({.path = ""}).value();
  store::MessageDb db(store.get());
  constexpr int kThreads = 4;
  constexpr int kAppendsPerThread = 50;
  std::vector<std::vector<uint64_t>> ids(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kAppendsPerThread; ++i) {
        store::StoredMessage m;
        m.u = Bytes(8, 1);
        m.ciphertext = Bytes(8, 2);
        m.attribute = "CONC-" + std::to_string(t);
        m.nonce = BytesFromString("nonce-" + std::to_string(t) + "-" +
                                  std::to_string(i));
        m.device_id = "SD";
        auto outcomes = db.Append({m});
        ASSERT_TRUE(outcomes.ok());
        ids[t].push_back(outcomes->front().id);
      }
    });
  }
  for (auto& t : threads) t.join();

  std::set<uint64_t> all;
  for (const auto& lane : ids) all.insert(lane.begin(), lane.end());
  // No lost or duplicated ids, densely allocated from 1.
  EXPECT_EQ(all.size(), static_cast<size_t>(kThreads * kAppendsPerThread));
  EXPECT_EQ(*all.begin(), 1u);
  EXPECT_EQ(*all.rbegin(), static_cast<uint64_t>(kThreads * kAppendsPerThread));
  EXPECT_EQ(db.Count(), all.size());

  // A fresh MessageDb over the same table (recovery path) continues the
  // sequence instead of reusing ids.
  store::MessageDb recovered(store.get());
  store::StoredMessage m;
  m.u = Bytes(8, 1);
  m.ciphertext = Bytes(8, 2);
  m.attribute = "CONC-0";
  m.nonce = BytesFromString("nonce-after-reopen");
  m.device_id = "SD";
  EXPECT_EQ(recovered.Append({m}).value().front().id,
            static_cast<uint64_t>(kThreads * kAppendsPerThread) + 1);
}

// --- Retrieval visibility watermark ---

/// A Table that parks the first write of a key starting with `prefix`
/// (by default an attribute-index "x/" key) until Release(): it holds
/// one append between id allocation and that write, the window a
/// retrieval cursor must not pass.
class ParkingTable : public store::Table {
 public:
  explicit ParkingTable(store::Table* base, std::string prefix = "x/")
      : base_(base), prefix_(std::move(prefix)) {}

  /// Runs `hook` once, inside the next Contains of an "x/" key. With
  /// `stale`, that Contains answers as the table stood before the hook.
  void OnIndexContains(std::function<void()> hook, bool stale) {
    std::lock_guard<std::mutex> lock(mutex_);
    hook_ = std::move(hook);
    stale_ = stale;
  }

  /// Blocks until an append is parked.
  void AwaitParked() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return parked_; });
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      released_ = true;
    }
    cv_.notify_all();
  }

  util::Status Put(const std::string& key, const Bytes& value) override {
    if (key.rfind(prefix_, 0) == 0) {
      std::unique_lock<std::mutex> lock(mutex_);
      if (!parked_) {
        parked_ = true;
        cv_.notify_all();
        cv_.wait(lock, [&] { return released_; });
      }
    }
    return base_->Put(key, value);
  }
  util::Result<Bytes> Get(const std::string& key) const override {
    return base_->Get(key);
  }
  util::Status Delete(const std::string& key) override {
    return base_->Delete(key);
  }
  bool Contains(const std::string& key) const override {
    bool answer = base_->Contains(key);
    if (key.rfind("x/", 0) != 0) return answer;
    std::function<void()> hook;
    bool stale = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      hook = std::exchange(hook_, nullptr);
      stale = stale_;
    }
    if (!hook) return answer;
    hook();
    return stale ? answer : base_->Contains(key);
  }
  std::vector<std::pair<std::string, Bytes>> Scan(
      const std::string& prefix) const override {
    return base_->Scan(prefix);
  }
  size_t Size() const override { return base_->Size(); }
  util::Status Flush() override { return base_->Flush(); }

 private:
  store::Table* base_;
  const std::string prefix_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool parked_ = false;
  bool released_ = false;
  mutable std::function<void()> hook_;
  bool stale_ = false;
};

store::StoredMessage WatermarkMessage(int n) {
  store::StoredMessage m;
  m.u = Bytes(8, 1);
  m.ciphertext = BytesFromString("m-" + std::to_string(n));
  m.attribute = "A1";
  m.nonce = BytesFromString("nonce-" + std::to_string(n));
  m.device_id = "SD";
  return m;
}

TEST(RetrievalWatermarkTest, ParkedAppendArrivesExactlyOnce) {
  auto base = store::KvStore::Open({.path = ""}).value();
  ParkingTable table(base.get());
  store::MessageDb messages(&table);
  store::PolicyDb policies(&table);
  ASSERT_TRUE(policies.Grant("RC", "A1").ok());
  mws::MessageManagementSystem mms(&messages, &policies);

  // Message 1 takes id 1 and parks before its index write; message 2
  // takes id 2 and lands.
  std::thread parked(
      [&] { ASSERT_TRUE(messages.Append({WatermarkMessage(1)}).ok()); });
  table.AwaitParked();
  ASSERT_EQ(messages.Append({WatermarkMessage(2)}).value().front().id, 2u);

  std::vector<uint64_t> delivered;
  auto poll = [&](uint64_t after_id) {
    auto chunk = mms.FetchChunkFor("RC", after_id, 0, 0,
                                   std::numeric_limits<uint32_t>::max());
    EXPECT_TRUE(chunk.ok()) << chunk.status();
    for (const auto& m : chunk->messages) delivered.push_back(m.message_id);
    return chunk->next_after_id;
  };
  // The cursor must not pass id 1 while it is in flight.
  uint64_t cursor = poll(0);
  EXPECT_LT(cursor, 1u);
  table.Release();
  parked.join();
  poll(cursor);
  EXPECT_EQ(delivered, (std::vector<uint64_t>{1, 2}));
}

// A retransmit arrives while the append that reserved its id is parked
// at a write. It must be refused, retryably, before it reads any of that
// id's keys. The hook lets the parked append finish during the
// retransmit's index-key read, so one that read first would decide on
// what it saw before that append finished. Its retry is a dedup hit, and
// one copy stands, under id 1, with the original's timestamp and every
// index entry resolving.
void RetransmitWhileItsIdIsInFlight(const std::string& park_prefix,
                                    bool stale_index_read) {
  auto base = store::KvStore::Open({.path = ""}).value();
  ParkingTable table(base.get(), park_prefix);
  store::MessageDb messages(&table);

  std::promise<void> finished;
  std::shared_future<void> original_done = finished.get_future().share();
  std::thread original([&] {
    EXPECT_TRUE(messages.Append({WatermarkMessage(1)}).ok());
    finished.set_value();
  });
  table.AwaitParked();
  table.OnIndexContains(
      [&] {
        table.Release();
        original_done.wait();
      },
      stale_index_read);

  store::StoredMessage resent = WatermarkMessage(1);
  resent.timestamp_micros = 7;  // a device stamps each send afresh
  auto early = messages.Append({resent});
  EXPECT_TRUE(early.status().IsUnavailable()) << early.status();
  table.OnIndexContains(nullptr, false);
  table.Release();
  original.join();

  auto retried = messages.Append({resent});
  ASSERT_TRUE(retried.ok()) << retried.status();
  EXPECT_EQ(retried->front().id, 1u);
  EXPECT_TRUE(retried->front().deduplicated);
  EXPECT_EQ(messages.Count(), 1u);
  EXPECT_EQ(messages.IdsByAttributeAfter("A1", 0), std::vector<uint64_t>{1});
  auto stored = messages.Get(1);
  ASSERT_TRUE(stored.ok()) << stored.status();
  EXPECT_EQ(stored->timestamp_micros, 0);
  EXPECT_EQ(messages.IdsByAttributeInTimeRange("A1", 0, 1'000'000),
            std::vector<uint64_t>{1});
}

TEST(RetrievalWatermarkTest, RetransmitWaitsForTheReservedIdsIndexWrite) {
  // The record landed and the index key has not: a retransmit reading
  // now would see the record but no index key.
  RetransmitWhileItsIdIsInFlight("x/", /*stale_index_read=*/true);
}

TEST(RetrievalWatermarkTest, RetransmitWaitsForTheReservedIdsRecordWrite) {
  // Only the marker landed: a retransmit reading now would find no
  // record, then the index key once the parked append finished.
  RetransmitWhileItsIdIsInFlight("m/", /*stale_index_read=*/false);
}

// Two overlapping first sends of one message. The first parks at its
// dedup-marker write, before any marker exists, so a second send that
// read the marker now would miss it and store the message under a
// second id. Its claim on the dedup key refuses it, retryably, and its
// retry once the first has returned is a dedup hit on the first id.
TEST(DedupClaimTest, OverlappingFirstSendsStoreOneCopy) {
  auto base = store::KvStore::Open({.path = ""}).value();
  ParkingTable table(base.get(), "n/");
  store::MessageDb messages(&table);

  std::thread first([&] {
    auto outcome = messages.Append({WatermarkMessage(1)});
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    EXPECT_EQ(outcome->front().id, 1u);
  });
  table.AwaitParked();
  auto overlapping = messages.Append({WatermarkMessage(1)});
  EXPECT_TRUE(overlapping.status().IsUnavailable())
      << (overlapping.ok() ? "stored under id " +
                                 std::to_string(overlapping->front().id)
                           : overlapping.status().ToString());
  table.Release();
  first.join();

  auto retried = messages.Append({WatermarkMessage(1)});
  ASSERT_TRUE(retried.ok()) << retried.status();
  EXPECT_EQ(retried->front().id, 1u);
  EXPECT_TRUE(retried->front().deduplicated);
  EXPECT_EQ(messages.Count(), 1u);
}

// --- Full protocol stress over TCP ---

/// Routes mws.* / pkg.* to the two servers, as deployed.
class EndpointMux : public wire::Transport {
 public:
  EndpointMux(wire::Transport* mws, wire::Transport* pkg)
      : mws_(mws), pkg_(pkg) {}
  util::Result<Bytes> Call(const std::string& endpoint,
                           const Bytes& request) override {
    if (endpoint.rfind("pkg.", 0) == 0) return pkg_->Call(endpoint, request);
    return mws_->Call(endpoint, request);
  }

 private:
  wire::Transport* mws_;
  wire::Transport* pkg_;
};

TEST(ServiceConcurrencyTest, DepositorsAndRetrieversOverTcp) {
  constexpr int kWriters = 3;
  constexpr int kReaders = 2;
  constexpr int kDepositsPerWriter = 20;
  const std::string kAttribute = "STRESS-ATTR";

  std::string path = TempPath("stress");
  store::KvStore::RemoveFiles(path);

  util::SimulatedClock clock(1'000'000'000);
  util::DeterministicRandom setup_rng(7);
  Bytes service_key(32, 0x3c);
  uint64_t total_deposits = 0;

  {
    auto storage = store::KvStore::Open({.path = path}).value();
    mws::MwsService warehouse(storage.get(), service_key, &clock,
                              &setup_rng);
    pkg::PkgService pkg(math::GetParams(math::ParamPreset::kSmall),
                        service_key, &clock, &setup_rng);

    wire::InProcessTransport mws_backend, pkg_backend;
    warehouse.RegisterEndpoints(&mws_backend);
    pkg.RegisterEndpoints(&pkg_backend);
    wire::TcpServer::Options server_options;
    server_options.worker_threads = kWriters + kReaders;
    auto mws_server =
        wire::TcpServer::Start(&mws_backend, 0, server_options).value();
    auto pkg_server =
        wire::TcpServer::Start(&pkg_backend, 0, server_options).value();

    std::vector<Bytes> mac_keys;
    for (int w = 0; w < kWriters; ++w) {
      mac_keys.push_back(Bytes(32, static_cast<uint8_t>(w + 1)));
      ASSERT_TRUE(
          warehouse.RegisterDevice("SD-" + std::to_string(w), mac_keys[w])
              .ok());
    }
    std::vector<crypto::RsaKeyPair> rc_keys;
    for (int r = 0; r < kReaders; ++r) {
      rc_keys.push_back(crypto::RsaGenerateKeyPair(768, setup_rng).value());
      std::string identity = "RC-" + std::to_string(r);
      ASSERT_TRUE(warehouse
                      .RegisterReceivingClient(
                          identity, wire::HashPassword("pw"),
                          crypto::SerializeRsaPublicKey(
                              rc_keys[r].public_key))
                      .ok());
      ASSERT_TRUE(warehouse.GrantAttribute(identity, kAttribute).ok());
    }

    std::atomic<bool> writers_done{false};
    std::vector<std::vector<uint64_t>> deposited_ids(kWriters);
    std::vector<std::set<uint64_t>> seen_ids(kReaders);
    std::vector<std::thread> threads;

    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&, w] {
        util::DeterministicRandom rng(100 + w);
        wire::TcpClientTransport conn("127.0.0.1", mws_server->port());
        client::SmartDevice device("SD-" + std::to_string(w), mac_keys[w],
                                   pkg.PublicParams(),
                                   crypto::CipherKind::kDes, &conn, &clock,
                                   &rng);
        for (int i = 0; i < kDepositsPerWriter; ++i) {
          auto id = device.DepositMessage(
              kAttribute, BytesFromString("m-" + std::to_string(w) + "-" +
                                          std::to_string(i)));
          ASSERT_TRUE(id.ok()) << id.status();
          deposited_ids[w].push_back(id.value());
        }
      });
    }
    for (int r = 0; r < kReaders; ++r) {
      threads.emplace_back([&, r] {
        util::DeterministicRandom rng(200 + r);
        wire::TcpClientTransport mws_conn("127.0.0.1", mws_server->port());
        wire::TcpClientTransport pkg_conn("127.0.0.1", pkg_server->port());
        EndpointMux mux(&mws_conn, &pkg_conn);
        client::ReceivingClient rc("RC-" + std::to_string(r), "pw",
                                   rc_keys[r], pkg.PublicParams(),
                                   crypto::CipherKind::kDes,
                                   crypto::CipherKind::kDes, &mux, &clock,
                                   &rng);
        uint64_t after_id = 0;
        // Poll while the writers run, then one final drain so every
        // reader observes the complete warehouse.
        do {
          bool done = writers_done.load();
          auto messages = rc.FetchAndDecrypt(after_id);
          ASSERT_TRUE(messages.ok()) << messages.status();
          for (const auto& m : messages.value()) {
            // The incremental watermark must never hand out duplicates.
            EXPECT_TRUE(seen_ids[r].insert(m.message_id).second)
                << "duplicate message id " << m.message_id;
            after_id = std::max(after_id, m.message_id);
          }
          if (done) break;
        } while (true);
      });
    }

    for (int w = 0; w < kWriters; ++w) threads[w].join();
    writers_done.store(true);
    for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

    // No lost or duplicate ids across writers.
    std::set<uint64_t> all_ids;
    for (const auto& lane : deposited_ids) {
      for (uint64_t id : lane) {
        EXPECT_TRUE(all_ids.insert(id).second) << "duplicate id " << id;
      }
    }
    total_deposits = kWriters * kDepositsPerWriter;
    EXPECT_EQ(all_ids.size(), total_deposits);
    // Every reader decrypted every message exactly once.
    for (int r = 0; r < kReaders; ++r) {
      EXPECT_EQ(seen_ids[r], all_ids) << "reader " << r;
    }
    ASSERT_TRUE(storage->Flush().ok());
    mws_server->Shutdown();
    pkg_server->Shutdown();
  }

  // Clean recovery: reopen the store, the warehouse is intact and the id
  // sequence continues past everything deposited concurrently.
  auto reopened = store::KvStore::Open({.path = path}).value();
  store::MessageDb db(reopened.get());
  EXPECT_EQ(db.Count(), total_deposits);
  auto visible = db.FindByAttribute(kAttribute);
  ASSERT_TRUE(visible.ok());
  EXPECT_EQ(visible->size(), total_deposits);
  store::StoredMessage m;
  m.u = Bytes(8, 1);
  m.ciphertext = Bytes(8, 2);
  m.attribute = kAttribute;
  m.nonce = Bytes(16, 3);
  m.device_id = "SD-0";
  EXPECT_GT(db.Append({m}).value().front().id, total_deposits);
  store::KvStore::RemoveFiles(path);
}

}  // namespace
}  // namespace mws
