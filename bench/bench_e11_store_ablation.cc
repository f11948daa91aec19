// E11 — §VI storage ablation: the prototype's flat files vs the
// log-structured KV store the paper proposes as future work ("It would
// definitely be advantageous ... to move to a database system").
// Expected shape: flat-file writes degrade linearly with table size
// (full rewrite per mutation); the KV store's appends stay flat.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <filesystem>

#include "src/store/flatfile.h"
#include "src/store/kvstore.h"
#include "src/store/message_db.h"

namespace {

using mws::store::FlatFileStore;
using mws::store::KvStore;
using mws::store::MessageDb;
using mws::store::StoredMessage;
using mws::store::Table;
using mws::util::Bytes;

std::string BenchPath(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          (std::string("mwsibe_bench_") + tag + "_" +
           std::to_string(::getpid())))
      .string();
}

std::unique_ptr<Table> MakeBackend(int64_t kind, const std::string& path) {
  KvStore::RemoveFiles(path);
  if (kind == 0) return std::move(KvStore::Open({.path = path}).value());
  return std::move(FlatFileStore::Open({.path = path}).value());
}

const char* BackendName(int64_t kind) {
  return kind == 0 ? "kvstore(WAL)" : "flatfile(prototype)";
}

StoredMessage SampleMessage() {
  StoredMessage m;
  m.u = Bytes(65, 1);
  m.ciphertext = Bytes(128, 2);
  m.attribute = "ELECTRIC-BAYTOWER-SV-CA";
  m.nonce = Bytes(16, 3);
  m.device_id = "ELECTRIC-METER-0";
  m.timestamp_micros = 1;
  return m;
}

/// Appends `m` as a fresh message: a new nonce each call, so the store
/// writes it instead of deduplicating a retransmit.
auto AppendFresh(MessageDb& db, StoredMessage& m) {
  static uint64_t n = 0;
  ++n;
  std::memcpy(m.nonce.data(), &n, sizeof(n));
  return db.Append({m});
}

/// Deposit (append) cost after `preload` messages already stored.
void BM_StoreAppend(benchmark::State& state) {
  std::string path = BenchPath("append");
  auto backend = MakeBackend(state.range(0), path);
  MessageDb db(backend.get());
  StoredMessage m = SampleMessage();
  for (int64_t i = 0; i < state.range(1); ++i) AppendFresh(db, m).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(AppendFresh(db, m));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::string(BackendName(state.range(0))) + ", preload " +
                 std::to_string(state.range(1)));
  backend.reset();
  KvStore::RemoveFiles(path);
}
BENCHMARK(BM_StoreAppend)
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({0, 1000})
    ->Args({1, 1000})
    ->Args({0, 4000})
    ->Args({1, 4000});

/// Point lookup by attribute at size.
void BM_StoreLookup(benchmark::State& state) {
  std::string path = BenchPath("lookup");
  auto backend = MakeBackend(state.range(0), path);
  MessageDb db(backend.get());
  StoredMessage m = SampleMessage();
  for (int64_t i = 0; i < state.range(1); ++i) AppendFresh(db, m).value();
  const uint64_t after = static_cast<uint64_t>(state.range(1)) - 1;
  for (auto _ : state) {
    for (uint64_t id : db.IdsByAttributeAfter(m.attribute, after)) {
      benchmark::DoNotOptimize(db.Get(id));
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::string(BackendName(state.range(0))) + ", " +
                 std::to_string(state.range(1)) + " stored");
  backend.reset();
  KvStore::RemoveFiles(path);
}
BENCHMARK(BM_StoreLookup)->Args({0, 1000})->Args({1, 1000});

/// Recovery (reopen) time at size — the WAL replay vs flat-file parse.
void BM_StoreRecovery(benchmark::State& state) {
  std::string path = BenchPath("recover");
  {
    auto backend = MakeBackend(state.range(0), path);
    MessageDb db(backend.get());
    StoredMessage m = SampleMessage();
    for (int64_t i = 0; i < state.range(1); ++i) AppendFresh(db, m).value();
    backend->Flush().ok();
  }
  for (auto _ : state) {
    std::unique_ptr<Table> reopened;
    if (state.range(0) == 0) {
      reopened = std::move(KvStore::Open({.path = path}).value());
    } else {
      reopened = std::move(FlatFileStore::Open({.path = path}).value());
    }
    benchmark::DoNotOptimize(reopened->Size());
  }
  state.SetLabel(std::string(BackendName(state.range(0))) + ", " +
                 std::to_string(state.range(1)) + " msgs");
  KvStore::RemoveFiles(path);
}
BENCHMARK(BM_StoreRecovery)->Args({0, 2000})->Args({1, 2000});

/// KV store compaction at size.
void BM_KvCompaction(benchmark::State& state) {
  std::string path = BenchPath("compact");
  for (auto _ : state) {
    state.PauseTiming();
    KvStore::RemoveFiles(path);
    auto store = KvStore::Open({.path = path}).value();
    // Half the records are overwrites (dead weight).
    for (int64_t i = 0; i < state.range(0); ++i) {
      store->Put("key-" + std::to_string(i % (state.range(0) / 2)),
                 Bytes(64, 1))
          .ok();
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(store->Compact());
  }
  state.SetLabel(std::to_string(state.range(0)) + " log records");
  KvStore::RemoveFiles(path);
}
BENCHMARK(BM_KvCompaction)->Arg(2000);

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== E11: flat-file (prototype) vs KV store (future work) ===\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
