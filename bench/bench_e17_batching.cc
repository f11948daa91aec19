// E17 — batching and amortization: end-to-end throughput of the batch
// data plane versus the single-shot protocol, swept over batch sizes.
// One electric meter deposits `--messages` readings (as DepositMessage
// calls at batch 1, as DepositMany batches otherwise), then C-Services
// drains the backlog (Retrieve + per-message RequestKey + DecryptMessage
// at batch 1; RetrieveChunked + DecryptAll over batch-sized slices
// otherwise).
//
// The claim under test (DESIGN.md §12): batching amortizes the per-item
// costs — one service round trip and one MessageDb lock acquisition per
// batch, one RequestKeysBatch whose extractions the PKG spreads over its
// cores (sharing one Montgomery batch inversion), and DecryptAll
// spreading key opening and the pairings over the RC's cores — while
// every plaintext stays bit-identical to the single-shot path. The
// sweep asserts that equivalence directly.
//
// Each batch size runs under two network profiles:
//
//   * loopback — the raw in-process cost. Dominated by the per-message
//     pairing (~0.3ms) and per-identity extraction (~0.15ms), which no
//     batch size can amortize away; a batch only spreads them over the
//     host's cores, so the speedup here is bounded by the core count.
//   * wan — the paper's deployment shape (utility company reaching the
//     warehouse across a WAN), reproduced on loopback by realizing the
//     modeled 20ms round-trip latency (set_realize_network). This is
//     where batching earns its keep: batch 1 pays one round trip per
//     message, batch 64 pays one per batch. The >= 3x acceptance bar
//     for batch 64 vs batch 1 is measured on this profile.
//
// `--json=PATH` records the sweep (BENCH_e17.json); `--smoke` shortens
// the run for ctest and exits non-zero if batch-64 retrieve+decrypt
// throughput regresses: below 0.6x single-shot on loopback (generous —
// batching must never cost throughput) or below 2x on the WAN profile
// (where the full-run bar is >= 3x).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/sim/scenario.h"

namespace {

using mws::sim::UtilityScenario;
using mws::util::Bytes;

struct Phase {
  double seconds = 0.0;
  double msgs_per_sec = 0.0;
};

struct NetworkProfile {
  const char* name;
  mws::wire::NetworkModel model;
  bool realize;  // sleep the modeled latency instead of only charging it
};

struct SweepResult {
  size_t batch = 0;
  const char* network = "loopback";
  Phase deposit;
  Phase fetch;  // retrieve + key extraction + decryption
  /// (message id, plaintext) in retrieval order — the equivalence
  /// witness compared across batch sizes and network profiles.
  std::vector<std::pair<uint64_t, Bytes>> plain;
};

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// One full deposit-then-drain cycle at batch size `batch` under the
/// given network profile.
SweepResult RunSweep(size_t batch, size_t total,
                     const NetworkProfile& network) {
  SweepResult result;
  result.batch = batch;
  result.network = network.name;

  UtilityScenario::Options options;
  options.network = network.model;
  auto scenario = UtilityScenario::Create(options).value();
  // Realized after Create() so registration traffic stays instant; no
  // calls are in flight yet, which is what set-before-serving requires.
  scenario->transport().set_realize_network(network.realize);
  mws::client::SmartDevice& device = scenario->devices().front();

  // Generate the workload up front on the shared deterministic schedule
  // so every sweep deposits byte-identical payloads regardless of how
  // they are grouped on the wire.
  std::vector<std::pair<mws::ibe::Attribute, Bytes>> readings;
  readings.reserve(total);
  for (size_t i = 0; i < total; ++i) {
    scenario->clock().AdvanceMicros(1'000'000);
    mws::sim::MeterReading reading =
        scenario->workload().Next(device.device_id(),
                                  mws::sim::MeterClass::kElectric,
                                  scenario->clock().NowMicros());
    readings.emplace_back(UtilityScenario::kElectricAttr,
                          scenario->workload().Pad(reading.ToPayload()));
  }

  const auto deposit_start = std::chrono::steady_clock::now();
  if (batch <= 1) {
    for (const auto& [attribute, payload] : readings) {
      device.DepositMessage(attribute, payload).value();
    }
  } else {
    for (size_t offset = 0; offset < readings.size(); offset += batch) {
      const size_t count = std::min(batch, readings.size() - offset);
      std::vector<std::pair<mws::ibe::Attribute, Bytes>> group(
          readings.begin() + offset, readings.begin() + offset + count);
      auto outcomes = device.DepositMany(group).value();
      for (const auto& outcome : outcomes) outcome.value();
    }
  }
  result.deposit.seconds = Seconds(deposit_start);
  result.deposit.msgs_per_sec = total / result.deposit.seconds;

  mws::client::ReceivingClient& rc =
      scenario->company(UtilityScenario::kCServices);
  const auto fetch_start = std::chrono::steady_clock::now();
  if (!rc.Authenticate().ok()) std::abort();
  if (batch <= 1) {
    // The single-shot protocol: one retrieve, then one PKG round trip
    // and one decryption per message.
    auto response = rc.Retrieve().value();
    if (!rc.AuthenticateWithPkg(response.token).ok()) std::abort();
    for (const mws::wire::RetrievedMessage& m : response.messages) {
      auto key = rc.RequestKey(m.aid, m.nonce).value();
      result.plain.emplace_back(m.message_id,
                                rc.DecryptMessage(m, key).value());
    }
  } else {
    // The batch plane: chunked retrieval, then DecryptAll over
    // batch-sized slices (keys batched, pairings fanned out).
    auto response = rc.RetrieveChunked(0, 0, 0, batch).value();
    if (!rc.AuthenticateWithPkg(response.token).ok()) std::abort();
    for (size_t offset = 0; offset < response.messages.size();
         offset += batch) {
      const size_t count = std::min(batch, response.messages.size() - offset);
      std::vector<mws::wire::RetrievedMessage> slice(
          response.messages.begin() + offset,
          response.messages.begin() + offset + count);
      std::vector<mws::client::ReceivedMessage> decrypted =
          rc.DecryptAll(slice).value();
      for (mws::client::ReceivedMessage& m : decrypted) {
        result.plain.emplace_back(m.message_id, std::move(m.plaintext));
      }
    }
  }
  result.fetch.seconds = Seconds(fetch_start);
  result.fetch.msgs_per_sec = result.plain.size() / result.fetch.seconds;
  return result;
}

void PrintSweep(const SweepResult& s) {
  std::printf("%-8s batch %4zu   deposit %8.1f msg/s (%.3fs)   "
              "retrieve+decrypt %8.1f msg/s (%.3fs)\n",
              s.network, s.batch, s.deposit.msgs_per_sec, s.deposit.seconds,
              s.fetch.msgs_per_sec, s.fetch.seconds);
}

const SweepResult* FindSweep(const std::vector<SweepResult>& sweeps,
                             const char* network, size_t batch) {
  for (const SweepResult& s : sweeps) {
    if (s.batch == batch && std::strcmp(s.network, network) == 0) return &s;
  }
  return nullptr;
}

double FetchSpeedup(const std::vector<SweepResult>& sweeps,
                    const char* network) {
  const SweepResult* b1 = FindSweep(sweeps, network, 1);
  const SweepResult* b64 = FindSweep(sweeps, network, 64);
  if (b1 == nullptr || b64 == nullptr) return 0.0;
  return b64->fetch.msgs_per_sec / b1->fetch.msgs_per_sec;
}

int Run(bool smoke, const std::string& json_path) {
  const size_t messages = smoke ? 64 : 256;
  const std::vector<size_t> batches =
      smoke ? std::vector<size_t>{1, 64} : std::vector<size_t>{1, 8, 64, 256};
  const NetworkProfile profiles[] = {
      {"loopback", mws::wire::NetworkModel::Loopback(), false},
      {"wan", mws::wire::NetworkModel::Wan(), true},
  };
  std::printf("%zu messages per sweep, %u hardware threads\n\n", messages,
              std::thread::hardware_concurrency());

  std::vector<SweepResult> sweeps;
  for (const NetworkProfile& profile : profiles) {
    for (size_t batch : batches) {
      sweeps.push_back(RunSweep(batch, messages, profile));
      PrintSweep(sweeps.back());
    }
  }

  // Equivalence across the sweep: every batch size, under every network
  // profile, must deliver the same (id, plaintext) sequence bit for bit.
  for (size_t i = 1; i < sweeps.size(); ++i) {
    if (sweeps[i].plain != sweeps[0].plain) {
      std::fprintf(stderr,
                   "FAIL: %s batch %zu plaintexts differ from %s batch %zu\n",
                   sweeps[i].network, sweeps[i].batch, sweeps[0].network,
                   sweeps[0].batch);
      return 1;
    }
  }
  std::printf("\nequivalence: all %zu sweeps bit-identical\n", sweeps.size());

  const double loopback_speedup = FetchSpeedup(sweeps, "loopback");
  const double wan_speedup = FetchSpeedup(sweeps, "wan");
  std::printf("batch 64 vs 1 retrieve+decrypt: %.2fx loopback, %.2fx wan\n",
              loopback_speedup, wan_speedup);

  std::string out = "{\n";
  out += "  \"experiment\": \"e17_batching\",\n";
  out += "  \"messages\": " + std::to_string(messages) + ",\n";
  out += "  \"hardware_threads\": " +
         std::to_string(std::thread::hardware_concurrency()) + ",\n";
  out += "  \"sweeps\": [\n";
  for (size_t i = 0; i < sweeps.size(); ++i) {
    const SweepResult& s = sweeps[i];
    char buf[288];
    std::snprintf(buf, sizeof(buf),
                  "    {\"network\": \"%s\", \"batch\": %zu, "
                  "\"deposit_msgs_per_sec\": %.1f, "
                  "\"fetch_msgs_per_sec\": %.1f, \"deposit_seconds\": %.4f, "
                  "\"fetch_seconds\": %.4f}%s\n",
                  s.network, s.batch, s.deposit.msgs_per_sec,
                  s.fetch.msgs_per_sec, s.deposit.seconds, s.fetch.seconds,
                  i + 1 < sweeps.size() ? "," : "");
    out += buf;
  }
  out += "  ],\n";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  \"fetch_speedup_batch64_vs_1\": %.2f,\n"
                "  \"fetch_speedup_batch64_vs_1_loopback\": %.2f,\n"
                "  \"headline_network\": \"wan\",\n",
                wan_speedup, loopback_speedup);
  out += buf;
  out += "  \"equivalence\": \"bit-identical\"\n";
  out += "}\n";
  if (json_path.empty()) {
    std::printf("\n%s", out.c_str());
  } else {
    std::ofstream f(json_path);
    f << out;
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  // Smoke regression gates. Loopback: batching must never cost
  // throughput (0.6x keeps a loaded CI machine from flaking the check
  // while still catching a batch path that fell off its fast path).
  // WAN: the round-trip amortization must survive — 2x is generous
  // against the >= 3x full-run bar.
  if (smoke && loopback_speedup < 0.6) {
    std::fprintf(stderr,
                 "FAIL: loopback batch-64 retrieve+decrypt %.2fx slower "
                 "than single-shot\n",
                 loopback_speedup);
    return 1;
  }
  if (smoke && wan_speedup < 2.0) {
    std::fprintf(stderr,
                 "FAIL: wan batch-64 retrieve+decrypt speedup %.2fx below "
                 "the 2x smoke floor\n",
                 wan_speedup);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    }
  }
  std::printf("=== E17: batching and amortization ===\n\n");
  return Run(smoke, json_path);
}
