// E4 — Paper Fig. 3: the high-level architecture, component by
// component. Microbenchmarks for each box in the diagram: Smart Device
// encryption, SDA verification, Message Database store/fetch, MMS
// resolution, Token Generator, Gatekeeper, PKG extraction.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <limits>

#include "src/crypto/drbg.h"
#include "src/ibe/bf_ibe.h"
#include "src/sim/scenario.h"

namespace {

using mws::sim::UtilityScenario;
using mws::util::Bytes;
using mws::util::BytesFromString;

std::unique_ptr<UtilityScenario> NewScenario() {
  return std::move(UtilityScenario::Create({}).value());
}

/// Smart Device (client side): seal + MAC, no network or server work.
void BM_Component_SmartDeviceSeal(benchmark::State& state) {
  auto s = NewScenario();
  auto& device = s->devices()[0];
  for (auto _ : state) {
    benchmark::DoNotOptimize(device.BuildDeposit(
        UtilityScenario::kElectricAttr, BytesFromString("kWh=1.0")));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("warm: P_pub precompute tables amortized");
}
BENCHMARK(BM_Component_SmartDeviceSeal);

/// The cold counterpart: the device's very first seal after receiving
/// system params pays the P_pub table construction; here every
/// iteration rebuilds the tables before encapsulating.
void BM_Component_SmartDeviceSealCold(benchmark::State& state) {
  auto s = NewScenario();
  mws::ibe::SystemParams params = s->pkg().PublicParams();
  mws::ibe::IbeKem kem(*params.group, 8);
  mws::crypto::HmacDrbg rng(BytesFromString("fig3-cold"));
  Bytes attr = BytesFromString(UtilityScenario::kElectricAttr);
  for (auto _ : state) {
    params.ClearPrecompute();
    params.Precompute();
    benchmark::DoNotOptimize(kem.Encapsulate(params, attr, rng));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("cold: P_pub table construction + encapsulation");
}
BENCHMARK(BM_Component_SmartDeviceSealCold);

/// Smart Device Authenticator: MAC + freshness verification only.
void BM_Component_SdaVerify(benchmark::State& state) {
  auto s = NewScenario();
  auto request = s->devices()[0]
                     .BuildDeposit(UtilityScenario::kElectricAttr,
                                   BytesFromString("kWh=1.0"))
                     .value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(s->mws().sda().Verify(request));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Component_SdaVerify);

/// Message Database: append.
void BM_Component_MessageDbAppend(benchmark::State& state) {
  auto s = NewScenario();
  mws::store::StoredMessage m;
  m.u = Bytes(65, 1);
  m.ciphertext = Bytes(64, 2);
  m.attribute = UtilityScenario::kElectricAttr;
  m.nonce = Bytes(16, 3);
  m.device_id = "ELECTRIC-METER-0";
  // Benchmark through the service's own db reference.
  auto& db = const_cast<mws::store::MessageDb&>(s->mws().message_db());
  uint64_t n = 0;
  for (auto _ : state) {
    // A fresh nonce per message, so each iteration stores, not dedups.
    std::memcpy(m.nonce.data(), &++n, sizeof(n));
    benchmark::DoNotOptimize(db.Append({m}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Component_MessageDbAppend);

/// MMS: grant resolution + record fetch, with a loaded warehouse.
void BM_Component_MmsFetch(benchmark::State& state) {
  auto s = NewScenario();
  s->DepositReadings(state.range(0)).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(s->mws().mms().FetchChunkFor(
        UtilityScenario::kCServices, 0, 0, 0,
        std::numeric_limits<uint32_t>::max()));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::to_string(3 * state.range(0)) + " stored messages");
}
BENCHMARK(BM_Component_MmsFetch)->Arg(1)->Arg(10)->Arg(100);

/// Gatekeeper: one full password-challenge authentication.
void BM_Component_GatekeeperAuth(benchmark::State& state) {
  auto s = NewScenario();
  auto& rc = s->company(UtilityScenario::kCServices);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rc.Authenticate());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Component_GatekeeperAuth);

/// Token Generator: mint one token (RSA seal dominates).
void BM_Component_TokenGenerator(benchmark::State& state) {
  auto s = NewScenario();
  auto& rc = s->company(UtilityScenario::kCServices);
  auto grants =
      s->mws().mms().GrantsFor(UtilityScenario::kCServices).value();
  Bytes pub = mws::crypto::SerializeRsaPublicKey(rc.public_key());
  for (auto _ : state) {
    benchmark::DoNotOptimize(s->mws().token_generator().IssueToken(
        UtilityScenario::kCServices, pub, grants));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Component_TokenGenerator);

/// PKG: raw Extract (hash-to-point + scalar multiplication).
void BM_Component_PkgExtract(benchmark::State& state) {
  auto s = NewScenario();
  uint64_t n = 0;
  for (auto _ : state) {
    Bytes identity = BytesFromString("identity-" + std::to_string(n++));
    benchmark::DoNotOptimize(s->pkg().ExtractForIdentity(identity));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Component_PkgExtract);

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== E4: paper Fig. 3 component microbenchmarks ===\n");
  std::printf("components: SD, SDA, MD, MMS, Gatekeeper, TG, PKG\n\n");
  // --smoke: construction of the scenario exercised the stack; skip the
  // timed runs for ctest.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return 0;
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
