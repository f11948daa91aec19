// E9 — §III requirement iii (revocation): what the per-message-nonce
// design costs and buys. Measures the policy flip itself, the price an
// RC pays in PKG extractions (one per message — the revocation
// mechanism's running cost), and proves the end-to-end effect.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "src/sim/scenario.h"

namespace {

using mws::sim::UtilityScenario;

void PrintRevocationProof() {
  std::printf("revocation effect (C-Services loses ELECTRIC):\n");
  auto s = UtilityScenario::Create({}).value();
  s->DepositReadings(1).value();
  size_t before = s->RetrieveFor(UtilityScenario::kCServices)->size();
  s->mws()
      .RevokeAttribute(UtilityScenario::kCServices,
                       UtilityScenario::kElectricAttr)
      .ok();
  s->DepositReadings(1).value();
  size_t after = s->RetrieveFor(UtilityScenario::kCServices)->size();
  std::printf("  readable before revocation: %zu of 3\n", before);
  std::printf("  readable after (3 old + 3 new deposited): %zu "
              "(electric excluded)\n\n", after);
}

/// The policy flip itself: revoke + re-grant round.
void BM_RevokeGrantRound(benchmark::State& state) {
  auto s = UtilityScenario::Create({}).value();
  for (auto _ : state) {
    s->mws()
        .RevokeAttribute(UtilityScenario::kCServices,
                         UtilityScenario::kElectricAttr)
        .ok();
    benchmark::DoNotOptimize(
        s->mws()
            .GrantAttribute(UtilityScenario::kCServices,
                            UtilityScenario::kElectricAttr)
            .value());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RevokeGrantRound);

/// The running cost revocation imposes: every message needs its own PKG
/// extraction (fresh nonce => fresh key). This measures an RC draining a
/// backlog of N messages through FetchAndDecrypt: N extractions in one
/// batched PKG round trip, fanned out over the PKG's hardware threads,
/// then N decryptions fanned out over the RC's.
void BM_PerMessageExtractionCost(benchmark::State& state) {
  auto s = UtilityScenario::Create({}).value();
  s->DepositReadings(state.range(0)).value();
  auto& rc = s->company(UtilityScenario::kWaterResources);
  for (auto _ : state) {
    auto messages = rc.FetchAndDecrypt();
    if (static_cast<int64_t>(messages->size()) != state.range(0)) {
      state.SkipWithError("unexpected message count");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetLabel(std::to_string(state.range(0)) + " msgs = " +
                 std::to_string(state.range(0)) + " extracts");
}
BENCHMARK(BM_PerMessageExtractionCost)->Arg(1)->Arg(4)->Arg(16);

/// The counterfactual WITHOUT per-message nonces: one extraction per
/// attribute, keys cached across messages. This is what the paper gave
/// up for revocation; the gap to BM_PerMessageExtractionCost is the
/// price of requirement iii.
void BM_CounterfactualSharedKey(benchmark::State& state) {
  auto s = UtilityScenario::Create({}).value();
  s->DepositReadings(state.range(0)).value();
  auto& rc = s->company(UtilityScenario::kWaterResources);
  for (auto _ : state) {
    rc.Authenticate().ok();
    auto retrieved = rc.Retrieve().value();
    rc.AuthenticateWithPkg(retrieved.token).ok();
    // One extraction (first message), reused for decryption of all —
    // decrypts succeed only for the first message; we time the protocol
    // cost shape, not correctness (which the nonce design prevents).
    auto key = rc.RequestKey(retrieved.messages[0].aid,
                             retrieved.messages[0].nonce)
                   .value();
    size_t decrypted = 0;
    for (const auto& m : retrieved.messages) {
      auto plaintext = rc.DecryptMessage(m, key);
      decrypted += plaintext.ok() ? 1 : 0;
    }
    benchmark::DoNotOptimize(decrypted);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetLabel(std::to_string(state.range(0)) + " msgs = 1 extract");
}
BENCHMARK(BM_CounterfactualSharedKey)->Arg(1)->Arg(4)->Arg(16);

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== E9: revocation (requirement iii) ===\n\n");
  PrintRevocationProof();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
