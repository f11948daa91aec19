// E7 — §IV primitive costs: the four Boneh–Franklin algorithms (Setup,
// Extract, Encrypt, Decrypt) across security presets, plus the pairing
// breakdown (Miller loop vs final exponentiation) and hash-to-point.
//
// Besides the Google Benchmark suite, this binary emits a machine-
// readable comparison of every precomputation fast path against its
// reference implementation:
//
//   bench_e7_ibe_primitives --json=BENCH_e7.json   # write the report
//   bench_e7_ibe_primitives --no-precompute        # report reference ns
//   bench_e7_ibe_primitives --smoke                # quick ctest pass
//
// The JSON records ns/op for the fast path, ns/op for the reference,
// and the speedup ratio per primitive.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/crypto/drbg.h"
#include "src/ibe/bf_ibe.h"
#include "src/math/params.h"
#include "src/math/precompute.h"

namespace {

using mws::crypto::HmacDrbg;
using mws::ibe::BasicCiphertext;
using mws::ibe::BfIbe;
using mws::math::BigInt;
using mws::math::EcPoint;
using mws::math::Fp;
using mws::math::Fp2;
using mws::math::GetParams;
using mws::math::PairingPrecomp;
using mws::math::ParamPreset;
using mws::math::TypeAParams;
using mws::util::Bytes;
using mws::util::BytesFromString;

const TypeAParams& Preset(int64_t index) {
  switch (index) {
    case 0:
      return GetParams(ParamPreset::kSmall);
    case 2:
      return GetParams(ParamPreset::kLarge);
    default:
      return GetParams(ParamPreset::kTest);
  }
}

void SetPresetLabel(benchmark::State& state) {
  state.SetLabel(ParamPresetName(state.range(0) == 0   ? ParamPreset::kSmall
                                 : state.range(0) == 2 ? ParamPreset::kLarge
                                                       : ParamPreset::kTest));
}

HmacDrbg MakeRng() { return HmacDrbg(BytesFromString("bench-seed")); }

void BM_IbeSetup(benchmark::State& state) {
  const TypeAParams& group = Preset(state.range(0));
  BfIbe ibe(group);
  HmacDrbg rng = MakeRng();
  for (auto _ : state) {
    auto setup = ibe.Setup(rng);
    benchmark::DoNotOptimize(setup);
  }
  SetPresetLabel(state);
}
BENCHMARK(BM_IbeSetup)->Arg(0)->Arg(1)->Arg(2);

void BM_IbeHashToPoint(benchmark::State& state) {
  const TypeAParams& group = Preset(state.range(0));
  BfIbe ibe(group);
  uint64_t i = 0;
  for (auto _ : state) {
    Bytes id = BytesFromString("identity-" + std::to_string(i++));
    benchmark::DoNotOptimize(ibe.HashToPoint(id));
  }
  SetPresetLabel(state);
}
BENCHMARK(BM_IbeHashToPoint)->Arg(0)->Arg(1)->Arg(2);

void BM_IbeExtract(benchmark::State& state) {
  const TypeAParams& group = Preset(state.range(0));
  BfIbe ibe(group);
  HmacDrbg rng = MakeRng();
  auto [params, master] = ibe.Setup(rng);
  uint64_t i = 0;
  for (auto _ : state) {
    Bytes id = BytesFromString("identity-" + std::to_string(i++));
    benchmark::DoNotOptimize(ibe.Extract(master, id));
  }
  SetPresetLabel(state);
}
BENCHMARK(BM_IbeExtract)->Arg(0)->Arg(1)->Arg(2);

void BM_IbeEncrypt(benchmark::State& state) {
  const TypeAParams& group = Preset(state.range(0));
  BfIbe ibe(group);
  HmacDrbg rng = MakeRng();
  auto [params, master] = ibe.Setup(rng);
  Bytes id = BytesFromString("recipient");
  Bytes message(64, 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(ibe.Encrypt(params, id, message, rng));
  }
  SetPresetLabel(state);
}
BENCHMARK(BM_IbeEncrypt)->Arg(0)->Arg(1)->Arg(2);

void BM_IbeDecrypt(benchmark::State& state) {
  const TypeAParams& group = Preset(state.range(0));
  BfIbe ibe(group);
  HmacDrbg rng = MakeRng();
  auto [params, master] = ibe.Setup(rng);
  Bytes id = BytesFromString("recipient");
  BasicCiphertext ct = ibe.Encrypt(params, id, Bytes(64, 'x'), rng);
  auto key = ibe.Extract(master, id);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ibe.Decrypt(params, key, ct));
  }
  SetPresetLabel(state);
}
BENCHMARK(BM_IbeDecrypt)->Arg(0)->Arg(1)->Arg(2);

void BM_IbeEncryptFull(benchmark::State& state) {
  const TypeAParams& group = Preset(state.range(0));
  BfIbe ibe(group);
  HmacDrbg rng = MakeRng();
  auto [params, master] = ibe.Setup(rng);
  Bytes id = BytesFromString("recipient");
  Bytes message(64, 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(ibe.EncryptFull(params, id, message, rng));
  }
  SetPresetLabel(state);
}
BENCHMARK(BM_IbeEncryptFull)->Arg(0)->Arg(1)->Arg(2);

void BM_IbeDecryptFull(benchmark::State& state) {
  const TypeAParams& group = Preset(state.range(0));
  BfIbe ibe(group);
  HmacDrbg rng = MakeRng();
  auto [params, master] = ibe.Setup(rng);
  Bytes id = BytesFromString("recipient");
  auto ct = ibe.EncryptFull(params, id, Bytes(64, 'x'), rng);
  auto key = ibe.Extract(master, id);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ibe.DecryptFull(params, key, ct));
  }
  SetPresetLabel(state);
}
BENCHMARK(BM_IbeDecryptFull)->Arg(0)->Arg(1)->Arg(2);

// --- Pairing breakdown ---

void BM_PairingFull(benchmark::State& state) {
  const TypeAParams& group = Preset(state.range(0));
  HmacDrbg rng = MakeRng();
  auto p = group.RandomPoint(rng);
  auto q = group.RandomPoint(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(group.Pairing(p, q));
  }
  SetPresetLabel(state);
}
BENCHMARK(BM_PairingFull)->Arg(0)->Arg(1)->Arg(2);

void BM_PairingMillerLoop(benchmark::State& state) {
  const TypeAParams& group = Preset(state.range(0));
  HmacDrbg rng = MakeRng();
  auto p = group.RandomPoint(rng);
  auto q = group.RandomPoint(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(group.MillerLoop(p, q));
  }
  SetPresetLabel(state);
}
BENCHMARK(BM_PairingMillerLoop)->Arg(0)->Arg(1)->Arg(2);

void BM_PairingFinalExp(benchmark::State& state) {
  const TypeAParams& group = Preset(state.range(0));
  HmacDrbg rng = MakeRng();
  auto z = group.MillerLoop(group.RandomPoint(rng), group.RandomPoint(rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(group.FinalExponentiation(z));
  }
  SetPresetLabel(state);
}
BENCHMARK(BM_PairingFinalExp)->Arg(0)->Arg(1)->Arg(2);

void BM_ScalarMul(benchmark::State& state) {
  const TypeAParams& group = Preset(state.range(0));
  HmacDrbg rng = MakeRng();
  auto p = group.RandomPoint(rng);
  auto k = group.RandomScalar(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(group.curve().ScalarMul(k, p));
  }
  SetPresetLabel(state);
}
BENCHMARK(BM_ScalarMul)->Arg(0)->Arg(1)->Arg(2);

// --- Precomputation fast paths ---

void BM_ScalarMulFixedBase(benchmark::State& state) {
  const TypeAParams& group = Preset(state.range(0));
  HmacDrbg rng = MakeRng();
  auto k = group.RandomScalar(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(group.MulGenerator(k));
  }
  SetPresetLabel(state);
}
BENCHMARK(BM_ScalarMulFixedBase)->Arg(0)->Arg(1)->Arg(2);

void BM_PairingPrecompEval(benchmark::State& state) {
  const TypeAParams& group = Preset(state.range(0));
  HmacDrbg rng = MakeRng();
  auto q = group.RandomPoint(rng);
  const PairingPrecomp& precomp = group.generator_pairing();
  for (auto _ : state) {
    benchmark::DoNotOptimize(precomp.Pairing(q));
  }
  SetPresetLabel(state);
}
BENCHMARK(BM_PairingPrecompEval)->Arg(0)->Arg(1)->Arg(2);

// --- Machine-readable fast-path vs reference report ---

struct Row {
  std::string name;
  double fast_ns = 0;
  double reference_ns = 0;
};

/// Fp::Sqrt before its Jacobi pre-check: the (p+1)/4 exponentiation
/// decides residuosity, so a non-residue costs a full power. The
/// fp_sqrt row's reference.
mws::util::Result<Fp> SqrtByExponent(const Fp& a) {
  if (a.IsZero()) return a;
  const BigInt& p = a.ctx()->modulus();
  Fp root = a.Pow((p + BigInt(1)) >> 2);
  if (root.Sqr() == a) return root;
  return mws::util::Status::InvalidArgument("not a quadratic residue");
}

/// ns/op via steady_clock: one warmup call, then the best (minimum)
/// mean over three independent measurement windows, each of at least
/// `min_iters` iterations and `min_ms` of wall time. The minimum is
/// the standard noise-robust estimator on a shared host — interference
/// only ever inflates a window's mean, so the smallest window is the
/// closest to the true cost.
template <typename F>
double MeasureNs(F&& fn, int min_iters, double min_ms) {
  fn();
  double best = 0;
  for (int window = 0; window < 3; ++window) {
    int iters = 0;
    auto start = std::chrono::steady_clock::now();
    double elapsed_ns = 0;
    do {
      fn();
      ++iters;
      elapsed_ns = std::chrono::duration<double, std::nano>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    } while (iters < min_iters || elapsed_ns < min_ms * 1e6);
    const double mean = elapsed_ns / iters;
    if (window == 0 || mean < best) best = mean;
  }
  return best;
}

std::vector<Row> MeasureFastPaths(const TypeAParams& group, bool smoke) {
  // Smoke still needs a floor of real measurement time: at two bare
  // iterations the millisecond-scale batch rows jitter by 3-4x on a
  // loaded single-core host, which would make the regression check
  // below meaningless.
  const int min_iters = smoke ? 5 : 20;
  const double min_ms = smoke ? 10.0 : 100.0;
  const mws::math::CurveGroup& curve = group.curve();

  BfIbe ibe(group);
  HmacDrbg rng = MakeRng();
  auto [params, master] = ibe.Setup(rng);

  // Rotating pre-generated inputs so no iteration sees a warm value twice.
  constexpr size_t kInputs = 16;
  std::vector<BigInt> scalars;
  std::vector<EcPoint> points;
  for (size_t i = 0; i < kInputs; ++i) {
    scalars.push_back(group.RandomScalar(rng));
    points.push_back(group.RandomPoint(rng));
  }
  Fp2 unit = group.Pairing(points[0], points[1]);
  // Identities as the device derives them (20-byte SHA-1 digests), and
  // square-root inputs alternating residue a^2 and non-residue -a^2
  // (-1 is a non-residue for p == 3 mod 4), as H1 meets them.
  std::vector<Bytes> identities;
  std::vector<Fp> radicands;
  for (size_t i = 0; i < kInputs; ++i) {
    identities.push_back(rng.Generate(20));
    Fp a = Fp::FromBigInt(group.ctx(), group.RandomScalar(rng));
    radicands.push_back(i % 2 == 0 ? a.Sqr() : a.Sqr().Neg());
  }

  std::vector<Row> rows;
  size_t n = 0;

  rows.push_back(
      {"scalar_mul_fixed_base",
       MeasureNs([&] { benchmark::DoNotOptimize(
                           group.MulGenerator(scalars[n++ % kInputs])); },
                 min_iters, min_ms),
       MeasureNs([&] { benchmark::DoNotOptimize(curve.ScalarMulBinary(
                           scalars[n++ % kInputs], group.generator())); },
                 min_iters, min_ms)});

  rows.push_back(
      {"scalar_mul_p_pub_fixed_base",
       MeasureNs([&] { benchmark::DoNotOptimize(
                           params.p_pub_table->Mul(scalars[n++ % kInputs])); },
                 min_iters, min_ms),
       MeasureNs([&] { benchmark::DoNotOptimize(curve.ScalarMulBinary(
                           scalars[n++ % kInputs], params.p_pub)); },
                 min_iters, min_ms)});

  rows.push_back(
      {"scalar_mul_variable_base",
       MeasureNs(
           [&] {
             const size_t k = n++ % kInputs;
             benchmark::DoNotOptimize(curve.ScalarMul(scalars[k], points[k]));
           },
           min_iters, min_ms),
       MeasureNs(
           [&] {
             const size_t k = n++ % kInputs;
             benchmark::DoNotOptimize(
                 curve.ScalarMulBinary(scalars[k], points[k]));
           },
           min_iters, min_ms)});

  const PairingPrecomp& precomp = *params.p_pub_pairing;
  rows.push_back(
      {"miller_loop_fixed_g1",
       MeasureNs([&] { benchmark::DoNotOptimize(
                           precomp.Miller(points[n++ % kInputs])); },
                 min_iters, min_ms),
       MeasureNs([&] { benchmark::DoNotOptimize(group.MillerLoop(
                           params.p_pub, points[n++ % kInputs])); },
                 min_iters, min_ms)});

  // Reference is the pre-v2 engine (binary Miller loop, unbatched
  // final exponentiation); group.Pairing now IS a fast path.
  rows.push_back(
      {"pairing_fixed_g1",
       MeasureNs([&] { benchmark::DoNotOptimize(
                           precomp.Pairing(points[n++ % kInputs])); },
                 min_iters, min_ms),
       MeasureNs([&] { benchmark::DoNotOptimize(group.PairingReference(
                           params.p_pub, points[n++ % kInputs])); },
                 min_iters, min_ms)});

  // Two-term product e(P_pub, q1) * e(P, q2) — the IBS Verify /
  // threshold VerifyPartial shape — against two reference pairings
  // multiplied in F_p2.
  rows.push_back(
      {"pairing_product",
       MeasureNs(
           [&] {
             const size_t k = n++ % (kInputs - 1);
             std::vector<mws::math::PairingTerm> terms;
             terms.push_back({params.p_pub_pairing.get(), {}, points[k]});
             terms.push_back(
                 {&group.generator_pairing(), {}, points[k + 1]});
             benchmark::DoNotOptimize(group.PairingProduct(terms));
           },
           min_iters, min_ms),
       MeasureNs(
           [&] {
             const size_t k = n++ % (kInputs - 1);
             benchmark::DoNotOptimize(
                 group.PairingReference(params.p_pub, points[k]) *
                 group.PairingReference(group.generator(), points[k + 1]));
           },
           min_iters, min_ms)});

  // Eight pairings sharing one fixed argument: cached lines + batched
  // final exponentiation (PairingMany) vs eight pre-v2 reference
  // pairings, mirroring the pairing_fixed_g1 row's reference. Both
  // columns are ns per 8-element batch. (Against eight independent
  // fast pairings the batch saves only the per-value easy-part
  // inversion, a ~5% effect that this host's noise floor swallows.)
  constexpr size_t kBatch = 8;
  rows.push_back(
      {"pairing_many_8",
       MeasureNs(
           [&] {
             std::vector<EcPoint> qs;
             for (size_t i = 0; i < kBatch; ++i) {
               qs.push_back(points[(n + i) % kInputs]);
             }
             ++n;
             benchmark::DoNotOptimize(precomp.PairingMany(qs));
           },
           min_iters, min_ms),
       MeasureNs(
           [&] {
             std::vector<Fp2> out;
             for (size_t i = 0; i < kBatch; ++i) {
               out.push_back(group.PairingReference(
                   params.p_pub, points[(n + i) % kInputs]));
             }
             ++n;
             benchmark::DoNotOptimize(out);
           },
           min_iters, min_ms)});

  // The device's seal pairing: H1's uncleared candidate paired and
  // raised to h*r mod q, against H1 (cofactor multiplication included),
  // the pairing and Pow(r) composed as the encryptors did before.
  rows.push_back(
      {"kem_encapsulate",
       MeasureNs(
           [&] {
             const size_t k = n++ % kInputs;
             benchmark::DoNotOptimize(
                 ibe.PairPpubHashedPow(params, identities[k], scalars[k]));
           },
           min_iters, min_ms),
       MeasureNs(
           [&] {
             const size_t k = n++ % kInputs;
             benchmark::DoNotOptimize(
                 ibe.PairPpub(params, ibe.HashToPoint(identities[k]))
                     .Pow(scalars[k]));
           },
           min_iters, min_ms)});

  rows.push_back(
      {"fp_sqrt",
       MeasureNs([&] { benchmark::DoNotOptimize(
                           radicands[n++ % kInputs].Sqrt()); },
                 min_iters, min_ms),
       MeasureNs([&] { benchmark::DoNotOptimize(
                           SqrtByExponent(radicands[n++ % kInputs])); },
                 min_iters, min_ms)});

  rows.push_back(
      {"fp2_pow_window",
       MeasureNs([&] { benchmark::DoNotOptimize(
                           unit.Pow(scalars[n++ % kInputs])); },
                 min_iters, min_ms),
       MeasureNs([&] { benchmark::DoNotOptimize(
                           unit.PowBinary(scalars[n++ % kInputs])); },
                 min_iters, min_ms)});

  return rows;
}

/// Returns false if any fast path measured slower than its reference
/// beyond the noise allowance — the smoke run turns that into a test
/// failure, so an accidental de-optimization of the v2 engine cannot
/// land silently.
bool EmitJson(const std::string& path, bool no_precompute, bool smoke) {
  // Smoke keeps ctest fast: the tiny preset with a couple iterations.
  ParamPreset preset = smoke ? ParamPreset::kSmall : ParamPreset::kTest;
  const TypeAParams& group = GetParams(preset);
  std::vector<Row> rows = MeasureFastPaths(group, smoke);

  std::string out = "{\n";
  out += "  \"preset\": \"" + std::string(ParamPresetName(preset)) + "\",\n";
  out += std::string("  \"no_precompute\": ") +
         (no_precompute ? "true" : "false") + ",\n";
  out += "  \"results\": [\n";
  char buf[256];
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    // Under --no-precompute the primary column reports the reference
    // path — the "before" numbers a regression check diffs against.
    double primary = no_precompute ? r.reference_ns : r.fast_ns;
    std::snprintf(buf, sizeof(buf),
                  "    {\"name\": \"%s\", \"ns_per_op\": %.1f, "
                  "\"reference_ns_per_op\": %.1f, \"speedup\": %.2f}%s\n",
                  r.name.c_str(), primary, r.reference_ns,
                  r.reference_ns / r.fast_ns,
                  i + 1 < rows.size() ? "," : "");
    out += buf;
  }
  out += "  ]\n}\n";

  if (path.empty()) {
    std::printf("%s", out.c_str());
  } else {
    std::ofstream f(path);
    f << out;
    std::printf("wrote %s\n", path.c_str());
  }
  bool ok = true;
  // 25% slack absorbs smoke-mode timing noise (two iterations on the
  // tiny preset); the tightest real fast path (fp2_pow_window, ~1.1x)
  // still clears it, and a fast path that fell behind its reference
  // trips it.
  constexpr double kSlack = 1.25;
  for (const Row& r : rows) {
    std::printf("  %-28s fast %10.1f ns  reference %12.1f ns  (%.2fx)\n",
                r.name.c_str(), r.fast_ns, r.reference_ns,
                r.reference_ns / r.fast_ns);
    if (r.fast_ns > r.reference_ns * kSlack) {
      std::printf("  REGRESSION: %s fast path slower than reference\n",
                  r.name.c_str());
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool no_precompute = false;
  std::string json_path;
  // Strip our flags before benchmark::Initialize — gbench only consumes
  // --benchmark_* and aborts on anything it does not recognize.
  int out_argc = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--no-precompute") == 0) {
      no_precompute = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      argv[out_argc++] = argv[i];
    }
  }
  argc = out_argc;

  std::printf("=== E7: IBE primitive costs ===\n\n");
  bool ok = EmitJson(json_path, no_precompute, smoke);
  if (smoke) return ok ? 0 : 1;

  std::printf("\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
