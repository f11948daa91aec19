// Property tests for the precomputation fast paths: fixed-base tables,
// wNAF variable-base scalar multiplication, Jacobian group-law
// overloads, cached Miller-loop lines, and windowed Fp2 exponentiation.
// Every fast path must be bit-identical to its reference implementation
// (field elements are canonical Montgomery residues, so algebraic
// equality is limb equality).

#include <gtest/gtest.h>

#include "src/crypto/drbg.h"
#include "src/ibe/bf_ibe.h"
#include "src/math/params.h"
#include "src/math/precompute.h"
#include "src/util/random.h"

namespace mws::math {
namespace {

using crypto::HmacDrbg;
using ibe::BfIbe;
using util::Bytes;
using util::BytesFromString;
using util::DeterministicRandom;

class PrecomputeTest : public ::testing::Test {
 protected:
  const TypeAParams& P() { return GetParams(ParamPreset::kSmall); }

  /// Edge-case scalars: zero, unit, around the order, negatives.
  std::vector<BigInt> EdgeScalars() {
    const BigInt& q = P().q();
    return {BigInt(0),  BigInt(1),  q - BigInt(1), q,
            q + BigInt(7), BigInt(-1), BigInt(-5),   -q};
  }
};

TEST_F(PrecomputeTest, FixedBaseTableMatchesBinaryReference) {
  const CurveGroup& curve = P().curve();
  DeterministicRandom rng(101);
  EcPoint base = P().RandomPoint(rng);
  FixedBaseTable table(curve, base, P().q());
  for (int i = 0; i < 32; ++i) {
    BigInt k = P().RandomScalar(rng);
    EXPECT_EQ(table.Mul(k), curve.ScalarMulBinary(k, base)) << i;
  }
}

TEST_F(PrecomputeTest, FixedBaseTableEdgeScalars) {
  const CurveGroup& curve = P().curve();
  DeterministicRandom rng(102);
  EcPoint base = P().RandomPoint(rng);
  FixedBaseTable table(curve, base, P().q());
  for (const BigInt& k : EdgeScalars()) {
    // Reduce for the reference too: binary on raw q gives infinity, and
    // negative k folds through the point order either way.
    EXPECT_EQ(table.Mul(k), curve.ScalarMulBinary(k, base));
  }
  EXPECT_TRUE(table.Mul(BigInt(0)).is_infinity());
  EXPECT_TRUE(table.Mul(P().q()).is_infinity());
  EXPECT_EQ(table.Mul(BigInt(1)), base);
}

TEST_F(PrecomputeTest, FixedBaseTableWindowVariantsAgree) {
  const CurveGroup& curve = P().curve();
  DeterministicRandom rng(103);
  EcPoint base = P().RandomPoint(rng);
  BigInt k = P().RandomScalar(rng);
  EcPoint expected = curve.ScalarMulBinary(k, base);
  for (size_t w = 2; w <= 6; ++w) {
    FixedBaseTable table(curve, base, P().q(), w);
    EXPECT_EQ(table.Mul(k), expected) << "window " << w;
  }
}

TEST_F(PrecomputeTest, GeneratorTableBacksMulGenerator) {
  DeterministicRandom rng(104);
  for (int i = 0; i < 8; ++i) {
    BigInt k = P().RandomScalar(rng);
    EXPECT_EQ(P().MulGenerator(k),
              P().curve().ScalarMulBinary(k, P().generator()));
  }
}

TEST_F(PrecomputeTest, WnafScalarMulMatchesBinaryReference) {
  const CurveGroup& curve = P().curve();
  DeterministicRandom rng(105);
  for (int i = 0; i < 24; ++i) {
    EcPoint p = P().RandomPoint(rng);
    BigInt k = P().RandomScalar(rng);
    EXPECT_EQ(curve.ScalarMul(k, p), curve.ScalarMulBinary(k, p)) << i;
  }
}

TEST_F(PrecomputeTest, WnafScalarMulEdgeCases) {
  const CurveGroup& curve = P().curve();
  DeterministicRandom rng(106);
  EcPoint p = P().RandomPoint(rng);
  for (const BigInt& k : EdgeScalars()) {
    EXPECT_EQ(curve.ScalarMul(k, p), curve.ScalarMulBinary(k, p));
  }
  // Small scalars exercise the binary fallback inside the wNAF path.
  for (int64_t small : {0, 1, 2, 3, 7, 255, 256, 257}) {
    EXPECT_EQ(curve.ScalarMul(BigInt(small), p),
              curve.ScalarMulBinary(BigInt(small), p))
        << small;
  }
  // Infinity in, infinity out.
  EXPECT_TRUE(curve.ScalarMul(BigInt(5), EcPoint::Infinity()).is_infinity());
  EXPECT_TRUE(curve.ScalarMul(BigInt(0), p).is_infinity());
}

TEST_F(PrecomputeTest, JacobianOverloadsMatchAffineGroupLaw) {
  const CurveGroup& curve = P().curve();
  DeterministicRandom rng(107);
  for (int i = 0; i < 12; ++i) {
    EcPoint a = P().RandomPoint(rng);
    EcPoint b = P().RandomPoint(rng);
    JacPoint ja = curve.ToJacobian(a);
    JacPoint jb = curve.ToJacobian(b);
    EXPECT_EQ(curve.ToAffine(curve.Add(ja, jb)), curve.Add(a, b));
    EXPECT_EQ(curve.ToAffine(curve.Add(ja, b)), curve.Add(a, b));
    EXPECT_EQ(curve.ToAffine(curve.Double(ja)), curve.Double(a));
    EXPECT_EQ(curve.ToAffine(curve.Negate(ja)), curve.Negate(a));
    // Round trip and identity laws.
    EXPECT_EQ(curve.ToAffine(ja), a);
    EXPECT_EQ(curve.ToAffine(curve.Add(curve.JacInfinity(), a)), a);
    EXPECT_EQ(curve.ToAffine(curve.Add(ja, curve.JacInfinity())), a);
    // p + (-p) = infinity through the mixed path.
    EXPECT_TRUE(curve.ToAffine(curve.Add(ja, curve.Negate(a))).is_infinity());
    // Mixed add degenerating to a double (equal inputs).
    EXPECT_EQ(curve.ToAffine(curve.Add(ja, a)), curve.Double(a));
  }
  EXPECT_TRUE(curve.ToAffine(curve.JacInfinity()).is_infinity());
}

TEST_F(PrecomputeTest, JacobianScalarMulMatchesAffine) {
  const CurveGroup& curve = P().curve();
  DeterministicRandom rng(108);
  for (int i = 0; i < 8; ++i) {
    EcPoint p = P().RandomPoint(rng);
    BigInt k = P().RandomScalar(rng);
    JacPoint jp = curve.ToJacobian(p);
    EXPECT_EQ(curve.ToAffine(curve.ScalarMul(k, jp)), curve.ScalarMul(k, p));
  }
}

TEST_F(PrecomputeTest, BatchToAffineMatchesIndividualConversion) {
  const CurveGroup& curve = P().curve();
  DeterministicRandom rng(109);
  std::vector<JacPoint> points;
  std::vector<EcPoint> expected;
  for (int i = 0; i < 9; ++i) {
    EcPoint p = P().RandomPoint(rng);
    // Mix of scaled representatives and infinity entries.
    JacPoint jp = curve.ToJacobian(p);
    if (i % 2 == 0) jp = curve.Add(curve.Double(jp), curve.Negate(p));
    if (i == 4) jp = curve.JacInfinity();
    points.push_back(jp);
    expected.push_back(curve.ToAffine(jp));
  }
  std::vector<EcPoint> got = BatchToAffine(curve, points);
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]) << i;
  }
}

TEST_F(PrecomputeTest, PairingPrecompMatchesGenericPairing) {
  DeterministicRandom rng(110);
  EcPoint p = P().RandomPoint(rng);
  PairingPrecomp precomp(P(), p);
  EXPECT_EQ(precomp.fixed_point(), p);
  EXPECT_GT(precomp.line_count(), 0u);
  for (int i = 0; i < 8; ++i) {
    EcPoint q = P().RandomPoint(rng);
    // The cached lines are NAF-recoded and normalized, so the raw Miller
    // value differs from the generic loops by a factor in F_p*; the
    // final exponentiation erases it and full pairings are bit-identical
    // on every path (v2 fast and pre-v2 reference).
    EXPECT_EQ(precomp.Pairing(q), P().Pairing(p, q)) << i;
    EXPECT_EQ(precomp.Pairing(q), P().PairingReference(p, q)) << i;
    EXPECT_EQ(P().FinalExponentiation(precomp.Miller(q)),
              P().Pairing(p, q))
        << i;
  }
  // Infinity second argument: pairing is 1 on both paths.
  EXPECT_EQ(precomp.Pairing(EcPoint::Infinity()),
            P().Pairing(p, EcPoint::Infinity()));
}

TEST_F(PrecomputeTest, PairingPrecompOfInfinityIsTrivial) {
  DeterministicRandom rng(111);
  PairingPrecomp precomp(P(), EcPoint::Infinity());
  EcPoint q = P().RandomPoint(rng);
  EXPECT_EQ(precomp.Pairing(q), P().Pairing(EcPoint::Infinity(), q));
  EXPECT_TRUE(precomp.Pairing(q).IsOne());
}

TEST_F(PrecomputeTest, PairingManyMatchesSinglePairings) {
  DeterministicRandom rng(115);
  EcPoint p = P().RandomPoint(rng);
  PairingPrecomp precomp(P(), p);
  std::vector<EcPoint> qs;
  for (int i = 0; i < 6; ++i) qs.push_back(P().RandomPoint(rng));
  // Infinity entries must pass through as 1 without perturbing the rest
  // of the batch (the batched inversion skips them).
  qs.insert(qs.begin() + 2, EcPoint::Infinity());
  std::vector<Fp2> batch = precomp.PairingMany(qs);
  ASSERT_EQ(batch.size(), qs.size());
  for (size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(batch[i], precomp.Pairing(qs[i])) << i;
    EXPECT_EQ(batch[i], P().PairingReference(p, qs[i])) << i;
  }
  // Empty and single-element batches.
  EXPECT_TRUE(precomp.PairingMany({}).empty());
  std::vector<Fp2> one = precomp.PairingMany({qs[0]});
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], precomp.Pairing(qs[0]));
}

TEST_F(PrecomputeTest, PairingIsSymmetric) {
  // e(a, b) == e(b, a) justifies serving e(x, P) from the generator's
  // cached lines as e(P, x) (IBS Verify, threshold VerifyPartial).
  DeterministicRandom rng(112);
  for (int i = 0; i < 6; ++i) {
    EcPoint a = P().RandomPoint(rng);
    EcPoint b = P().RandomPoint(rng);
    EXPECT_EQ(P().Pairing(a, b), P().Pairing(b, a)) << i;
  }
  EcPoint a = P().RandomPoint(rng);
  EXPECT_EQ(P().generator_pairing().Pairing(a),
            P().Pairing(a, P().generator()));
}

TEST_F(PrecomputeTest, Fp2PowMatchesBinaryReference) {
  DeterministicRandom rng(113);
  Fp2 base = P().Pairing(P().RandomPoint(rng), P().RandomPoint(rng));
  std::vector<BigInt> exponents = {BigInt(0),     BigInt(1), BigInt(2),
                                   BigInt(12345), P().q(),   P().cofactor(),
                                   P().q() * P().cofactor() + BigInt(99)};
  for (int i = 0; i < 8; ++i) exponents.push_back(P().RandomScalar(rng));
  for (const BigInt& e : exponents) {
    EXPECT_EQ(base.Pow(e), base.PowBinary(e));
  }
  EXPECT_TRUE(base.Pow(BigInt(0)).IsOne());
  EXPECT_EQ(base.Pow(BigInt(1)), base);
}

TEST_F(PrecomputeTest, EncryptionBitIdenticalWithAndWithoutPrecompute) {
  BfIbe ibe(P());
  HmacDrbg setup_rng(BytesFromString("precompute-setup"));
  auto [params, master] = ibe.Setup(setup_rng);
  ASSERT_TRUE(params.has_precompute());
  ibe::SystemParams cold = params;
  cold.ClearPrecompute();
  ASSERT_FALSE(cold.has_precompute());

  Bytes id = BytesFromString("RC-IDENTITY");
  Bytes message = BytesFromString("the reading is 42 kWh");
  // Identical DRBG streams on both paths: ciphertexts must match byte
  // for byte, proving the fast path computes the exact same values.
  HmacDrbg rng_fast(BytesFromString("precompute-msg"));
  HmacDrbg rng_cold(BytesFromString("precompute-msg"));
  ibe::BasicCiphertext fast = ibe.Encrypt(params, id, message, rng_fast);
  ibe::BasicCiphertext slow = ibe.Encrypt(cold, id, message, rng_cold);
  EXPECT_EQ(fast.u, slow.u);
  EXPECT_EQ(fast.v, slow.v);

  HmacDrbg full_fast(BytesFromString("precompute-full"));
  HmacDrbg full_cold(BytesFromString("precompute-full"));
  ibe::FullCiphertext ff = ibe.EncryptFull(params, id, message, full_fast);
  ibe::FullCiphertext fc = ibe.EncryptFull(cold, id, message, full_cold);
  EXPECT_EQ(ff.u, fc.u);
  EXPECT_EQ(ff.v, fc.v);
  EXPECT_EQ(ff.w, fc.w);

  // And both decrypt.
  auto key = ibe.Extract(master, id);
  EXPECT_EQ(ibe.Decrypt(params, key, fast), message);
  auto round = ibe.DecryptFull(params, key, ff);
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round.value(), message);
}

TEST_F(PrecomputeTest, PrecomputeIsIdempotentAndRebuildable) {
  BfIbe ibe(P());
  HmacDrbg rng(BytesFromString("idempotent"));
  auto [params, master] = ibe.Setup(rng);
  const auto* table = params.p_pub_table.get();
  params.Precompute();  // Second call must not rebuild.
  EXPECT_EQ(params.p_pub_table.get(), table);
  params.ClearPrecompute();
  EXPECT_FALSE(params.has_precompute());
  params.Precompute();
  ASSERT_TRUE(params.has_precompute());
  DeterministicRandom prng(114);
  EcPoint q = P().RandomPoint(prng);
  EXPECT_EQ(params.p_pub_pairing->Pairing(q), P().Pairing(params.p_pub, q));
}

}  // namespace
}  // namespace mws::math
