#include <gtest/gtest.h>

#include <memory>

#include "src/math/pairing.h"
#include "src/util/random.h"

namespace mws::math {
namespace {

using util::DeterministicRandom;

/// Generates one small parameter set per suite run (64/192 bits keeps the
/// whole suite fast) and checks every pairing property on it.
class PairingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DeterministicRandom rng(20100106);
    auto params = TypeAParams::Generate(64, 192, rng);
    ASSERT_TRUE(params.ok()) << params.status();
    params_ = params.value().release();
  }

  const TypeAParams& P() { return *params_; }

  static const TypeAParams* params_;
};

const TypeAParams* PairingTest::params_ = nullptr;

TEST_F(PairingTest, ParameterStructure) {
  DeterministicRandom rng(1);
  EXPECT_EQ((P().p() % BigInt(4)).ToDecimal(), "3");
  EXPECT_EQ(P().cofactor() * P().q(), P().p() + BigInt(1));
  EXPECT_TRUE(BigInt::IsProbablePrime(P().p(), rng));
  EXPECT_TRUE(BigInt::IsProbablePrime(P().q(), rng));
}

TEST_F(PairingTest, GeneratorHasOrderQ) {
  const EcPoint& g = P().generator();
  EXPECT_FALSE(g.is_infinity());
  EXPECT_TRUE(P().curve().IsOnCurve(g));
  EXPECT_TRUE(P().curve().ScalarMul(P().q(), g).is_infinity());
}

TEST_F(PairingTest, PairingIsNonDegenerate) {
  const EcPoint& g = P().generator();
  Fp2 e = P().Pairing(g, g);
  EXPECT_FALSE(e.IsOne());
  EXPECT_FALSE(e.IsZero());
}

TEST_F(PairingTest, PairingValueHasOrderQ) {
  const EcPoint& g = P().generator();
  Fp2 e = P().Pairing(g, g);
  EXPECT_TRUE(e.Pow(P().q()).IsOne());
}

TEST_F(PairingTest, BilinearInFirstArgument) {
  DeterministicRandom rng(2);
  const EcPoint& g = P().generator();
  BigInt a = P().RandomScalar(rng);
  Fp2 lhs = P().Pairing(P().curve().ScalarMul(a, g), g);
  Fp2 rhs = P().Pairing(g, g).Pow(a);
  EXPECT_EQ(lhs, rhs);
}

TEST_F(PairingTest, BilinearInSecondArgument) {
  DeterministicRandom rng(3);
  const EcPoint& g = P().generator();
  BigInt b = P().RandomScalar(rng);
  Fp2 lhs = P().Pairing(g, P().curve().ScalarMul(b, g));
  Fp2 rhs = P().Pairing(g, g).Pow(b);
  EXPECT_EQ(lhs, rhs);
}

TEST_F(PairingTest, FullBilinearity) {
  DeterministicRandom rng(4);
  const EcPoint& g = P().generator();
  for (int i = 0; i < 5; ++i) {
    BigInt a = P().RandomScalar(rng);
    BigInt b = P().RandomScalar(rng);
    EcPoint ap = P().curve().ScalarMul(a, g);
    EcPoint bp = P().curve().ScalarMul(b, g);
    Fp2 lhs = P().Pairing(ap, bp);
    Fp2 rhs = P().Pairing(g, g).Pow(BigInt::Mod(a * b, P().q()));
    EXPECT_EQ(lhs, rhs);
  }
}

TEST_F(PairingTest, TheBonehFranklinKeyAgreementIdentity) {
  // The identity the paper's protocol relies on: e(rP, sQ) == e(sP, rQ),
  // i.e. the RC with private key sI and the SD with randomness r derive
  // the same symmetric key.
  DeterministicRandom rng(5);
  const EcPoint& g = P().generator();
  BigInt r = P().RandomScalar(rng);
  BigInt s = P().RandomScalar(rng);
  EcPoint q_id = P().RandomPoint(rng);

  // SD computes e(sP, Q_ID)^r.
  EcPoint s_p = P().curve().ScalarMul(s, g);
  Fp2 sender_key = P().Pairing(s_p, q_id).Pow(r);
  // RC computes e(rP, sQ_ID).
  EcPoint r_p = P().curve().ScalarMul(r, g);
  EcPoint s_q = P().curve().ScalarMul(s, q_id);
  Fp2 receiver_key = P().Pairing(r_p, s_q);
  EXPECT_EQ(sender_key, receiver_key);
}

TEST_F(PairingTest, InfinityInputsGiveOne) {
  const EcPoint& g = P().generator();
  EXPECT_TRUE(P().Pairing(EcPoint::Infinity(), g).IsOne());
  EXPECT_TRUE(P().Pairing(g, EcPoint::Infinity()).IsOne());
}

TEST_F(PairingTest, PairingWithNegatedPointIsInverse) {
  DeterministicRandom rng(6);
  const EcPoint& g = P().generator();
  EcPoint q = P().RandomPoint(rng);
  Fp2 e = P().Pairing(g, q);
  Fp2 e_neg = P().Pairing(g, P().curve().Negate(q));
  EXPECT_TRUE((e * e_neg).IsOne());
}

TEST_F(PairingTest, DistinctPointsDistinctValues) {
  DeterministicRandom rng(7);
  const EcPoint& g = P().generator();
  EcPoint q1 = P().RandomPoint(rng);
  EcPoint q2 = P().RandomPoint(rng);
  if (q1 == q2) return;  // negligible
  EXPECT_NE(P().Pairing(g, q1), P().Pairing(g, q2));
}

TEST_F(PairingTest, MillerPlusFinalExpEqualsPairing) {
  DeterministicRandom rng(8);
  EcPoint a = P().RandomPoint(rng);
  EcPoint b = P().RandomPoint(rng);
  EXPECT_EQ(P().FinalExponentiation(P().MillerLoop(a, b)), P().Pairing(a, b));
}

TEST_F(PairingTest, LiftXProducesOrderQPoints) {
  DeterministicRandom rng(9);
  int produced = 0;
  for (int i = 0; i < 20 && produced < 5; ++i) {
    Fp x = Fp::FromBigInt(P().ctx(), BigInt::RandomBelow(rng, P().p()));
    auto point = P().LiftX(x);
    if (!point.ok()) continue;
    ++produced;
    EXPECT_TRUE(P().curve().IsOnCurve(point.value()));
    EXPECT_TRUE(
        P().curve().ScalarMul(P().q(), point.value()).is_infinity());
  }
  EXPECT_GE(produced, 1);
}

TEST_F(PairingTest, RandomScalarInRange) {
  DeterministicRandom rng(10);
  for (int i = 0; i < 50; ++i) {
    BigInt s = P().RandomScalar(rng);
    EXPECT_TRUE(s >= BigInt(1));
    EXPECT_TRUE(s < P().q());
  }
}

TEST_F(PairingTest, CreateValidatesInputs) {
  DeterministicRandom rng(11);
  // Wrong q (does not divide p+1).
  auto bad = TypeAParams::Create(P().p(), P().q() + BigInt(2),
                                 P().generator().x().ToBigInt(),
                                 P().generator().y().ToBigInt(), rng);
  EXPECT_FALSE(bad.ok());
  // Good parameters round-trip.
  auto good = TypeAParams::Create(P().p(), P().q(),
                                  P().generator().x().ToBigInt(),
                                  P().generator().y().ToBigInt(), rng);
  EXPECT_TRUE(good.ok()) << good.status();
}

TEST_F(PairingTest, CreateRejectsOffCurveGenerator) {
  DeterministicRandom rng(12);
  auto bad = TypeAParams::Create(P().p(), P().q(), BigInt(12345),
                                 BigInt(67890), rng);
  EXPECT_FALSE(bad.ok());
}

// The device's seal relies on gcd(h, q) = 1 (h*Q = O exactly when
// e(P, Q) = 1). Here p = 12 * 7^2 - 1 = 587, so h = 84 = 12 * 7 and
// every h*r is 0 mod q; (121, 522) is a valid point of order 7.
TEST(PairingCreateTest, RejectsQDividingTheCofactor) {
  DeterministicRandom rng(13);
  auto params = TypeAParams::Create(BigInt(587), BigInt(7), BigInt(121),
                                    BigInt(522), rng);
  ASSERT_FALSE(params.ok());
  EXPECT_EQ(params.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(PairingCreateTest, GenerateDrawsACofactorCoprimeToQ) {
  // With a 4-bit q and a 12-bit h, about one h in twelve is a multiple
  // of q, so fifty parameter sets meet that case.
  for (uint64_t seed = 0; seed < 50; ++seed) {
    DeterministicRandom rng(seed);
    auto params = TypeAParams::Generate(4, 16, rng);
    ASSERT_TRUE(params.ok()) << params.status();
    const TypeAParams& group = *params.value();
    EXPECT_EQ(group.cofactor() * group.q(), group.p() + BigInt(1));
    EXPECT_FALSE((group.cofactor() % group.q()).IsZero()) << "seed " << seed;
  }
}

// --- Fast-path (v2 engine) vs reference-path equivalence. Miller values
// differ between the two loops by a factor in F_p*, which the final
// exponentiation erases, so equality is asserted on full pairings and
// is bit-for-bit (all field ops produce canonical residues).

TEST_F(PairingTest, RecodingsReconstructTheirIntegers) {
  // q_naf: digits in {-1, 0, 1}, sum d_i * 2^i == q.
  BigInt acc(0);
  for (size_t i = P().q_naf().size(); i-- > 0;) {
    int8_t d = P().q_naf()[i];
    ASSERT_TRUE(d >= -1 && d <= 1);
    acc = (acc << 1) + BigInt(static_cast<int64_t>(d));
  }
  EXPECT_EQ(acc, P().q());
  // cofactor_wnaf: digits zero or odd in [-15, 15], sum == h.
  acc = BigInt(0);
  for (size_t i = P().cofactor_wnaf().size(); i-- > 0;) {
    int8_t d = P().cofactor_wnaf()[i];
    ASSERT_TRUE(d >= -15 && d <= 15);
    ASSERT_TRUE(d == 0 || (d & 1) != 0);
    acc = (acc << 1) + BigInt(static_cast<int64_t>(d));
  }
  EXPECT_EQ(acc, P().cofactor());
}

TEST_F(PairingTest, FastPairingMatchesReferenceOnRandomPoints) {
  DeterministicRandom rng(13);
  for (int i = 0; i < 8; ++i) {
    EcPoint a = P().RandomPoint(rng);
    EcPoint b = P().RandomPoint(rng);
    EXPECT_EQ(P().Pairing(a, b), P().PairingReference(a, b)) << i;
  }
}

TEST_F(PairingTest, FastPairingMatchesReferenceOnEdgeCases) {
  DeterministicRandom rng(14);
  EcPoint a = P().RandomPoint(rng);
  EcPoint inf = EcPoint::Infinity();
  EXPECT_EQ(P().Pairing(inf, a), P().PairingReference(inf, a));
  EXPECT_EQ(P().Pairing(a, inf), P().PairingReference(a, inf));
  EXPECT_EQ(P().Pairing(inf, inf), P().PairingReference(inf, inf));
  EXPECT_TRUE(P().Pairing(inf, a).IsOne());
  // Degenerate chords: P == Q and P == -Q in both slots.
  EXPECT_EQ(P().Pairing(a, a), P().PairingReference(a, a));
  EcPoint na = P().curve().Negate(a);
  EXPECT_EQ(P().Pairing(a, na), P().PairingReference(a, na));
  // The 2-torsion point (0, 0) lies on y^2 = x^3 + x but not in the
  // order-q subgroup; both loops must still agree through their
  // degenerate-branch handling.
  const FpCtx* ctx = P().ctx();
  EcPoint two_torsion(Fp::Zero(ctx), Fp::Zero(ctx));
  ASSERT_TRUE(P().curve().IsOnCurve(two_torsion));
  EXPECT_EQ(P().Pairing(two_torsion, a),
            P().PairingReference(two_torsion, a));
  EXPECT_EQ(P().Pairing(a, two_torsion),
            P().PairingReference(a, two_torsion));
}

TEST_F(PairingTest, NafMillerLoopDiffersOnlyByFinalExponentiation) {
  DeterministicRandom rng(15);
  EcPoint a = P().RandomPoint(rng);
  EcPoint b = P().RandomPoint(rng);
  EXPECT_EQ(P().FinalExponentiation(P().MillerLoopNaf(a, b)),
            P().FinalExponentiation(P().MillerLoop(a, b)));
}

TEST_F(PairingTest, FinalExponentiationMatchesReference) {
  DeterministicRandom rng(16);
  for (int i = 0; i < 6; ++i) {
    Fp2 z = P().MillerLoop(P().RandomPoint(rng), P().RandomPoint(rng));
    if (z.IsZero() || z.IsOne()) continue;
    EXPECT_EQ(P().FinalExponentiation(z),
              P().FinalExponentiationReference(z)) << i;
  }
  // Short-circuit paths: 0 and 1 pass through (the reference cannot
  // invert zero, so only the identity case is cross-checked).
  const FpCtx* ctx = P().ctx();
  EXPECT_TRUE(P().FinalExponentiation(Fp2::One(ctx)).IsOne());
  EXPECT_EQ(P().FinalExponentiation(Fp2::One(ctx)),
            P().FinalExponentiationReference(Fp2::One(ctx)));
  EXPECT_TRUE(P().FinalExponentiation(Fp2::Zero(ctx)).IsZero());
}

TEST_F(PairingTest, BatchedFinalExponentiationMatchesSingle) {
  DeterministicRandom rng(17);
  std::vector<Fp2> zs;
  for (int i = 0; i < 5; ++i) {
    zs.push_back(P().MillerLoop(P().RandomPoint(rng), P().RandomPoint(rng)));
  }
  // Degenerate entries interleaved mid-batch.
  zs.insert(zs.begin() + 2, Fp2::One(P().ctx()));
  zs.insert(zs.begin() + 4, Fp2::Zero(P().ctx()));
  std::vector<Fp2> batched = P().FinalExponentiationMany(zs);
  ASSERT_EQ(batched.size(), zs.size());
  for (size_t i = 0; i < zs.size(); ++i) {
    EXPECT_EQ(batched[i], P().FinalExponentiation(zs[i])) << i;
  }
  EXPECT_TRUE(P().FinalExponentiationMany({}).empty());
}

TEST_F(PairingTest, PairingProductMatchesIndividualPairings) {
  DeterministicRandom rng(18);
  const FpCtx* ctx = P().ctx();
  // Empty product is 1.
  EXPECT_TRUE(P().PairingProduct({}).IsOne());
  // 1..3 live terms.
  std::vector<PairingTerm> terms;
  Fp2 prod = Fp2::One(ctx);
  for (int k = 0; k < 3; ++k) {
    EcPoint a = P().RandomPoint(rng);
    EcPoint b = P().RandomPoint(rng);
    terms.push_back({nullptr, a, b});
    prod = prod * P().Pairing(a, b);
    // Bit-identical to the product of individual pairings at every size.
    EXPECT_EQ(P().PairingProduct(terms), prod) << k;
  }
  // Terms with an infinity point contribute exactly 1.
  std::vector<PairingTerm> with_inf = terms;
  with_inf.push_back({nullptr, EcPoint::Infinity(), P().RandomPoint(rng)});
  with_inf.push_back({nullptr, P().RandomPoint(rng), EcPoint::Infinity()});
  EXPECT_EQ(P().PairingProduct(with_inf), prod);
  // Precomputed terms (cached generator lines) mix with live terms.
  std::vector<PairingTerm> mixed;
  EcPoint q1 = P().RandomPoint(rng);
  EcPoint q2 = P().RandomPoint(rng);
  mixed.push_back({&P().generator_pairing(), EcPoint::Infinity(), q1});
  mixed.push_back({nullptr, q2, P().generator()});
  Fp2 mixed_expected =
      P().Pairing(P().generator(), q1) * P().Pairing(q2, P().generator());
  EXPECT_EQ(P().PairingProduct(mixed), mixed_expected);
}

}  // namespace
}  // namespace mws::math
