// Cross-preset property sweeps over the math substrate: field edge
// cases near the modulus, inversion corner cases, point serialization,
// and group-law consistency at every parameter strength.

#include <gtest/gtest.h>

#include "src/math/params.h"
#include "src/util/random.h"

namespace mws::math {
namespace {

using util::DeterministicRandom;

class MathPresetTest : public ::testing::TestWithParam<ParamPreset> {
 protected:
  const TypeAParams& P() { return GetParams(GetParam()); }
};

TEST_P(MathPresetTest, FieldEdgeValues) {
  const FpCtx* ctx = P().ctx();
  const BigInt& p = P().p();
  // 0, 1, p-1, p, p+1 all behave.
  Fp zero = Fp::FromBigInt(ctx, BigInt(0));
  Fp one = Fp::FromBigInt(ctx, BigInt(1));
  Fp pm1 = Fp::FromBigInt(ctx, p - BigInt(1));
  EXPECT_TRUE(zero.IsZero());
  EXPECT_TRUE(one.IsOne());
  EXPECT_TRUE(Fp::FromBigInt(ctx, p).IsZero());
  EXPECT_TRUE(Fp::FromBigInt(ctx, p + BigInt(1)).IsOne());
  // (p-1) == -1: squares to 1, adds with 1 to 0.
  EXPECT_TRUE(pm1.Sqr().IsOne());
  EXPECT_TRUE((pm1 + one).IsZero());
  EXPECT_EQ(pm1.Neg(), one);
  // Inversions at the corners.
  EXPECT_TRUE(one.Inv().IsOne());
  EXPECT_EQ(pm1.Inv(), pm1);  // (-1)^-1 == -1
}

TEST_P(MathPresetTest, InversionSweep) {
  const FpCtx* ctx = P().ctx();
  DeterministicRandom rng(42);
  for (int i = 0; i < 20; ++i) {
    Fp a = Fp::FromBigInt(ctx, BigInt::RandomBelow(rng, P().p()));
    if (a.IsZero()) continue;
    EXPECT_TRUE((a * a.Inv()).IsOne());
    EXPECT_EQ(a.Inv().Inv(), a);
  }
  // Powers of two (sparse limb patterns stress the binary GCD).
  for (size_t shift : {1u, 63u, 64u, 65u, 127u}) {
    if (shift >= P().p().BitLength()) continue;
    Fp a = Fp::FromBigInt(ctx, BigInt(1) << shift);
    EXPECT_TRUE((a * a.Inv()).IsOne()) << shift;
  }
}

TEST_P(MathPresetTest, PointSerializationSweep) {
  DeterministicRandom rng(7);
  for (int i = 0; i < 5; ++i) {
    EcPoint point = P().RandomPoint(rng);
    auto bytes = P().curve().Serialize(point);
    EXPECT_EQ(bytes.size(), P().PointBytes());
    EXPECT_EQ(P().curve().Deserialize(bytes).value(), point);
  }
}

TEST_P(MathPresetTest, GroupLawsOnRandomPoints) {
  DeterministicRandom rng(9);
  EcPoint a = P().RandomPoint(rng);
  EcPoint b = P().RandomPoint(rng);
  EcPoint c = P().RandomPoint(rng);
  const CurveGroup& curve = P().curve();
  EXPECT_EQ(curve.Add(a, b), curve.Add(b, a));
  EXPECT_EQ(curve.Add(curve.Add(a, b), c), curve.Add(a, curve.Add(b, c)));
  EXPECT_EQ(curve.Add(a, curve.Negate(a)), EcPoint::Infinity());
  EXPECT_TRUE(curve.IsOnCurve(curve.Add(a, b)));
}

TEST_P(MathPresetTest, LazyFp2KernelsMatchReferenceSweep) {
  // The lazy-reduction F_p2 multiply/square (one Montgomery reduction
  // per output coefficient, MontMulAcc2 chains) must be bit-identical
  // to the per-product-reduction reference formulas at every preset
  // limb count: both produce canonical residues.
  const FpCtx* ctx = P().ctx();
  DeterministicRandom rng(12);
  auto random_fp2 = [&] {
    return Fp2(Fp::FromBigInt(ctx, BigInt::RandomBelow(rng, P().p())),
               Fp::FromBigInt(ctx, BigInt::RandomBelow(rng, P().p())));
  };
  std::vector<Fp2> edge = {
      Fp2::Zero(ctx),
      Fp2::One(ctx),
      Fp2(Fp::Zero(ctx), Fp::One(ctx)),                      // i
      Fp2(Fp::FromBigInt(ctx, P().p() - BigInt(1)),          // -1 - i
          Fp::FromBigInt(ctx, P().p() - BigInt(1))),
      Fp2(Fp::FromBigInt(ctx, P().p() - BigInt(1)), Fp::Zero(ctx)),
  };
  for (int i = 0; i < 12; ++i) edge.push_back(random_fp2());
  for (const Fp2& a : edge) {
    EXPECT_EQ(a.Sqr(), a.SqrReference());
    EXPECT_EQ(a.Sqr(), a.MulReference(a));
    for (const Fp2& b : edge) {
      EXPECT_EQ(a * b, a.MulReference(b));
      EXPECT_EQ(a * b, b * a);
    }
  }
}

TEST_P(MathPresetTest, PairingConsistentWithScalars) {
  DeterministicRandom rng(11);
  const EcPoint& g = P().generator();
  BigInt k(12345);
  Fp2 direct = P().Pairing(P().curve().ScalarMul(k, g), g);
  Fp2 powered = P().Pairing(g, g).Pow(k);
  EXPECT_EQ(direct, powered);
}

INSTANTIATE_TEST_SUITE_P(AllPresets, MathPresetTest,
                         ::testing::Values(ParamPreset::kSmall,
                                           ParamPreset::kTest,
                                           ParamPreset::kLarge),
                         [](const ::testing::TestParamInfo<ParamPreset>&
                                info) {
                           switch (info.param) {
                             case ParamPreset::kSmall:
                               return "Small";
                             case ParamPreset::kTest:
                               return "Test";
                             case ParamPreset::kLarge:
                               return "Large";
                           }
                           return "Unknown";
                         });

TEST(MathGenerateTest, FreshParametersAreSelfConsistent) {
  // Generation (not just the baked presets) yields a working pairing.
  DeterministicRandom rng(20260706);
  auto params = TypeAParams::Generate(48, 160, rng);
  ASSERT_TRUE(params.ok()) << params.status();
  const auto& p = *params.value();
  BigInt a = p.RandomScalar(rng);
  BigInt b = p.RandomScalar(rng);
  const EcPoint& g = p.generator();
  EXPECT_EQ(p.Pairing(p.curve().ScalarMul(a, g), p.curve().ScalarMul(b, g)),
            p.Pairing(g, g).Pow(BigInt::Mod(a * b, p.q())));
}

TEST(MathGenerateTest, RejectsImpossibleSizes) {
  DeterministicRandom rng(1);
  EXPECT_FALSE(TypeAParams::Generate(160, 160, rng).ok());
}

}  // namespace
}  // namespace mws::math
