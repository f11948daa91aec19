#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/math/fp.h"
#include "src/math/fp2.h"
#include "src/math/params.h"
#include "src/util/random.h"

namespace mws::math {
namespace {

using util::DeterministicRandom;

class FpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // A 256-bit prime == 3 mod 4 (secp256k1's field prime).
    p_ = BigInt::FromHex(
             "fffffffffffffffffffffffffffffffffffffffffffffffffffffffe"
             "fffffc2f")
             .value();
    auto ctx = FpCtx::Create(p_);
    ASSERT_TRUE(ctx.ok());
    ctx_ = std::move(ctx).value();
  }

  BigInt p_;
  std::unique_ptr<const FpCtx> ctx_;
};

TEST_F(FpTest, RejectsEvenModulus) {
  EXPECT_FALSE(FpCtx::Create(BigInt(8)).ok());
  EXPECT_FALSE(FpCtx::Create(BigInt(1)).ok());
}

TEST_F(FpTest, ZeroAndOne) {
  Fp zero = Fp::Zero(ctx_.get());
  Fp one = Fp::One(ctx_.get());
  EXPECT_TRUE(zero.IsZero());
  EXPECT_TRUE(one.IsOne());
  EXPECT_FALSE(one.IsZero());
  EXPECT_EQ(zero.ToBigInt().ToDecimal(), "0");
  EXPECT_EQ(one.ToBigInt().ToDecimal(), "1");
}

TEST_F(FpTest, RoundTripThroughMontgomery) {
  DeterministicRandom rng(1);
  for (int i = 0; i < 100; ++i) {
    BigInt v = BigInt::RandomBelow(rng, p_);
    EXPECT_EQ(Fp::FromBigInt(ctx_.get(), v).ToBigInt(), v);
  }
}

TEST_F(FpTest, ReductionOnInput) {
  Fp a = Fp::FromBigInt(ctx_.get(), p_ + BigInt(5));
  EXPECT_EQ(a.ToBigInt().ToDecimal(), "5");
  Fp b = Fp::FromBigInt(ctx_.get(), BigInt(-1));
  EXPECT_EQ(b.ToBigInt(), p_ - BigInt(1));
}

TEST_F(FpTest, FieldAxiomsRandomized) {
  DeterministicRandom rng(2);
  for (int i = 0; i < 50; ++i) {
    Fp a = Fp::FromBigInt(ctx_.get(), BigInt::RandomBelow(rng, p_));
    Fp b = Fp::FromBigInt(ctx_.get(), BigInt::RandomBelow(rng, p_));
    Fp c = Fp::FromBigInt(ctx_.get(), BigInt::RandomBelow(rng, p_));
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a - a, Fp::Zero(ctx_.get()));
    EXPECT_EQ(a + a.Neg(), Fp::Zero(ctx_.get()));
    EXPECT_EQ(a.Sqr(), a * a);
    EXPECT_EQ(a.Double(), a + a);
  }
}

TEST_F(FpTest, ArithmeticMatchesBigInt) {
  DeterministicRandom rng(3);
  for (int i = 0; i < 50; ++i) {
    BigInt x = BigInt::RandomBelow(rng, p_);
    BigInt y = BigInt::RandomBelow(rng, p_);
    Fp a = Fp::FromBigInt(ctx_.get(), x);
    Fp b = Fp::FromBigInt(ctx_.get(), y);
    EXPECT_EQ((a + b).ToBigInt(), BigInt::Mod(x + y, p_));
    EXPECT_EQ((a - b).ToBigInt(), BigInt::Mod(x - y, p_));
    EXPECT_EQ((a * b).ToBigInt(), BigInt::Mod(x * y, p_));
  }
}

TEST_F(FpTest, InverseRandomized) {
  DeterministicRandom rng(4);
  for (int i = 0; i < 30; ++i) {
    BigInt x = BigInt::RandomBelow(rng, p_ - BigInt(1)) + BigInt(1);
    Fp a = Fp::FromBigInt(ctx_.get(), x);
    EXPECT_TRUE((a * a.Inv()).IsOne());
  }
}

TEST_F(FpTest, PowMatchesModPow) {
  DeterministicRandom rng(5);
  BigInt x = BigInt::RandomBelow(rng, p_);
  BigInt e = BigInt::RandomBits(rng, 100);
  Fp a = Fp::FromBigInt(ctx_.get(), x);
  EXPECT_EQ(a.Pow(e).ToBigInt(), BigInt::ModPow(x, e, p_));
  EXPECT_TRUE(a.Pow(BigInt(0)).IsOne());
}

TEST_F(FpTest, SqrtOfSquares) {
  DeterministicRandom rng(6);
  for (int i = 0; i < 20; ++i) {
    Fp a = Fp::FromBigInt(ctx_.get(), BigInt::RandomBelow(rng, p_));
    Fp sq = a.Sqr();
    auto root = sq.Sqrt();
    ASSERT_TRUE(root.ok());
    EXPECT_EQ(root.value().Sqr(), sq);
  }
}

TEST_F(FpTest, SqrtRejectsNonResidue) {
  // -1 is a non-residue when p == 3 mod 4.
  Fp minus_one = Fp::One(ctx_.get()).Neg();
  EXPECT_EQ(minus_one.Legendre(), -1);
  EXPECT_FALSE(minus_one.Sqrt().ok());
}

TEST_F(FpTest, LegendreMultiplicative) {
  DeterministicRandom rng(7);
  for (int i = 0; i < 20; ++i) {
    BigInt x = BigInt::RandomBelow(rng, p_ - BigInt(1)) + BigInt(1);
    BigInt y = BigInt::RandomBelow(rng, p_ - BigInt(1)) + BigInt(1);
    Fp a = Fp::FromBigInt(ctx_.get(), x);
    Fp b = Fp::FromBigInt(ctx_.get(), y);
    EXPECT_EQ((a * b).Legendre(), a.Legendre() * b.Legendre());
  }
  EXPECT_EQ(Fp::Zero(ctx_.get()).Legendre(), 0);
}

// Legendre() is a binary Jacobi symbol; Euler's criterion a^((p-1)/2)
// is the oracle, on this fixture's 4-limb field and the 8-limb field of
// the test preset, over random, small and square values.
void ExpectLegendreMatchesEuler(const FpCtx* ctx, uint64_t seed) {
  const BigInt& p = ctx->modulus();
  const BigInt half = (p - BigInt(1)) >> 1;
  DeterministicRandom rng(seed);
  std::vector<Fp> values = {Fp::Zero(ctx), Fp::One(ctx), Fp::One(ctx).Neg()};
  for (uint64_t v = 2; v < 64; ++v) values.push_back(Fp::FromU64(ctx, v));
  for (int i = 0; i < 128; ++i) {
    Fp a = Fp::FromBigInt(ctx, BigInt::RandomBelow(rng, p));
    values.push_back(a);
    values.push_back(a.Sqr());
  }
  int residues = 0;
  int non_residues = 0;
  for (const Fp& a : values) {
    Fp euler = a.Pow(half);
    int expected = a.IsZero() ? 0 : euler.IsOne() ? 1 : -1;
    ASSERT_EQ(a.Legendre(), expected) << a.ToBigInt().ToDecimal();
    residues += expected == 1;
    non_residues += expected == -1;
  }
  EXPECT_GT(residues, 64);
  EXPECT_GT(non_residues, 32);
}

TEST_F(FpTest, LegendreMatchesEulersCriterion) {
  ExpectLegendreMatchesEuler(ctx_.get(), 8);
  ExpectLegendreMatchesEuler(GetParams(ParamPreset::kTest).ctx(), 9);
}

TEST_F(FpTest, BytesRoundTrip) {
  DeterministicRandom rng(8);
  Fp a = Fp::FromBigInt(ctx_.get(), BigInt::RandomBelow(rng, p_));
  util::Bytes b = a.ToBytes();
  EXPECT_EQ(b.size(), ctx_->byte_length());
  EXPECT_EQ(Fp::FromBytes(ctx_.get(), b), a);
}

// --- Fp2 ---

TEST_F(FpTest, Fp2Axioms) {
  DeterministicRandom rng(9);
  const FpCtx* ctx = ctx_.get();
  auto random_fp2 = [&] {
    return Fp2(Fp::FromBigInt(ctx, BigInt::RandomBelow(rng, p_)),
               Fp::FromBigInt(ctx, BigInt::RandomBelow(rng, p_)));
  };
  for (int i = 0; i < 30; ++i) {
    Fp2 a = random_fp2();
    Fp2 b = random_fp2();
    Fp2 c = random_fp2();
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a.Sqr(), a * a);
    EXPECT_EQ(a + a.Neg(), Fp2::Zero(ctx));
    if (!a.IsZero()) {
      EXPECT_TRUE((a * a.Inv()).IsOne());
    }
  }
}

TEST_F(FpTest, Fp2ImaginaryUnitSquaresToMinusOne) {
  const FpCtx* ctx = ctx_.get();
  Fp2 i(Fp::Zero(ctx), Fp::One(ctx));
  Fp2 minus_one = Fp2::FromFp(Fp::One(ctx).Neg());
  EXPECT_EQ(i.Sqr(), minus_one);
}

TEST_F(FpTest, Fp2ConjugateIsFrobenius) {
  // For z in F_p2, z^p equals the conjugate (Frobenius endomorphism).
  DeterministicRandom rng(10);
  const FpCtx* ctx = ctx_.get();
  Fp2 z(Fp::FromBigInt(ctx, BigInt::RandomBelow(rng, p_)),
        Fp::FromBigInt(ctx, BigInt::RandomBelow(rng, p_)));
  EXPECT_EQ(z.Pow(p_), z.Conjugate());
}

TEST_F(FpTest, Fp2NormMultiplicative) {
  DeterministicRandom rng(11);
  const FpCtx* ctx = ctx_.get();
  auto norm = [](const Fp2& z) { return z.re().Sqr() + z.im().Sqr(); };
  Fp2 a(Fp::FromBigInt(ctx, BigInt::RandomBelow(rng, p_)),
        Fp::FromBigInt(ctx, BigInt::RandomBelow(rng, p_)));
  Fp2 b(Fp::FromBigInt(ctx, BigInt::RandomBelow(rng, p_)),
        Fp::FromBigInt(ctx, BigInt::RandomBelow(rng, p_)));
  EXPECT_EQ(norm(a * b), norm(a) * norm(b));
}

TEST_F(FpTest, Fp2PowAndBytes) {
  const FpCtx* ctx = ctx_.get();
  Fp2 z(Fp::FromU64(ctx, 3), Fp::FromU64(ctx, 4));
  EXPECT_TRUE(z.Pow(BigInt(0)).IsOne());
  EXPECT_EQ(z.Pow(BigInt(1)), z);
  EXPECT_EQ(z.Pow(BigInt(5)), z * z * z * z * z);
  EXPECT_EQ(z.ToBytes().size(), 2 * ctx->byte_length());
}

}  // namespace
}  // namespace mws::math
