#include <gtest/gtest.h>

#include <cstdint>

#include "src/math/params.h"
#include "src/util/random.h"

namespace mws::math {
namespace {

using util::DeterministicRandom;

// gtest names each instance with the raw bytes of its PresetCase, so the
// struct carries no padding: `reserved` keeps those bytes defined and the
// test names identical from build to build.
struct PresetCase {
  ParamPreset preset;
  uint32_t reserved = 0;
  size_t qbits;
  size_t pbits;
};
static_assert(sizeof(PresetCase) ==
              sizeof(ParamPreset) + sizeof(uint32_t) + 2 * sizeof(size_t));

class ParamsPresetTest : public ::testing::TestWithParam<PresetCase> {};

TEST_P(ParamsPresetTest, StructureValid) {
  const TypeAParams& p = GetParams(GetParam().preset);
  DeterministicRandom rng(1);
  EXPECT_EQ(p.q().BitLength(), GetParam().qbits);
  EXPECT_EQ(p.p().BitLength(), GetParam().pbits);
  EXPECT_EQ((p.p() % BigInt(4)).ToDecimal(), "3");
  EXPECT_EQ(p.cofactor() * p.q(), p.p() + BigInt(1));
  EXPECT_TRUE(BigInt::IsProbablePrime(p.p(), rng, 16));
  EXPECT_TRUE(BigInt::IsProbablePrime(p.q(), rng, 16));
}

TEST_P(ParamsPresetTest, GeneratorValid) {
  const TypeAParams& p = GetParams(GetParam().preset);
  EXPECT_TRUE(p.curve().IsOnCurve(p.generator()));
  EXPECT_TRUE(p.curve().ScalarMul(p.q(), p.generator()).is_infinity());
}

TEST_P(ParamsPresetTest, PairingBilinear) {
  const TypeAParams& p = GetParams(GetParam().preset);
  DeterministicRandom rng(2);
  BigInt a = p.RandomScalar(rng);
  BigInt b = p.RandomScalar(rng);
  const EcPoint& g = p.generator();
  Fp2 lhs = p.Pairing(p.curve().ScalarMul(a, g), p.curve().ScalarMul(b, g));
  Fp2 rhs = p.Pairing(g, g).Pow(BigInt::Mod(a * b, p.q()));
  EXPECT_EQ(lhs, rhs);
  EXPECT_FALSE(p.Pairing(g, g).IsOne());
}

TEST_P(ParamsPresetTest, SizesConsistent) {
  const TypeAParams& p = GetParams(GetParam().preset);
  EXPECT_EQ(p.FieldBytes(), GetParam().pbits / 8);
  EXPECT_EQ(p.PointBytes(), 1 + 2 * p.FieldBytes());
}

INSTANTIATE_TEST_SUITE_P(
    AllPresets, ParamsPresetTest,
    ::testing::Values(
        PresetCase{.preset = ParamPreset::kSmall, .qbits = 80, .pbits = 256},
        PresetCase{.preset = ParamPreset::kTest, .qbits = 160, .pbits = 512},
        PresetCase{.preset = ParamPreset::kLarge, .qbits = 224, .pbits = 1024}),
    [](const ::testing::TestParamInfo<PresetCase>& info) {
      return "q" + std::to_string(info.param.qbits);
    });

TEST(ParamsTest, PresetNamesDistinct) {
  EXPECT_STRNE(ParamPresetName(ParamPreset::kSmall),
               ParamPresetName(ParamPreset::kTest));
  EXPECT_STRNE(ParamPresetName(ParamPreset::kTest),
               ParamPresetName(ParamPreset::kLarge));
}

TEST(ParamsTest, InstancesAreSingletons) {
  const TypeAParams& a = GetParams(ParamPreset::kSmall);
  const TypeAParams& b = GetParams(ParamPreset::kSmall);
  EXPECT_EQ(&a, &b);
}

}  // namespace
}  // namespace mws::math
