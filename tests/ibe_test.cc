#include <gtest/gtest.h>

#include "src/crypto/block_cipher.h"
#include "src/ibe/attribute.h"
#include "src/ibe/bf_ibe.h"
#include "src/ibe/hybrid.h"
#include "src/math/params.h"
#include "src/util/hex.h"
#include "src/util/random.h"

namespace mws::ibe {
namespace {

using math::GetParams;
using math::ParamPreset;
using util::Bytes;
using util::BytesFromString;
using util::DeterministicRandom;
using util::HexEncode;

class BfIbeTest : public ::testing::Test {
 protected:
  BfIbeTest() : ibe_(GetParams(ParamPreset::kSmall)), rng_(42) {
    auto setup = ibe_.Setup(rng_);
    params_ = setup.first;
    master_ = setup.second;
  }

  BfIbe ibe_;
  DeterministicRandom rng_;
  SystemParams params_;
  MasterKey master_;
};

TEST_F(BfIbeTest, SetupPublishesSP) {
  const auto& group = ibe_.group();
  EXPECT_EQ(params_.p_pub,
            group.curve().ScalarMul(master_.s, group.generator()));
  EXPECT_FALSE(params_.p_pub.is_infinity());
}

TEST_F(BfIbeTest, HashToPointDeterministicOrderQ) {
  Bytes id = BytesFromString("[email protected]");
  math::EcPoint q1 = ibe_.HashToPoint(id);
  math::EcPoint q2 = ibe_.HashToPoint(id);
  EXPECT_EQ(q1, q2);
  EXPECT_TRUE(ibe_.group().curve().IsOnCurve(q1));
  EXPECT_TRUE(ibe_.group().curve().ScalarMul(ibe_.group().q(), q1)
                  .is_infinity());
  EXPECT_NE(q1, ibe_.HashToPoint(BytesFromString("other-identity")));
}

// H1 known answers. Every stored ciphertext and extracted key depends
// on the identity-to-point mapping, so it must never move: these are
// the compressed points for two fixed identities at two presets.
std::string HashToPointHex(ParamPreset preset, const std::string& identity) {
  BfIbe ibe(GetParams(preset));
  return HexEncode(ibe.group().curve().SerializeCompressed(
      ibe.HashToPoint(BytesFromString(identity))));
}

TEST(HashToPointKnownAnswerTest, SmallPreset) {
  EXPECT_EQ(
      HashToPointHex(ParamPreset::kSmall, "ELECTRIC-BAYTOWER-SV-CA"),
      "0219bc558b22bc9b4bff54af3606a04bb839d18cc7b5f6305754fda59140796725");
  EXPECT_EQ(
      HashToPointHex(ParamPreset::kSmall, "GAS-BAYTOWER-SV-CA"),
      "023d96a1d1f633d98c63334604ca1d1d0c1bce3c3521b3a07f53c87ef741fc4782");
}

TEST(HashToPointKnownAnswerTest, TestPreset) {
  EXPECT_EQ(HashToPointHex(ParamPreset::kTest, "ELECTRIC-BAYTOWER-SV-CA"),
            "0363d3094d11f2a79afb34faaa14a9dfd259eedbd67884f804cdd65eab9ea3"
            "635db9793e548bb8f67a7ae3334b61e7f5c0045f1c0102646bca74abc04fcf"
            "242de4");
  EXPECT_EQ(HashToPointHex(ParamPreset::kTest, "GAS-BAYTOWER-SV-CA"),
            "0375d1266267011e5849c3f7c77d1e7053a8828b2decda117e32b13eb44ff1"
            "83109cf79637db147d6b0be739da555b673ae3433622415d6e1d505a1cb342"
            "90a4b4");
}

// Seal known answer. What a smart device deposits is U = rP plus the
// DEM ciphertext; both must stay byte-for-byte the same whenever the
// seal's arithmetic changes. Seeded Setup and seal generators, with a
// fixed attribute, nonce and payload, at the test preset.
TEST(SealKnownAnswerTest, TestPresetDes) {
  const math::TypeAParams& group = GetParams(ParamPreset::kTest);
  BfIbe ibe(group);
  DeterministicRandom setup_rng(2010);
  auto [params, master] = ibe.Setup(setup_rng);
  HybridSealer sealer(group, crypto::CipherKind::kDes);
  const Attribute attribute = "ELECTRIC-BAYTOWER-SV-CA";
  MessageNonce nonce{util::HexDecode("000102030405060708090a0b0c0d0e0f")
                         .value()};
  const Bytes payload =
      BytesFromString("meter=E-100 kWh=42.7 ts=2010-03-01T00:00Z");
  DeterministicRandom seal_rng(7);
  auto ct = sealer.Seal(params, attribute, nonce, payload, seal_rng);
  ASSERT_TRUE(ct.ok()) << ct.status();
  EXPECT_EQ(HexEncode(group.curve().Serialize(ct.value().u)),
            "0479adec4ea8afc85377a532676b80178dbb5d0f7c6930c1e6d007c5738d98"
            "f2e736d7b056b9850042785ee4b27513b548134227d04de4eaefec0fcee628"
            "c71d607198cd87172070a9ce498056b886b70ce9f998c626522c31085926a7"
            "f123692caf12bd61e6f8b8226caceec8f8e7bfca16dbd5ccf85bab253bdc12"
            "c1514135cd");
  EXPECT_EQ(HexEncode(ct.value().dem_ciphertext),
            "4072801e733829fbd3bbcc73438a7ca75e2cf9c0195f892c74f9a90d8ba89b"
            "b025ac16bc9d8a2f50a835111283242624ecfd79901c4fd53e");
  IbePrivateKey key =
      ibe.Extract(master, DeriveIdentity(attribute, nonce));
  auto opened = sealer.Open(key, ct.value());
  ASSERT_TRUE(opened.ok()) << opened.status();
  EXPECT_EQ(opened.value(), payload);
}

// The same pin for the two BF encryptors, BasicIdent and FullIdent.
TEST(SealKnownAnswerTest, SmallPresetBfEncryptors) {
  BfIbe ibe(GetParams(ParamPreset::kSmall));
  DeterministicRandom setup_rng(2010);
  SystemParams params = ibe.Setup(setup_rng).first;
  const Bytes id = BytesFromString("ELECTRIC-BAYTOWER-SV-CA");
  const Bytes msg = BytesFromString("kWh=42.7");
  DeterministicRandom rng(7);
  BasicCiphertext basic = ibe.Encrypt(params, id, msg, rng);
  FullCiphertext full = ibe.EncryptFull(params, id, msg, rng);
  EXPECT_EQ(HexEncode(basic.v), "0fd9df3373ba8c7d");
  EXPECT_EQ(HexEncode(full.v),
            "8b271e12cae25a8d4e0a77db3be5039d"
            "3c26e9d3862694e8fc232f4117065b2f");
  EXPECT_EQ(HexEncode(full.w), "41469457b7bf768a");
}

// The encryptors pair H1's uncleared candidate and raise to h*r mod q;
// this is the composition it replaces, with and without P_pub's cached
// Miller lines.
void ExpectFoldMatchesComposition(ParamPreset preset, uint64_t seed) {
  BfIbe ibe(GetParams(preset));
  DeterministicRandom rng(seed);
  SystemParams params = ibe.Setup(rng).first;
  SystemParams cold = params;
  cold.ClearPrecompute();
  for (int i = 0; i < 200; ++i) {
    Bytes id = rng.Generate(1 + i % 40);
    math::BigInt r = ibe.group().RandomScalar(rng);
    math::Fp2 expected = ibe.PairPpub(params, ibe.HashToPoint(id)).Pow(r);
    ASSERT_EQ(ibe.PairPpubHashedPow(params, id, r), expected) << "i=" << i;
    ASSERT_EQ(ibe.PairPpubHashedPow(cold, id, r), expected) << "i=" << i;
  }
}

TEST(PairPpubHashedPowTest, MatchesHashToPointPairingPowSmall) {
  ExpectFoldMatchesComposition(ParamPreset::kSmall, 31);
}

TEST(PairPpubHashedPowTest, MatchesHashToPointPairingPowTest) {
  ExpectFoldMatchesComposition(ParamPreset::kTest, 32);
}

// The fold must accept exactly the candidates H1 accepts, or the device
// would seal to a point the PKG never extracts for. A group with an
// 8-bit q makes h*Q' = O common (about one liftable x in q); x = 0 lifts
// to the 2-torsion point (0, 0).
TEST(PairPpubHashedPowTest, RejectsExactlyTheCandidatesLiftXRejects) {
  DeterministicRandom rng(2020);
  auto generated = math::TypeAParams::Generate(8, 64, rng);
  ASSERT_TRUE(generated.ok()) << generated.status();
  const math::TypeAParams& group = *generated.value();
  BfIbe ibe(group);
  SystemParams params = ibe.Setup(rng).first;
  SystemParams cold = params;
  cold.ClearPrecompute();
  size_t accepted = 0;
  size_t cleared_to_identity = 0;
  for (uint64_t v = 0; v < 4096; ++v) {
    math::Fp x = math::Fp::FromU64(group.ctx(), v);
    auto lifted = group.LiftX(x);
    for (const SystemParams* p : {&params, &cold}) {
      auto paired = ibe.PairPpubUncleared(*p, x);
      ASSERT_EQ(paired.ok(), lifted.ok()) << "x=" << v;
      if (lifted.ok()) {
        EXPECT_EQ(paired.value().Pow(group.cofactor()),
                  ibe.PairPpub(*p, lifted.value()))
            << "x=" << v;
      }
    }
    if (lifted.ok()) {
      ++accepted;
    } else if (group.LiftXUncleared(x).ok()) {
      ++cleared_to_identity;
    }
    if (v == 0) {
      EXPECT_FALSE(lifted.ok());
    }
  }
  EXPECT_GT(accepted, 1000u);
  // x = 0 plus odd-order points that h sends to O.
  EXPECT_GT(cleared_to_identity, 2u);
}

TEST_F(BfIbeTest, ExtractConsistent) {
  Bytes id = BytesFromString("ELECTRIC-BAYTOWER-SV-CA");
  IbePrivateKey d1 = ibe_.Extract(master_, id);
  IbePrivateKey d2 = ibe_.ExtractFromPoint(master_, ibe_.HashToPoint(id));
  EXPECT_EQ(d1.d, d2.d);
  EXPECT_EQ(d1.d, ibe_.group().curve().ScalarMul(master_.s,
                                                 ibe_.HashToPoint(id)));
}

TEST_F(BfIbeTest, BasicIdentRoundTrip) {
  Bytes id = BytesFromString("this_paper_is_based_on_IBE!");
  Bytes msg = BytesFromString("kWh=42.7 meter=E-100 ts=2010-03-01T00:00Z");
  BasicCiphertext ct = ibe_.Encrypt(params_, id, msg, rng_);
  IbePrivateKey key = ibe_.Extract(master_, id);
  EXPECT_EQ(ibe_.Decrypt(params_, key, ct), msg);
}

TEST_F(BfIbeTest, BasicIdentVariousLengths) {
  Bytes id = BytesFromString("id");
  IbePrivateKey key = ibe_.Extract(master_, id);
  DeterministicRandom data_rng(7);
  for (size_t len : {0u, 1u, 31u, 32u, 33u, 100u, 1024u}) {
    Bytes msg = data_rng.Generate(len);
    BasicCiphertext ct = ibe_.Encrypt(params_, id, msg, rng_);
    EXPECT_EQ(ct.v.size(), len);
    EXPECT_EQ(ibe_.Decrypt(params_, key, ct), msg);
  }
}

TEST_F(BfIbeTest, WrongIdentityKeyGarbles) {
  Bytes id = BytesFromString("intended-recipient");
  Bytes msg = BytesFromString("secret meter reading payload....");
  BasicCiphertext ct = ibe_.Encrypt(params_, id, msg, rng_);
  IbePrivateKey wrong = ibe_.Extract(master_, BytesFromString("attacker"));
  EXPECT_NE(ibe_.Decrypt(params_, wrong, ct), msg);
}

TEST_F(BfIbeTest, EncryptionRandomized) {
  Bytes id = BytesFromString("id");
  Bytes msg = BytesFromString("same message");
  BasicCiphertext a = ibe_.Encrypt(params_, id, msg, rng_);
  BasicCiphertext b = ibe_.Encrypt(params_, id, msg, rng_);
  EXPECT_NE(a.u, b.u);
  EXPECT_NE(a.v, b.v);
}

TEST_F(BfIbeTest, DifferentMasterSecretsDifferentKeys) {
  BfIbe other_ibe(GetParams(ParamPreset::kSmall));
  DeterministicRandom rng2(99);
  auto [params2, master2] = other_ibe.Setup(rng2);
  Bytes id = BytesFromString("id");
  EXPECT_NE(ibe_.Extract(master_, id).d, other_ibe.Extract(master2, id).d);
  // A key from the wrong deployment cannot decrypt.
  Bytes msg = BytesFromString("cross-deployment message");
  BasicCiphertext ct = ibe_.Encrypt(params_, id, msg, rng_);
  EXPECT_NE(ibe_.Decrypt(params_, other_ibe.Extract(master2, id), ct), msg);
}

TEST_F(BfIbeTest, FullIdentRoundTrip) {
  Bytes id = BytesFromString("cca-secure-recipient");
  Bytes msg = BytesFromString("payload requiring CCA security");
  FullCiphertext ct = ibe_.EncryptFull(params_, id, msg, rng_);
  IbePrivateKey key = ibe_.Extract(master_, id);
  auto back = ibe_.DecryptFull(params_, key, ct);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back.value(), msg);
}

TEST_F(BfIbeTest, FullIdentRejectsTampering) {
  Bytes id = BytesFromString("id");
  Bytes msg = BytesFromString("tamper-evident payload");
  FullCiphertext ct = ibe_.EncryptFull(params_, id, msg, rng_);
  IbePrivateKey key = ibe_.Extract(master_, id);

  FullCiphertext bad_w = ct;
  bad_w.w[0] ^= 1;
  EXPECT_FALSE(ibe_.DecryptFull(params_, key, bad_w).ok());

  FullCiphertext bad_v = ct;
  bad_v.v[5] ^= 1;
  EXPECT_FALSE(ibe_.DecryptFull(params_, key, bad_v).ok());

  FullCiphertext bad_u = ct;
  bad_u.u = ibe_.group().curve().Double(ct.u);
  EXPECT_FALSE(ibe_.DecryptFull(params_, key, bad_u).ok());

  FullCiphertext bad_len = ct;
  bad_len.v.pop_back();
  EXPECT_FALSE(ibe_.DecryptFull(params_, key, bad_len).ok());
}

TEST_F(BfIbeTest, FullIdentRejectsWrongKey) {
  Bytes id = BytesFromString("intended");
  FullCiphertext ct =
      ibe_.EncryptFull(params_, id, BytesFromString("msg"), rng_);
  IbePrivateKey wrong = ibe_.Extract(master_, BytesFromString("other"));
  EXPECT_FALSE(ibe_.DecryptFull(params_, wrong, ct).ok());
}

TEST_F(BfIbeTest, KemAgreesBothSides) {
  for (size_t key_len : {8u, 16u, 24u, 32u}) {
    IbeKem kem(ibe_.group(), key_len);
    Bytes id = BytesFromString("kem-recipient");
    KemOutput enc = kem.Encapsulate(params_, id, rng_);
    EXPECT_EQ(enc.key.size(), key_len);
    IbePrivateKey key = ibe_.Extract(master_, id);
    EXPECT_EQ(kem.Decapsulate(key, enc.u), enc.key);
  }
}

TEST_F(BfIbeTest, KemWrongIdentityDisagrees) {
  IbeKem kem(ibe_.group(), 16);
  KemOutput enc = kem.Encapsulate(params_, BytesFromString("right"), rng_);
  IbePrivateKey wrong = ibe_.Extract(master_, BytesFromString("wrong"));
  EXPECT_NE(kem.Decapsulate(wrong, enc.u), enc.key);
}

// --- Attributes ---

TEST(AttributeTest, ValidationGrammar) {
  EXPECT_TRUE(ValidateAttribute("ELECTRIC-BAYTOWER-SV-CA").ok());
  EXPECT_TRUE(ValidateAttribute("WATER_METER.CLASS2").ok());
  EXPECT_TRUE(ValidateAttribute("A").ok());
  EXPECT_FALSE(ValidateAttribute("").ok());
  EXPECT_FALSE(ValidateAttribute("lowercase").ok());
  EXPECT_FALSE(ValidateAttribute("HAS SPACE").ok());
  EXPECT_FALSE(ValidateAttribute("PIPE||INJECTION").ok());
  EXPECT_FALSE(ValidateAttribute(std::string(129, 'A')).ok());
  EXPECT_TRUE(ValidateAttribute(std::string(128, 'A')).ok());
}

TEST(AttributeTest, NonceFreshness) {
  DeterministicRandom rng(1);
  MessageNonce a = GenerateNonce(rng);
  MessageNonce b = GenerateNonce(rng);
  EXPECT_EQ(a.value.size(), 16u);
  EXPECT_FALSE(a == b);
}

TEST(AttributeTest, IdentityDerivationIsSha1OfConcat) {
  DeterministicRandom rng(2);
  MessageNonce nonce = GenerateNonce(rng);
  Bytes id = DeriveIdentity("ELECTRIC-APT-SV-CA", nonce);
  EXPECT_EQ(id.size(), 20u);  // SHA-1
  // Same inputs, same identity; any change flips it.
  EXPECT_EQ(id, DeriveIdentity("ELECTRIC-APT-SV-CA", nonce));
  EXPECT_NE(id, DeriveIdentity("ELECTRIC-APT-SV-CB", nonce));
  MessageNonce other = GenerateNonce(rng);
  EXPECT_NE(id, DeriveIdentity("ELECTRIC-APT-SV-CA", other));
}

TEST(AttributeTest, NoncePreventsKeyReuseAcrossMessages) {
  // The revocation mechanism: fresh nonce => fresh identity => fresh key.
  const auto& group = GetParams(ParamPreset::kSmall);
  BfIbe ibe(group);
  DeterministicRandom rng(3);
  auto [params, master] = ibe.Setup(rng);
  MessageNonce n1 = GenerateNonce(rng);
  MessageNonce n2 = GenerateNonce(rng);
  IbePrivateKey k1 = ibe.Extract(master, DeriveIdentity("A1", n1));
  IbePrivateKey k2 = ibe.Extract(master, DeriveIdentity("A1", n2));
  EXPECT_NE(k1.d, k2.d);
}

// --- Hybrid ---

class HybridTest : public ::testing::TestWithParam<crypto::CipherKind> {
 protected:
  HybridTest()
      : sealer_(GetParams(ParamPreset::kSmall), GetParam()),
        ibe_(GetParams(ParamPreset::kSmall)),
        rng_(77) {
    auto setup = ibe_.Setup(rng_);
    params_ = setup.first;
    master_ = setup.second;
  }

  HybridSealer sealer_;
  BfIbe ibe_;
  DeterministicRandom rng_;
  SystemParams params_;
  MasterKey master_;
};

TEST_P(HybridTest, SealOpenRoundTrip) {
  MessageNonce nonce = GenerateNonce(rng_);
  Bytes msg = BytesFromString(
      "meter=E-2201 kWh=13.37 voltage=229.9 events=none");
  auto ct = sealer_.Seal(params_, "ELECTRIC-APT-SV-CA", nonce, msg, rng_);
  ASSERT_TRUE(ct.ok()) << ct.status();
  IbePrivateKey key =
      ibe_.Extract(master_, DeriveIdentity("ELECTRIC-APT-SV-CA", nonce));
  auto back = sealer_.Open(key, ct.value());
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back.value(), msg);
}

TEST_P(HybridTest, VariousMessageSizes) {
  MessageNonce nonce = GenerateNonce(rng_);
  IbePrivateKey key = ibe_.Extract(master_, DeriveIdentity("A", nonce));
  DeterministicRandom data_rng(5);
  for (size_t len : {0u, 1u, 8u, 100u, 4096u}) {
    Bytes msg = data_rng.Generate(len);
    auto ct = sealer_.Seal(params_, "A", nonce, msg, rng_);
    ASSERT_TRUE(ct.ok());
    EXPECT_EQ(sealer_.Open(key, ct.value()).value(), msg);
  }
}

TEST_P(HybridTest, WrongNonceKeyCannotOpen) {
  MessageNonce n1 = GenerateNonce(rng_);
  MessageNonce n2 = GenerateNonce(rng_);
  Bytes msg = BytesFromString("for nonce n1 holders only, sixteen+");
  auto ct = sealer_.Seal(params_, "A", n1, msg, rng_);
  ASSERT_TRUE(ct.ok());
  IbePrivateKey wrong = ibe_.Extract(master_, DeriveIdentity("A", n2));
  auto result = sealer_.Open(wrong, ct.value());
  if (result.ok()) {
    EXPECT_NE(result.value(), msg);
  }
}

TEST_P(HybridTest, RejectsInvalidAttribute) {
  MessageNonce nonce = GenerateNonce(rng_);
  EXPECT_FALSE(
      sealer_.Seal(params_, "bad attr!", nonce, BytesFromString("m"), rng_)
          .ok());
}

INSTANTIATE_TEST_SUITE_P(AllDems, HybridTest,
                         ::testing::Values(crypto::CipherKind::kDes,
                                           crypto::CipherKind::kTripleDes,
                                           crypto::CipherKind::kAes128),
                         [](const ::testing::TestParamInfo<crypto::CipherKind>&
                                info) {
                           switch (info.param) {
                             case crypto::CipherKind::kDes:
                               return "Des";
                             case crypto::CipherKind::kTripleDes:
                               return "TripleDes";
                             case crypto::CipherKind::kAes128:
                               return "Aes128";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace mws::ibe
