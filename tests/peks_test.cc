#include <gtest/gtest.h>

#include "src/ibe/peks.h"
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

class PeksTest : public ::testing::Test {
 protected:
  PeksTest()
      : peks_(GetParams(ParamPreset::kSmall)), rng_(17) {
    keys_ = peks_.GenerateKeyPair(rng_);
  }

  Peks peks_;
  DeterministicRandom rng_;
  Peks::KeyPair keys_;
};

TEST_F(PeksTest, MatchingKeywordTests) {
  Bytes keyword = BytesFromString("ELECTRIC");
  Peks::Tag tag = peks_.MakeTag(keys_.public_key, keyword, rng_);
  Peks::Trapdoor trapdoor = peks_.MakeTrapdoor(keys_.secret, keyword);
  EXPECT_TRUE(peks_.Test(tag, trapdoor));
}

TEST_F(PeksTest, NonMatchingKeywordFails) {
  Peks::Tag tag =
      peks_.MakeTag(keys_.public_key, BytesFromString("ELECTRIC"), rng_);
  Peks::Trapdoor trapdoor =
      peks_.MakeTrapdoor(keys_.secret, BytesFromString("WATER"));
  EXPECT_FALSE(peks_.Test(tag, trapdoor));
}

TEST_F(PeksTest, WrongRecipientKeyFails) {
  // Tag for one recipient tested with another recipient's trapdoor.
  Peks::KeyPair other = peks_.GenerateKeyPair(rng_);
  Bytes keyword = BytesFromString("ELECTRIC");
  Peks::Tag tag = peks_.MakeTag(keys_.public_key, keyword, rng_);
  EXPECT_FALSE(peks_.Test(tag, peks_.MakeTrapdoor(other.secret, keyword)));
}

TEST_F(PeksTest, TagsAreRandomizedTrapdoorsDeterministic) {
  Bytes keyword = BytesFromString("GAS");
  Peks::Tag a = peks_.MakeTag(keys_.public_key, keyword, rng_);
  Peks::Tag b = peks_.MakeTag(keys_.public_key, keyword, rng_);
  // Same keyword, different tags (the warehouse cannot cluster tags).
  EXPECT_NE(a.u, b.u);
  EXPECT_NE(a.check, b.check);
  // Both still test positive.
  Peks::Trapdoor trapdoor = peks_.MakeTrapdoor(keys_.secret, keyword);
  EXPECT_TRUE(peks_.Test(a, trapdoor));
  EXPECT_TRUE(peks_.Test(b, trapdoor));
  // Trapdoors are deterministic.
  EXPECT_EQ(trapdoor.t, peks_.MakeTrapdoor(keys_.secret, keyword).t);
}

TEST_F(PeksTest, ManyKeywordsSelectivity) {
  const char* keywords[] = {"ELECTRIC", "WATER", "GAS", "EVENT-E117",
                            "BILLING"};
  std::vector<Peks::Tag> tags;
  for (const char* w : keywords) {
    tags.push_back(peks_.MakeTag(keys_.public_key, BytesFromString(w), rng_));
  }
  Peks::Trapdoor water =
      peks_.MakeTrapdoor(keys_.secret, BytesFromString("WATER"));
  int matches = 0;
  for (const auto& tag : tags) {
    matches += peks_.Test(tag, water) ? 1 : 0;
  }
  EXPECT_EQ(matches, 1);
}

TEST_F(PeksTest, TrapdoorKnownAnswer) {
  // The trapdoor is secret * HashKeyword(w), so this pins the keyword
  // hash: a moved mapping would orphan every stored tag.
  Peks::Trapdoor trapdoor = peks_.MakeTrapdoor(
      math::BigInt(uint64_t{0x1234567890abcdef}), BytesFromString("ELECTRIC"));
  EXPECT_EQ(
      util::HexEncode(
          GetParams(ParamPreset::kSmall).curve().SerializeCompressed(
              trapdoor.t)),
      "0329e82d3003b1af31ae1a7ef6da46a0404083983bc43f46e264c039d71b7ebcd4");
}

TEST_F(PeksTest, SerializationRoundTrip) {
  Peks::Tag tag =
      peks_.MakeTag(keys_.public_key, BytesFromString("ELECTRIC"), rng_);
  Bytes wire = peks_.SerializeTag(tag);
  auto parsed = peks_.ParseTag(wire);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->u, tag.u);
  EXPECT_EQ(parsed->check, tag.check);
  EXPECT_FALSE(peks_.ParseTag(Bytes(7, 1)).ok());
  Bytes truncated(wire.begin(), wire.end() - 5);
  EXPECT_FALSE(peks_.ParseTag(truncated).ok());
}

TEST_F(PeksTest, DegenerateInputsRejected) {
  Peks::Tag tag{math::EcPoint::Infinity(), Bytes(32, 0)};
  Peks::Trapdoor trapdoor =
      peks_.MakeTrapdoor(keys_.secret, BytesFromString("W"));
  EXPECT_FALSE(peks_.Test(tag, trapdoor));
  Peks::Tag good =
      peks_.MakeTag(keys_.public_key, BytesFromString("W"), rng_);
  EXPECT_FALSE(peks_.Test(good, Peks::Trapdoor{math::EcPoint::Infinity()}));
}

TEST_F(PeksTest, TestManyMatchesTestPerTag) {
  // The batched mailbox sweep must agree with the scalar Test on every
  // entry: matches, non-matches, another recipient's tag, and an
  // infinity tag mixed into the batch.
  Bytes keyword = BytesFromString("ELECTRIC");
  Peks::Trapdoor trapdoor = peks_.MakeTrapdoor(keys_.secret, keyword);
  Peks::KeyPair other = peks_.GenerateKeyPair(rng_);
  std::vector<Peks::Tag> tags = {
      peks_.MakeTag(keys_.public_key, keyword, rng_),
      peks_.MakeTag(keys_.public_key, BytesFromString("WATER"), rng_),
      peks_.MakeTag(other.public_key, keyword, rng_),
      Peks::Tag{math::EcPoint::Infinity(), Bytes(32, 0)},
      peks_.MakeTag(keys_.public_key, keyword, rng_),
  };
  std::vector<bool> got = peks_.TestMany(tags, trapdoor);
  ASSERT_EQ(got.size(), tags.size());
  for (size_t i = 0; i < tags.size(); ++i) {
    EXPECT_EQ(got[i], peks_.Test(tags[i], trapdoor)) << i;
  }
  EXPECT_TRUE(got[0]);
  EXPECT_FALSE(got[1]);
  EXPECT_FALSE(got[2]);
  EXPECT_FALSE(got[3]);
  EXPECT_TRUE(got[4]);
  // Degenerate trapdoor and empty batch.
  EXPECT_TRUE(peks_.TestMany({}, trapdoor).empty());
  std::vector<bool> none =
      peks_.TestMany(tags, Peks::Trapdoor{math::EcPoint::Infinity()});
  for (bool b : none) EXPECT_FALSE(b);
}

}  // namespace
}  // namespace mws::ibe
