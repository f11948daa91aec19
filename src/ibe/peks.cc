#include "src/ibe/peks.h"

#include "src/crypto/kdf.h"
#include "src/ibe/bf_ibe.h"
#include "src/util/serde.h"

namespace mws::ibe {

using math::BigInt;
using math::EcPoint;

namespace {

util::Bytes HashPairingValue(const math::Fp2& value) {
  // 0x06 tag: domain separation from the IBE/IBS oracles.
  return crypto::HashExpand(crypto::HashKind::kSha256,
                            util::Concat(util::Bytes{0x06}, value.ToBytes()),
                            32);
}

}  // namespace

EcPoint Peks::HashKeyword(const util::Bytes& keyword) const {
  // BF's H1 construction under its own tag.
  return HashToGroup(group_, 0x07, keyword);
}

Peks::KeyPair Peks::GenerateKeyPair(util::RandomSource& rng) const {
  KeyPair out;
  out.secret = group_.RandomScalar(rng);
  out.public_key = group_.MulGenerator(out.secret);
  return out;
}

Peks::Tag Peks::MakeTag(const EcPoint& public_key, const util::Bytes& keyword,
                        util::RandomSource& rng) const {
  BigInt r = group_.RandomScalar(rng);
  Tag out;
  out.u = group_.MulGenerator(r);
  math::Fp2 t = group_.Pairing(HashKeyword(keyword), public_key).Pow(r);
  out.check = HashPairingValue(t);
  return out;
}

Peks::Trapdoor Peks::MakeTrapdoor(const BigInt& secret,
                                  const util::Bytes& keyword) const {
  return Trapdoor{group_.curve().ScalarMul(secret, HashKeyword(keyword))};
}

bool Peks::Test(const Tag& tag, const Trapdoor& trapdoor) const {
  if (tag.u.is_infinity() || trapdoor.t.is_infinity()) return false;
  math::Fp2 t = group_.Pairing(trapdoor.t, tag.u);
  return util::ConstantTimeEqual(HashPairingValue(t), tag.check);
}

std::vector<bool> Peks::TestMany(const std::vector<Tag>& tags,
                                 const Trapdoor& trapdoor) const {
  std::vector<bool> out(tags.size(), false);
  if (tags.empty() || trapdoor.t.is_infinity()) return out;
  // Pair only the non-degenerate tags; infinity stays `false` without
  // entering the batch (PairingMany would map it to 1, which never
  // matches a well-formed check anyway, but skipping keeps the
  // semantics of Test exact by construction).
  math::PairingPrecomp precomp(group_, trapdoor.t);
  std::vector<size_t> live;
  std::vector<EcPoint> us;
  live.reserve(tags.size());
  us.reserve(tags.size());
  for (size_t i = 0; i < tags.size(); ++i) {
    if (tags[i].u.is_infinity()) continue;
    live.push_back(i);
    us.push_back(tags[i].u);
  }
  std::vector<math::Fp2> ts = precomp.PairingMany(us);
  for (size_t k = 0; k < live.size(); ++k) {
    out[live[k]] = util::ConstantTimeEqual(HashPairingValue(ts[k]),
                                           tags[live[k]].check);
  }
  return out;
}

util::Bytes Peks::SerializeTag(const Tag& tag) const {
  util::Writer w;
  w.PutBytes(group_.curve().Serialize(tag.u));
  w.PutBytes(tag.check);
  return w.Take();
}

util::Result<Peks::Tag> Peks::ParseTag(const util::Bytes& data) const {
  util::Reader r(data);
  util::Bytes point_bytes, check;
  if (!r.GetBytes(&point_bytes) || !r.GetBytes(&check) || !r.Done()) {
    return util::Status::InvalidArgument("malformed PEKS tag");
  }
  if (check.size() != 32) {
    return util::Status::InvalidArgument("PEKS check must be 32 bytes");
  }
  MWS_ASSIGN_OR_RETURN(EcPoint u, group_.curve().Deserialize(point_bytes));
  return Tag{u, check};
}

}  // namespace mws::ibe
