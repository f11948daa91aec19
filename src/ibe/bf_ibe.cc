#include "src/ibe/bf_ibe.h"

#include <utility>

#include "src/crypto/hash.h"
#include "src/crypto/kdf.h"
#include "src/math/precompute.h"
#include "src/util/parallel.h"

namespace mws::ibe {

using math::BigInt;
using math::EcPoint;
using math::Fp;
using math::Fp2;

namespace {

// Domain-separation prefixes for the BF random oracles.
constexpr uint8_t kTagH1 = 0x01;
constexpr uint8_t kTagH2 = 0x02;
constexpr uint8_t kTagH3 = 0x03;
constexpr uint8_t kTagH4 = 0x04;

util::Bytes Tagged(uint8_t tag, const util::Bytes& data) {
  util::Bytes out;
  out.reserve(data.size() + 1);
  out.push_back(tag);
  out.insert(out.end(), data.begin(), data.end());
  return out;
}

/// H3: (sigma, M) -> scalar in [1, q-1].
BigInt HashToScalar(const BigInt& q, const util::Bytes& sigma,
                    const util::Bytes& message) {
  util::Bytes input = Tagged(kTagH3, util::Concat(sigma, message));
  // Expand to 16 bytes beyond the order size to make the bias negligible.
  size_t len = (q.BitLength() + 7) / 8 + 16;
  util::Bytes expanded =
      crypto::HashExpand(crypto::HashKind::kSha256, input, len);
  BigInt v = BigInt::FromBytesBe(expanded);
  return BigInt::Mod(v, q - BigInt(1)) + BigInt(1);
}

/// The KEM's KDF: pairing value g -> DEM key of `key_len` bytes.
util::Bytes KemKey(const Fp2& g, size_t key_len) {
  return crypto::Hkdf(/*salt=*/{}, g.ToBytes(),
                      util::BytesFromString("mwsibe-kem"), key_len);
}

/// The try-and-increment candidate number `counter`: the x-coordinate
/// H(tag || input || counter) read in F_p. HashToGroup and
/// BfIbe::PairPpubHashedPow both walk these candidates, so the point the
/// device seals to is the one the PKG extracts for.
Fp HashCandidate(const math::TypeAParams& group, uint8_t tag,
                 const util::Bytes& input, uint32_t counter) {
  util::Bytes tagged = Tagged(tag, input);
  tagged.push_back(static_cast<uint8_t>(counter >> 24));
  tagged.push_back(static_cast<uint8_t>(counter >> 16));
  tagged.push_back(static_cast<uint8_t>(counter >> 8));
  tagged.push_back(static_cast<uint8_t>(counter));
  return Fp::FromBytes(group.ctx(),
                       crypto::HashExpand(crypto::HashKind::kSha256, tagged,
                                          group.FieldBytes()));
}

}  // namespace

EcPoint HashToGroup(const math::TypeAParams& group, uint8_t tag,
                    const util::Bytes& input) {
  for (uint32_t counter = 0;; ++counter) {
    auto point = group.LiftX(HashCandidate(group, tag, input, counter));
    if (point.ok()) return point.value();
  }
}

void SystemParams::Precompute() {
  if (group == nullptr || has_precompute()) return;
  p_pub_table = std::make_shared<const math::FixedBaseTable>(
      group->curve(), p_pub, group->q());
  p_pub_pairing =
      std::make_shared<const math::PairingPrecomp>(*group, p_pub);
}

BfIbe::BfIbe(const math::TypeAParams& group) : group_(group) {}

std::pair<SystemParams, MasterKey> BfIbe::Setup(
    util::RandomSource& rng) const {
  MasterKey master{group_.RandomScalar(rng)};
  SystemParams params;
  params.group = &group_;
  params.p_pub = group_.MulGenerator(master.s);
  params.Precompute();
  return {params, master};
}

EcPoint BfIbe::HashToPoint(const util::Bytes& identity) const {
  return HashToGroup(group_, kTagH1, identity);
}

IbePrivateKey BfIbe::Extract(const MasterKey& master,
                             const util::Bytes& identity) const {
  return ExtractFromPoint(master, HashToPoint(identity));
}

IbePrivateKey BfIbe::ExtractFromPoint(const MasterKey& master,
                                      const EcPoint& q_id) const {
  return IbePrivateKey{group_.curve().ScalarMul(master.s, q_id)};
}

std::vector<IbePrivateKey> BfIbe::ExtractBatch(
    const MasterKey& master, const std::vector<util::Bytes>& identities) const {
  const math::CurveGroup& curve = group_.curve();
  std::vector<math::JacPoint> jac(identities.size());
  util::ParallelFor(identities.size(), [&](size_t i) {
    // The Jacobian overload runs the identical wNAF ladder; only the
    // final normalization is deferred into the shared inversion below.
    jac[i] = curve.ScalarMul(master.s,
                             curve.ToJacobian(HashToPoint(identities[i])));
  });
  std::vector<EcPoint> affine = math::BatchToAffine(curve, jac);
  std::vector<IbePrivateKey> out;
  out.reserve(affine.size());
  for (EcPoint& d : affine) out.push_back(IbePrivateKey{std::move(d)});
  return out;
}

util::Bytes BfIbe::PairingMask(const Fp2& g, size_t len) const {
  return crypto::HashExpand(crypto::HashKind::kSha256,
                            Tagged(kTagH2, g.ToBytes()), len);
}

Fp2 BfIbe::PairPpub(const SystemParams& params, const EcPoint& q_id) const {
  if (params.p_pub_pairing) return params.p_pub_pairing->Pairing(q_id);
  return group_.Pairing(params.p_pub, q_id);
}

util::Result<Fp2> BfIbe::PairPpubUncleared(const SystemParams& params,
                                           const Fp& x) const {
  MWS_ASSIGN_OR_RETURN(EcPoint q_uncleared, group_.LiftXUncleared(x));
  Fp2 g = PairPpub(params, q_uncleared);
  if (g.IsOne()) {
    return util::Status::InvalidArgument("cofactor multiple is identity");
  }
  return g;
}

Fp2 BfIbe::PairPpubHashedPow(const SystemParams& params,
                             const util::Bytes& identity,
                             const BigInt& r) const {
  for (uint32_t counter = 0;; ++counter) {
    auto g = PairPpubUncleared(
        params, HashCandidate(group_, kTagH1, identity, counter));
    if (g.ok()) {
      return g.value().Pow(BigInt::Mod(group_.cofactor() * r, group_.q()));
    }
  }
}

BasicCiphertext BfIbe::Encrypt(const SystemParams& params,
                               const util::Bytes& identity,
                               const util::Bytes& message,
                               util::RandomSource& rng) const {
  BigInt r = group_.RandomScalar(rng);
  BasicCiphertext ct;
  ct.u = group_.MulGenerator(r);
  Fp2 g = PairPpubHashedPow(params, identity, r);
  ct.v = util::Xor(message, PairingMask(g, message.size()));
  return ct;
}

util::Bytes BfIbe::Decrypt(const SystemParams& params, const IbePrivateKey& key,
                           const BasicCiphertext& ct) const {
  (void)params;
  Fp2 g = group_.Pairing(key.d, ct.u);
  return util::Xor(ct.v, PairingMask(g, ct.v.size()));
}

FullCiphertext BfIbe::EncryptFull(const SystemParams& params,
                                  const util::Bytes& identity,
                                  const util::Bytes& message,
                                  util::RandomSource& rng) const {
  util::Bytes sigma = rng.Generate(32);
  BigInt r = HashToScalar(group_.q(), sigma, message);
  FullCiphertext ct;
  ct.u = group_.MulGenerator(r);
  Fp2 g = PairPpubHashedPow(params, identity, r);
  ct.v = util::Xor(sigma, PairingMask(g, sigma.size()));
  ct.w = util::Xor(message,
                   crypto::HashExpand(crypto::HashKind::kSha256,
                                      Tagged(kTagH4, sigma), message.size()));
  return ct;
}

util::Result<util::Bytes> BfIbe::DecryptFull(const SystemParams& params,
                                             const IbePrivateKey& key,
                                             const FullCiphertext& ct) const {
  if (ct.v.size() != 32) {
    return util::Status::InvalidArgument("FullIdent V must be 32 bytes");
  }
  Fp2 g = group_.Pairing(key.d, ct.u);
  util::Bytes sigma = util::Xor(ct.v, PairingMask(g, ct.v.size()));
  util::Bytes message = util::Xor(
      ct.w, crypto::HashExpand(crypto::HashKind::kSha256,
                               Tagged(kTagH4, sigma), ct.w.size()));
  // Fujisaki–Okamoto check: re-derive r and verify U = rP.
  BigInt r = HashToScalar(group_.q(), sigma, message);
  if (group_.MulGenerator(r) != ct.u) {
    return util::Status::Corruption("FullIdent ciphertext rejected");
  }
  (void)params;
  return message;
}

KemOutput IbeKem::Encapsulate(const SystemParams& params,
                              const util::Bytes& identity,
                              util::RandomSource& rng) const {
  const math::TypeAParams& group = ibe_.group();
  BigInt r = group.RandomScalar(rng);
  KemOutput out;
  out.u = group.MulGenerator(r);
  out.key = KemKey(ibe_.PairPpubHashedPow(params, identity, r), key_len_);
  return out;
}

util::Bytes IbeKem::Decapsulate(const IbePrivateKey& key,
                                const EcPoint& u) const {
  return KemKey(ibe_.group().Pairing(key.d, u), key_len_);
}

}  // namespace mws::ibe
