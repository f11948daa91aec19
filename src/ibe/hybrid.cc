#include "src/ibe/hybrid.h"

#include "src/crypto/modes.h"

namespace mws::ibe {

util::Result<HybridCiphertext> HybridSealer::Seal(
    const SystemParams& params, const Attribute& attribute,
    const MessageNonce& nonce, const util::Bytes& message,
    util::RandomSource& rng) const {
  MWS_RETURN_IF_ERROR(ValidateAttribute(attribute));
  util::Bytes identity = DeriveIdentity(attribute, nonce);
  KemOutput kem = kem_.Encapsulate(params, identity, rng);
  MWS_ASSIGN_OR_RETURN(util::Bytes dem_ct,
                       crypto::CbcEncrypt(dem_, kem.key, message, rng));
  util::SecureWipe(kem.key);
  return HybridCiphertext{kem.u, std::move(dem_ct)};
}

util::Result<util::Bytes> HybridSealer::Open(const IbePrivateKey& key,
                                             const HybridCiphertext& ct) const {
  util::Bytes dem_key = kem_.Decapsulate(key, ct.u);
  auto plain = crypto::CbcDecrypt(dem_, dem_key, ct.dem_ciphertext);
  util::SecureWipe(dem_key);
  return plain;
}

}  // namespace mws::ibe
