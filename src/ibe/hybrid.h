#ifndef MWSIBE_IBE_HYBRID_H_
#define MWSIBE_IBE_HYBRID_H_

#include "src/crypto/block_cipher.h"
#include "src/ibe/attribute.h"
#include "src/ibe/bf_ibe.h"

namespace mws::ibe {

/// The sealed form a smart device produces for one message: U = rP plus
/// the DEM ciphertext. This is exactly what the paper stores at the MWS
/// ("rP || C" in §V.D) — the MWS sees both fields and can decrypt
/// neither without the PKG's extraction.
struct HybridCiphertext {
  math::EcPoint u;
  util::Bytes dem_ciphertext;
};

/// IBE-KEM + block-cipher-DEM hybrid encryption, parameterised on the DEM
/// cipher (the paper fixes DES; E10 ablates DES/3DES/AES-128).
///
/// Encrypt-side (smart device): derive identity I = SHA1(A||Nonce), KEM
/// to get (U, K), CBC-encrypt under K. Decrypt-side (receiving client):
/// KEM-decapsulate with the PKG-extracted private key, CBC-decrypt.
class HybridSealer {
 public:
  HybridSealer(const math::TypeAParams& group, crypto::CipherKind dem)
      : kem_(group, crypto::KeyLength(dem)), dem_(dem) {}

  /// Seals `message` for holders of the key extracted for
  /// DeriveIdentity(attribute, nonce).
  util::Result<HybridCiphertext> Seal(const SystemParams& params,
                                      const Attribute& attribute,
                                      const MessageNonce& nonce,
                                      const util::Bytes& message,
                                      util::RandomSource& rng) const;

  /// Opens with the private key for the identity the message was sealed
  /// to. A wrong key fails (CBC padding) or garbles; integrity comes from
  /// the protocol's MAC, as in the paper.
  util::Result<util::Bytes> Open(const IbePrivateKey& key,
                                 const HybridCiphertext& ct) const;

  crypto::CipherKind dem() const { return dem_; }
  const IbeKem& kem() const { return kem_; }

 private:
  IbeKem kem_;
  crypto::CipherKind dem_;
};

}  // namespace mws::ibe

#endif  // MWSIBE_IBE_HYBRID_H_
