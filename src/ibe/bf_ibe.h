#ifndef MWSIBE_IBE_BF_IBE_H_
#define MWSIBE_IBE_BF_IBE_H_

#include <memory>

#include "src/math/pairing.h"
#include "src/util/bytes.h"
#include "src/util/random.h"
#include "src/util/result.h"

namespace mws::ibe {

/// Public system parameters of a Boneh–Franklin IBE deployment:
/// the pairing group plus P_pub = s*P. Published by the PKG to every
/// smart device and receiving client.
struct SystemParams {
  /// The shared pairing group (process-lifetime preset or generated set).
  const math::TypeAParams* group = nullptr;
  /// P_pub = s * generator.
  math::EcPoint p_pub;

  /// Optional precomputation for the deposit hot path, shared (immutable)
  /// across copies of the params. When present, Encrypt/EncryptFull/
  /// Encapsulate evaluate e(P_pub, ·) from the cached Miller-loop lines
  /// instead of re-running the full loop per message; absent, they fall
  /// back to the generic pairing. Setup attaches both by default.
  std::shared_ptr<const math::FixedBaseTable> p_pub_table;
  std::shared_ptr<const math::PairingPrecomp> p_pub_pairing;

  /// Builds the P_pub tables (idempotent; no-op without a group).
  void Precompute();
  /// Drops the tables — the cold path, used by benchmarks to measure
  /// construction cost honestly.
  void ClearPrecompute() {
    p_pub_table.reset();
    p_pub_pairing.reset();
  }
  bool has_precompute() const { return p_pub_pairing != nullptr; }
};

/// The PKG's master secret s. Never leaves the PKG.
struct MasterKey {
  math::BigInt s;
};

/// An extracted identity private key d_ID = s * Q_ID.
struct IbePrivateKey {
  math::EcPoint d;
};

/// BasicIdent ciphertext: (U, V) = (rP, M xor H2(g_ID^r)).
struct BasicCiphertext {
  math::EcPoint u;
  util::Bytes v;
};

/// FullIdent (CCA-secure, Fujisaki–Okamoto) ciphertext: (U, V, W).
struct FullCiphertext {
  math::EcPoint u;
  util::Bytes v;  // sigma xor H2(g_ID^r)
  util::Bytes w;  // M xor H4(sigma)
};

/// Try-and-increment hash onto the order-q subgroup: x = H(tag || input
/// || counter) read in F_p, lifted through the cofactor, for counter =
/// 0, 1, ... until a lift succeeds (~2 tries expected). BF's H1 uses tag
/// 0x01 and PEKS's keyword hash 0x07. Stored ciphertexts and tags
/// depend on this mapping, so it must never change. The encryptors walk
/// the same candidates without the cofactor step
/// (BfIbe::PairPpubHashedPow); extraction, IBS, the threshold PKG and
/// PEKS need the order-q point itself.
math::EcPoint HashToGroup(const math::TypeAParams& group, uint8_t tag,
                          const util::Bytes& input);

/// The Boneh–Franklin IBE scheme over a fixed pairing group.
///
/// Implements the four algorithms of paper §IV (Setup / Extract /
/// Encrypt / Decrypt) in both the BasicIdent variant the paper describes
/// and the CCA-secure FullIdent variant (our implemented extension).
class BfIbe {
 public:
  explicit BfIbe(const math::TypeAParams& group);

  /// Setup: draws the master secret s and publishes P_pub = sP.
  std::pair<SystemParams, MasterKey> Setup(util::RandomSource& rng) const;

  /// H1: maps an arbitrary identity string to an order-q curve point.
  math::EcPoint HashToPoint(const util::Bytes& identity) const;

  /// Extract: d_ID = s * H1(ID).
  IbePrivateKey Extract(const MasterKey& master,
                        const util::Bytes& identity) const;
  /// Extract from a pre-computed identity point (the PKG's hot path).
  IbePrivateKey ExtractFromPoint(const MasterKey& master,
                                 const math::EcPoint& q_id) const;
  /// Extract for many identities at once: H1 and the Jacobian ladder
  /// of d = s*Q run for every identity under util::ParallelFor, on all
  /// hardware threads; the final affine normalizations then share ONE
  /// field inversion (Montgomery's trick) instead of paying one per key.
  /// Results are bit-identical to calling Extract per identity, in order.
  std::vector<IbePrivateKey> ExtractBatch(
      const MasterKey& master,
      const std::vector<util::Bytes>& identities) const;

  /// BasicIdent encryption of an arbitrary-length message.
  BasicCiphertext Encrypt(const SystemParams& params,
                          const util::Bytes& identity,
                          const util::Bytes& message,
                          util::RandomSource& rng) const;

  /// BasicIdent decryption (always "succeeds"; BasicIdent has no
  /// integrity, a wrong key yields garbage — see FullIdent).
  util::Bytes Decrypt(const SystemParams& params, const IbePrivateKey& key,
                      const BasicCiphertext& ct) const;

  /// FullIdent (CCA) encryption.
  FullCiphertext EncryptFull(const SystemParams& params,
                             const util::Bytes& identity,
                             const util::Bytes& message,
                             util::RandomSource& rng) const;

  /// FullIdent decryption; rejects mismatched keys and tampered
  /// ciphertexts via the Fujisaki–Okamoto re-encryption check.
  util::Result<util::Bytes> DecryptFull(const SystemParams& params,
                                        const IbePrivateKey& key,
                                        const FullCiphertext& ct) const;

  const math::TypeAParams& group() const { return group_; }

  /// e(P_pub, Q_ID) via the params' cached lines when available, falling
  /// back to the generic pairing otherwise.
  math::Fp2 PairPpub(const SystemParams& params,
                     const math::EcPoint& q_id) const;

  /// e(P_pub, H1(identity))^r, the pairing value of every BF encryptor,
  /// without H1's multiplication by the cofactor h. The reduced pairing
  /// reads its second argument modulo qE, so for H1's accepted candidate
  /// Q' (HashToPoint returns h*Q') e(P_pub, h*Q')^r = e(P_pub, Q')^(h*r
  /// mod q): bit-identical to PairPpub(params, HashToPoint(identity))
  /// .Pow(r) at the cost of one pairing and one power.
  math::Fp2 PairPpubHashedPow(const SystemParams& params,
                              const util::Bytes& identity,
                              const math::BigInt& r) const;

  /// e(P_pub, Q') for one H1 candidate x, where Q' = (x, sqrt(x^3 + x))
  /// is group().LiftXUncleared(x). Fails exactly where group().LiftX(x)
  /// fails: for a non-residue, and where e(P_pub, Q') = 1, which holds
  /// exactly when h*Q' is the identity because gcd(h, q) = 1. That also
  /// covers x = 0: Q' = (0, 0) has order 2, and its Miller value lies in
  /// F_p*, which the final exponentiation sends to 1.
  util::Result<math::Fp2> PairPpubUncleared(const SystemParams& params,
                                            const math::Fp& x) const;

 private:
  /// g_ID^r -> mask of `len` bytes (the H2 pad).
  util::Bytes PairingMask(const math::Fp2& g, size_t len) const;

  const math::TypeAParams& group_;
};

/// IBE key-encapsulation: the hybrid construction the paper's protocol
/// actually uses (IBE derives a symmetric key; DES/AES encrypts the
/// message). Encapsulate corresponds to the SD computing K = e(sP, rI);
/// Decapsulate to the RC computing e(rP, sI).
struct KemOutput {
  math::EcPoint u;      // rP, stored alongside the ciphertext at the MWS
  util::Bytes key;      // the DEM key
};

class IbeKem {
 public:
  /// `key_len`: DEM key size in bytes (8 for DES, 16 for AES-128...).
  IbeKem(const math::TypeAParams& group, size_t key_len)
      : ibe_(group), key_len_(key_len) {}

  KemOutput Encapsulate(const SystemParams& params,
                        const util::Bytes& identity,
                        util::RandomSource& rng) const;

  /// Recovers the DEM key from U with the extracted private key.
  util::Bytes Decapsulate(const IbePrivateKey& key,
                          const math::EcPoint& u) const;

  size_t key_len() const { return key_len_; }
  const BfIbe& ibe() const { return ibe_; }

 private:
  BfIbe ibe_;
  size_t key_len_;
};

}  // namespace mws::ibe

#endif  // MWSIBE_IBE_BF_IBE_H_
