#ifndef MWSIBE_MATH_PAIRING_H_
#define MWSIBE_MATH_PAIRING_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/math/ec.h"
#include "src/math/fp2.h"
#include "src/math/precompute.h"
#include "src/util/random.h"

namespace mws::math {

/// One factor of a multi-pairing product (see TypeAParams::PairingProduct).
/// When `precomp` is set it supplies the cached Miller lines for the fixed
/// G1 argument and `p` is ignored; otherwise the lines are computed from
/// `p` on the fly.
struct PairingTerm {
  const PairingPrecomp* precomp = nullptr;
  EcPoint p;
  EcPoint q;
};

/// Parameters of a "type A" symmetric pairing (the family PBC's a-param
/// uses, and the setting of Boneh–Franklin IBE):
///
///   * p prime, p == 3 mod 4, p = h*q - 1
///   * q prime (the group order), h the cofactor
///   * E: y^2 = x^3 + x over F_p (supersingular, #E(F_p) = p + 1)
///   * G1 = E(F_p)[q]; distortion map phi(x, y) = (-x, i*y) into E(F_p2)
///   * e(P, Q) = Tate(P, phi(Q)) in mu_q of F_p2, via Miller's algorithm
///     with denominator elimination and final exponentiation (p^2-1)/q.
///
/// Two implementations coexist (the PR-1 pattern): the *fast path* —
/// NAF Miller loop, lazy-reduction F_p2, cached-recoding final
/// exponentiation — and the *reference path* retained verbatim for
/// property tests. Individual Miller-loop values differ between the two
/// by a factor in F_p* (erased by the final exponentiation), so
/// equivalence is asserted on full pairings, which are bit-identical.
///
/// Owns the field context; every Fp/EcPoint derived from an instance must
/// not outlive it.
class TypeAParams {
 public:
  /// Validates and assembles parameters (p, q prime contracts are checked
  /// probabilistically; generator must be an order-q curve point). q must
  /// not divide the cofactor h: with gcd(h, q) = 1, h*Q is the identity
  /// exactly when e(P, Q) = 1, which the device's seal relies on
  /// (ibe::BfIbe::PairPpubHashedPow).
  static util::Result<std::unique_ptr<const TypeAParams>> Create(
      const BigInt& p, const BigInt& q, const BigInt& gen_x,
      const BigInt& gen_y, util::RandomSource& rng);

  /// Generates a fresh parameter set: random q with `qbits` bits, then the
  /// smallest-effort h, not a multiple of q, with h*q - 1 prime of `pbits`
  /// bits and == 3 mod 4, then a random order-q generator.
  static util::Result<std::unique_ptr<const TypeAParams>> Generate(
      size_t qbits, size_t pbits, util::RandomSource& rng);

  const BigInt& p() const { return p_; }
  const BigInt& q() const { return q_; }
  const BigInt& cofactor() const { return h_; }
  const FpCtx* ctx() const { return ctx_.get(); }
  const CurveGroup& curve() const { return *curve_; }
  const EcPoint& generator() const { return generator_; }

  /// Non-adjacent form of q, least-significant digit first, digits in
  /// {-1, 0, 1}. Recoded once at construction; immutable afterwards and
  /// therefore safe to share across threads. The Miller loop and every
  /// PairingPrecomp walk these digits, so their step sequences align.
  const std::vector<int8_t>& q_naf() const { return q_naf_; }
  /// Width-5 wNAF of the cofactor h (the final-exponentiation hard part):
  /// digits are zero or odd in [-15, 15], least-significant first.
  const std::vector<int8_t>& cofactor_wnaf() const { return h_wnaf_; }

  /// Fixed-base table for the generator, built once at construction.
  const FixedBaseTable& generator_table() const { return *gen_table_; }
  /// k * generator through the fixed-base table — the fast path for
  /// every rP/sP the protocols compute.
  EcPoint MulGenerator(const BigInt& k) const { return gen_table_->Mul(k); }
  /// Cached Miller-loop lines for pairings whose first argument is the
  /// generator, e.g. e(sigma, P) in IBS verification (the pairing is
  /// symmetric, so fixing either slot works).
  const PairingPrecomp& generator_pairing() const { return *gen_pairing_; }

  /// Field element size in bytes (serialized coordinate width).
  size_t FieldBytes() const { return ctx_->byte_length(); }
  /// Group element (uncompressed point) size in bytes.
  size_t PointBytes() const { return 1 + 2 * FieldBytes(); }

  /// The symmetric pairing e(P, Q) = Tate(P, phi(Q)). Both inputs must be
  /// order-q points of E(F_p). Returns 1 for infinity inputs. Fast path
  /// (NAF Miller loop + v2 final exponentiation); bit-identical to
  /// PairingReference.
  Fp2 Pairing(const EcPoint& point_p, const EcPoint& point_q) const;

  /// Product of pairings prod_i e(terms[i].p, terms[i].q) with one shared
  /// squaring chain and a single final exponentiation — the cost of one
  /// pairing plus one set of line evaluations per extra term, instead of
  /// a full pairing per term. Bit-identical to multiplying the individual
  /// Pairing() results. Terms with an infinity point contribute 1.
  Fp2 PairingProduct(const std::vector<PairingTerm>& terms) const;

  /// Reference pairing: binary Miller loop + reference final
  /// exponentiation, exactly the pre-v2 code path. Property tests assert
  /// Pairing == PairingReference bit-for-bit.
  Fp2 PairingReference(const EcPoint& point_p, const EcPoint& point_q) const;

  /// Fast Miller loop over the cached NAF digits of q (subtraction steps
  /// evaluate the line through V and -P). The result differs from
  /// MillerLoop by a factor in F_p*; after final exponentiation the
  /// pairing values are bit-identical.
  Fp2 MillerLoopNaf(const EcPoint& point_p, const EcPoint& point_q) const;

  /// Reference binary Miller loop (no final exponentiation).
  Fp2 MillerLoop(const EcPoint& point_p, const EcPoint& point_q) const;

  /// Final exponentiation z^((p^2-1)/q), fast path: short-circuits z == 0
  /// and z == 1, easy part z^(p-1) = conj(z) * z^-1, then the hard part
  /// z^h over the cached wNAF digits exploiting that post-easy-part
  /// values are unitary (inverse == conjugate). Bit-identical to
  /// FinalExponentiationReference.
  Fp2 FinalExponentiation(const Fp2& z) const;

  /// Batched final exponentiation: one field inversion for the whole
  /// batch (Montgomery's trick across the easy parts) instead of one per
  /// element. Each output is bit-identical to FinalExponentiation of the
  /// corresponding input.
  std::vector<Fp2> FinalExponentiationMany(const std::vector<Fp2>& zs) const;

  /// Reference final exponentiation (conj(z) * z^-1)^h, the pre-v2 code.
  Fp2 FinalExponentiationReference(const Fp2& z) const;

  /// Lifts an x-coordinate to an order-q point: LiftXUncleared, then a
  /// multiplication by the cofactor. Fails if x^3 + x is a non-residue
  /// or the cofactor multiple is the identity.
  util::Result<EcPoint> LiftX(const Fp& x) const;

  /// The curve point (x, sqrt(x^3 + x)) before the cofactor
  /// multiplication; fails if x^3 + x is a non-residue. The point lies
  /// in E(F_p), not necessarily in the order-q subgroup.
  util::Result<EcPoint> LiftXUncleared(const Fp& x) const;

  /// Uniform random point of order q (never infinity).
  EcPoint RandomPoint(util::RandomSource& rng) const;

  /// Uniform random scalar in [1, q-1].
  BigInt RandomScalar(util::RandomSource& rng) const;

 private:
  TypeAParams() = default;

  /// Recodes q (NAF) and h (width-5 wNAF) once; called before
  /// BuildPrecomputation, which replays the q digits.
  void BuildRecodings();

  /// Builds the generator fixed-base table and Miller-loop line cache
  /// (called once at the end of Create/Generate; the tables are
  /// immutable afterwards).
  void BuildPrecomputation();

  /// Hard part of the final exponentiation: t^h for unitary t (norm 1,
  /// so t^-1 == conj(t)) over the cached wNAF digits of h.
  Fp2 HardExpUnitary(const Fp2& t) const;

  BigInt p_;
  BigInt q_;
  BigInt h_;  // (p+1)/q
  std::vector<int8_t> q_naf_;
  std::vector<int8_t> h_wnaf_;
  std::unique_ptr<const FpCtx> ctx_;
  std::unique_ptr<CurveGroup> curve_;
  EcPoint generator_;
  std::unique_ptr<const FixedBaseTable> gen_table_;
  std::unique_ptr<const PairingPrecomp> gen_pairing_;
};

}  // namespace mws::math

#endif  // MWSIBE_MATH_PAIRING_H_
