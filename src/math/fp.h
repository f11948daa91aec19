#ifndef MWSIBE_MATH_FP_H_
#define MWSIBE_MATH_FP_H_

#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/math/bigint.h"
#include "src/util/result.h"

namespace mws::math {

/// Largest supported field size: 16 limbs = 1024 bits (the kLarge
/// preset). Elements store limbs inline, so field arithmetic is
/// allocation-free — this is the pairing's hot path.
inline constexpr size_t kMaxFpLimbs = 16;

namespace fp_internal {

using u128 = unsigned __int128;

/// Limb-array helpers shared by the inline kernels below and fp.cc.
/// Header-inline so Montgomery arithmetic fully inlines into callers —
/// the cross-TU call per field op otherwise costs as much as the
/// multiply itself on small fields.

inline int CmpN(const uint64_t* a, const uint64_t* b, size_t n) {
  for (size_t i = n; i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

/// out = a - b; returns the final borrow (1 if a < b).
inline uint64_t SubN(const uint64_t* a, const uint64_t* b, uint64_t* out,
                     size_t n) {
  uint64_t borrow = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t ai = a[i];
    uint64_t bi = b[i];
    uint64_t d = ai - bi;
    uint64_t b2 = ai < bi ? 1 : 0;
    uint64_t d2 = d - borrow;
    if (d < borrow) b2 = 1;
    out[i] = d2;
    borrow = b2;
  }
  return borrow;
}

/// out = a + b; returns the final carry.
inline uint64_t AddN(const uint64_t* a, const uint64_t* b, uint64_t* out,
                     size_t n) {
  uint64_t carry = 0;
  for (size_t i = 0; i < n; ++i) {
    u128 sum = static_cast<u128>(a[i]) + b[i] + carry;
    out[i] = static_cast<uint64_t>(sum);
    carry = static_cast<uint64_t>(sum >> 64);
  }
  return carry;
}

}  // namespace fp_internal

/// Shared context for arithmetic modulo an odd prime p, holding the
/// Montgomery constants. Field elements (`Fp`) reference a context by
/// pointer; the context must outlive every element created from it
/// (in this library contexts are owned by pairing parameter objects).
class FpCtx {
 public:
  /// Pre: p is an odd prime >= 3 of at most kMaxFpLimbs limbs.
  /// (Primality is the caller's contract; only oddness is checked.)
  static util::Result<std::unique_ptr<const FpCtx>> Create(const BigInt& p);

  const BigInt& modulus() const { return p_; }
  size_t nlimbs() const { return nlimbs_; }
  size_t byte_length() const { return (p_.BitLength() + 7) / 8; }

  /// Montgomery product out = a*b*R^-1 mod p. All spans have nlimbs()
  /// limbs; `out` may alias `a` or `b`. Inline (fused CIOS): the whole
  /// kernel inlines into callers, which roughly halves the cost of a
  /// field multiplication versus an out-of-line call.
  void MontMul(const uint64_t* a, const uint64_t* b, uint64_t* out) const {
    using fp_internal::u128;
    const size_t n = nlimbs_;
    uint64_t t[kMaxFpLimbs + 1];
    for (size_t j = 0; j <= n; ++j) t[j] = 0;
    for (size_t i = 0; i < n; ++i) {
      // One fused pass: t = (t + a[i]*b + u*p) / 2^64, where u is chosen
      // so the low limb of the sum vanishes. The invariant t < 2p holds
      // after every pass, so one conditional subtraction finishes.
      const uint64_t ai = a[i];
      u128 cur = static_cast<u128>(ai) * b[0] + t[0];
      uint64_t carry_a = static_cast<uint64_t>(cur >> 64);
      const uint64_t u = static_cast<uint64_t>(cur) * n0inv_;
      u128 cur2 = static_cast<u128>(u) * p_limbs_[0] +
                  static_cast<uint64_t>(cur);
      uint64_t carry_m = static_cast<uint64_t>(cur2 >> 64);
      for (size_t j = 1; j < n; ++j) {
        cur = static_cast<u128>(ai) * b[j] + t[j] + carry_a;
        carry_a = static_cast<uint64_t>(cur >> 64);
        cur2 = static_cast<u128>(u) * p_limbs_[j] +
               static_cast<uint64_t>(cur) + carry_m;
        t[j - 1] = static_cast<uint64_t>(cur2);
        carry_m = static_cast<uint64_t>(cur2 >> 64);
      }
      cur = static_cast<u128>(t[n]) + carry_a + carry_m;
      t[n - 1] = static_cast<uint64_t>(cur);
      t[n] = static_cast<uint64_t>(cur >> 64);
    }
    if (t[n] != 0 || GeqP(t)) {
      fp_internal::SubN(t, p_limbs_.data(), out, n);
    } else {
      for (size_t j = 0; j < n; ++j) out[j] = t[j];
    }
  }

  /// out = (a+b) mod p.
  void AddMod(const uint64_t* a, const uint64_t* b, uint64_t* out) const {
    const size_t n = nlimbs_;
    uint64_t carry = fp_internal::AddN(a, b, out, n);
    if (carry || GeqP(out)) {
      fp_internal::SubN(out, p_limbs_.data(), out, n);
    }
  }

  /// out = (a-b) mod p.
  void SubMod(const uint64_t* a, const uint64_t* b, uint64_t* out) const {
    const size_t n = nlimbs_;
    if (fp_internal::SubN(a, b, out, n)) {
      fp_internal::AddN(out, p_limbs_.data(), out, n);
    }
  }

  // --- Lazy-reduction (accumulate-then-reduce) primitives --------------

  /// One Montgomery reduction of a two-product accumulation, as a single
  /// fused pass: out = (x1*y1 + x2*y2) * R^-1 mod p, canonical. The
  /// products never materialize in double width — each CIOS pass folds
  /// one limb of both multiplicands plus the reduction row into the
  /// running accumulator (invariant t < 3p: the pass numerator is at
  /// most 3p - 1 + (2^64-1)*(y1 + y2 + p) < 2^64 * 3p for y1 + y2 <=
  /// 2p). This is the workhorse of the lazy-reduction F_p2 arithmetic:
  /// each output coefficient of a complex product is exactly one such
  /// call. `out` may alias any input.
  void MontMulAcc2(const uint64_t* x1, const uint64_t* y1, const uint64_t* x2,
                   const uint64_t* y2, uint64_t* out) const {
    using fp_internal::u128;
    const size_t n = nlimbs_;
    uint64_t t[kMaxFpLimbs + 1];
    for (size_t j = 0; j <= n; ++j) t[j] = 0;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t xa = x1[i];
      const uint64_t xb = x2[i];
      u128 c1 = static_cast<u128>(xa) * y1[0] + t[0];
      u128 c2 = static_cast<u128>(xb) * y2[0] + static_cast<uint64_t>(c1);
      uint64_t ca = static_cast<uint64_t>(c1 >> 64);
      uint64_t cb = static_cast<uint64_t>(c2 >> 64);
      const uint64_t u = static_cast<uint64_t>(c2) * n0inv_;
      u128 c3 = static_cast<u128>(u) * p_limbs_[0] +
                static_cast<uint64_t>(c2);
      uint64_t cm = static_cast<uint64_t>(c3 >> 64);
      for (size_t j = 1; j < n; ++j) {
        c1 = static_cast<u128>(xa) * y1[j] + t[j] + ca;
        ca = static_cast<uint64_t>(c1 >> 64);
        c2 = static_cast<u128>(xb) * y2[j] + static_cast<uint64_t>(c1) + cb;
        cb = static_cast<uint64_t>(c2 >> 64);
        c3 = static_cast<u128>(u) * p_limbs_[j] + static_cast<uint64_t>(c2) +
             cm;
        t[j - 1] = static_cast<uint64_t>(c3);
        cm = static_cast<uint64_t>(c3 >> 64);
      }
      u128 cur = static_cast<u128>(t[n]) + ca + cb + cm;
      t[n - 1] = static_cast<uint64_t>(cur);
      t[n] = static_cast<uint64_t>(cur >> 64);
    }
    // t < 3p: at most two conditional subtractions make it canonical.
    while (t[n] != 0 || GeqP(t)) {
      t[n] -= fp_internal::SubN(t, p_limbs_.data(), t, n);
    }
    for (size_t j = 0; j < n; ++j) out[j] = t[j];
  }

  /// Lazy-reduction complex product over F_p2 = F_p[i]/(i^2+1), on raw
  /// Montgomery limbs: (or + i*oi) = (ar + i*ai) * (br + i*bi) with
  /// exactly one Montgomery reduction per output coefficient —
  /// re = ar*br + ai*(p-bi) and im = ar*bi + ai*br, each a MontMulAcc2
  /// chain (the subtraction folds into a negated multiplicand; bi == 0
  /// gives p - bi = p, which the t < 3p invariant still accommodates).
  /// The schoolbook form costs the same limb products as Karatsuba with
  /// per-product reduction but drops one full reduction and all the
  /// cross-term add/sub passes. Outputs may alias inputs.
  void Fp2MulLazy(const uint64_t* ar, const uint64_t* ai, const uint64_t* br,
                  const uint64_t* bi, uint64_t* or_, uint64_t* oi) const {
    const size_t n = nlimbs_;
    // nbi is zero-initialized only to satisfy -Wmaybe-uninitialized (GCC
    // cannot see that SubN writes the nlimbs() limbs MontMulAcc2 reads).
    uint64_t nbi[kMaxFpLimbs] = {0};
    uint64_t re[kMaxFpLimbs];
    fp_internal::SubN(p_limbs_.data(), bi, nbi, n);
    MontMulAcc2(ar, br, ai, nbi, re);
    MontMulAcc2(ar, bi, ai, br, oi);
    for (size_t j = 0; j < n; ++j) or_[j] = re[j];
  }

  /// Complex squaring: (or + i*oi) = (ar + i*ai)^2 with one Montgomery
  /// reduction per output coefficient: re = (a+b)(a-b), im = 2*(a*b),
  /// each coefficient a single fused CIOS chain. Outputs may alias
  /// inputs.
  void Fp2SqrLazy(const uint64_t* ar, const uint64_t* ai, uint64_t* or_,
                  uint64_t* oi) const {
    // d is zero-initialized only to satisfy -Wmaybe-uninitialized (GCC
    // cannot see that SubMod writes the nlimbs() limbs MontMul reads).
    uint64_t s[kMaxFpLimbs], d[kMaxFpLimbs] = {0}, c[kMaxFpLimbs];
    AddMod(ar, ai, s);
    SubMod(ar, ai, d);
    MontMul(ar, ai, c);
    MontMul(s, d, or_);
    AddMod(c, c, oi);
  }

  /// out = a^-1 * R^2 ... precisely: given a in Montgomery form, writes
  /// the Montgomery form of the inverse. Pre: a != 0. Allocation-free
  /// binary extended GCD.
  void InvMod(const uint64_t* a, uint64_t* out) const;

  const uint64_t* r2() const { return r2_.data(); }
  const uint64_t* one_mont() const { return one_mont_.data(); }
  const uint64_t* p_limbs() const { return p_limbs_.data(); }

 private:
  FpCtx() = default;

  /// True if a >= p (limb comparison).
  bool GeqP(const uint64_t* a) const {
    return fp_internal::CmpN(a, p_limbs_.data(), nlimbs_) >= 0;
  }

  BigInt p_;
  size_t nlimbs_ = 0;
  uint64_t n0inv_ = 0;  // -p^-1 mod 2^64
  std::array<uint64_t, kMaxFpLimbs> p_limbs_{};
  std::array<uint64_t, kMaxFpLimbs> r2_{};        // R^2 mod p
  std::array<uint64_t, kMaxFpLimbs> one_mont_{};  // R mod p
};

/// An element of F_p in Montgomery representation. Value type with
/// inline storage; trivially copyable. All binary operations require
/// both operands to share a context.
class Fp {
 public:
  /// An invalid element; using it in arithmetic asserts. Exists so
  /// containers and out-params are expressible.
  Fp() : ctx_(nullptr), v_{} {}

  static Fp Zero(const FpCtx* ctx);
  static Fp One(const FpCtx* ctx);
  /// Reduces `v` mod p and converts to Montgomery form.
  static Fp FromBigInt(const FpCtx* ctx, const BigInt& v);
  static Fp FromU64(const FpCtx* ctx, uint64_t v);
  /// Interprets big-endian bytes as an integer, reduces mod p.
  static Fp FromBytes(const FpCtx* ctx, const util::Bytes& b);

  BigInt ToBigInt() const;
  /// Fixed-width big-endian encoding (ctx->byte_length() bytes).
  util::Bytes ToBytes() const;

  bool valid() const { return ctx_ != nullptr; }
  const FpCtx* ctx() const { return ctx_; }
  bool IsZero() const;
  bool IsOne() const;

  Fp operator+(const Fp& o) const {
    assert(valid() && ctx_ == o.ctx_);
    Fp out(ctx_);
    ctx_->AddMod(v_.data(), o.v_.data(), out.v_.data());
    return out;
  }
  Fp operator-(const Fp& o) const {
    assert(valid() && ctx_ == o.ctx_);
    Fp out(ctx_);
    ctx_->SubMod(v_.data(), o.v_.data(), out.v_.data());
    return out;
  }
  Fp operator*(const Fp& o) const {
    assert(valid() && ctx_ == o.ctx_);
    Fp out(ctx_);
    ctx_->MontMul(v_.data(), o.v_.data(), out.v_.data());
    return out;
  }
  Fp Neg() const;
  Fp Sqr() const {
    assert(valid());
    Fp out(ctx_);
    ctx_->MontMul(v_.data(), v_.data(), out.v_.data());
    return out;
  }
  /// a^e mod p, e >= 0.
  Fp Pow(const BigInt& e) const;
  /// Multiplicative inverse. Pre: non-zero.
  Fp Inv() const;
  /// +1 if QR, -1 if non-residue, 0 if zero. A binary Jacobi symbol,
  /// several times cheaper than Euler's a^((p-1)/2).
  int Legendre() const;
  /// Square root (p == 3 mod 4 fast path); fails for non-residues, which
  /// Legendre() rejects before the exponentiation.
  util::Result<Fp> Sqrt() const;
  /// Doubling without general multiplication.
  Fp Double() const { return *this + *this; }

  friend bool operator==(const Fp& a, const Fp& b) {
    if (a.ctx_ != b.ctx_) return false;
    if (a.ctx_ == nullptr) return true;
    for (size_t i = 0; i < a.ctx_->nlimbs(); ++i) {
      if (a.v_[i] != b.v_[i]) return false;
    }
    return true;
  }
  friend bool operator!=(const Fp& a, const Fp& b) { return !(a == b); }

 private:
  friend class Fp2;  // lazy-reduction kernels write limbs directly

  /// Leaves the limbs uninitialized: every arithmetic routine writes all
  /// nlimbs() limbs before the value escapes, and nothing reads beyond
  /// nlimbs(). Skipping the 128-byte zero-fill here is a measurable win
  /// in the pairing hot loops.
  explicit Fp(const FpCtx* ctx) : ctx_(ctx) {}

  const FpCtx* ctx_;
  std::array<uint64_t, kMaxFpLimbs> v_;  // Montgomery form
};

}  // namespace mws::math

#endif  // MWSIBE_MATH_FP_H_
