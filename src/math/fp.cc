#include "src/math/fp.h"

#include <cassert>
#include <cstring>
#include <utility>

namespace mws::math {

namespace {

using fp_internal::AddN;
using fp_internal::CmpN;
using fp_internal::SubN;

/// -x^-1 mod 2^64 for odd x, by Newton iteration.
uint64_t NegInvU64(uint64_t x) {
  uint64_t inv = x;  // correct to 3 bits
  for (int i = 0; i < 5; ++i) inv *= 2 - x * inv;
  return ~inv + 1;  // -inv
}

// --- Allocation-free helpers on n-limb little-endian arrays ---

/// a >>= 1 with `top_bit` shifted into the most significant position.
void Shr1N(uint64_t* a, size_t n, uint64_t top_bit) {
  for (size_t i = 0; i + 1 < n; ++i) {
    a[i] = (a[i] >> 1) | (a[i + 1] << 63);
  }
  a[n - 1] = (a[n - 1] >> 1) | (top_bit << 63);
}

/// a >>= k for 0 < k < 64 * n.
void ShrN(uint64_t* a, size_t n, size_t k) {
  const size_t limbs = k / 64;
  const size_t bits = k % 64;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t lo = i + limbs < n ? a[i + limbs] : 0;
    const uint64_t hi = i + limbs + 1 < n ? a[i + limbs + 1] : 0;
    a[i] = bits == 0 ? lo : (lo >> bits) | (hi << (64 - bits));
  }
}

bool IsZeroN(const uint64_t* a, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (a[i] != 0) return false;
  }
  return true;
}

bool IsOneN(const uint64_t* a, size_t n) {
  if (a[0] != 1) return false;
  for (size_t i = 1; i < n; ++i) {
    if (a[i] != 0) return false;
  }
  return true;
}

void CopyLimbs(const BigInt& v, uint64_t* out, size_t n) {
  const auto& limbs = v.limbs();
  assert(limbs.size() <= n);
  std::memset(out, 0, n * sizeof(uint64_t));
  std::memcpy(out, limbs.data(), limbs.size() * sizeof(uint64_t));
}

BigInt LimbsToBigInt(const uint64_t* limbs, size_t n) {
  util::Bytes be(n * 8);
  for (size_t i = 0; i < n; ++i) {
    uint64_t limb = limbs[n - 1 - i];
    for (int j = 0; j < 8; ++j) {
      be[i * 8 + j] = static_cast<uint8_t>(limb >> (56 - 8 * j));
    }
  }
  return BigInt::FromBytesBe(be);
}

}  // namespace

util::Result<std::unique_ptr<const FpCtx>> FpCtx::Create(const BigInt& p) {
  if (p < BigInt(3) || p.IsEven()) {
    return util::Status::InvalidArgument("modulus must be an odd prime >= 3");
  }
  if (p.limbs().size() > kMaxFpLimbs) {
    return util::Status::InvalidArgument("modulus exceeds kMaxFpLimbs");
  }
  auto ctx = std::unique_ptr<FpCtx>(new FpCtx());
  ctx->p_ = p;
  ctx->nlimbs_ = p.limbs().size();
  CopyLimbs(p, ctx->p_limbs_.data(), ctx->nlimbs_);
  ctx->n0inv_ = NegInvU64(ctx->p_limbs_[0]);
  // R = 2^(64*nlimbs); one_mont = R mod p; r2 = R^2 mod p.
  BigInt r = BigInt(1) << (64 * ctx->nlimbs_);
  CopyLimbs(BigInt::Mod(r, p), ctx->one_mont_.data(), ctx->nlimbs_);
  CopyLimbs(BigInt::Mod(r * r, p), ctx->r2_.data(), ctx->nlimbs_);
  return std::unique_ptr<const FpCtx>(std::move(ctx));
}

void FpCtx::InvMod(const uint64_t* a, uint64_t* out) const {
  // Binary extended GCD (HAC 14.61) on u = a, v = p with x1, x2 tracked
  // mod p. For a in Montgomery form (aR) it yields (aR)^-1 = a^-1 R^-1;
  // two extra Montgomery multiplications by R^2 lift it back to a^-1 R.
  const size_t n = nlimbs_;
  assert(!IsZeroN(a, n));
  uint64_t u[kMaxFpLimbs], v[kMaxFpLimbs];
  uint64_t x1[kMaxFpLimbs] = {0}, x2[kMaxFpLimbs] = {0};
  std::memcpy(u, a, n * sizeof(uint64_t));
  std::memcpy(v, p_limbs_.data(), n * sizeof(uint64_t));
  x1[0] = 1;

  auto halve = [&](uint64_t* x) {
    if (x[0] & 1) {
      uint64_t carry = AddN(x, p_limbs_.data(), x, n);
      Shr1N(x, n, carry);
    } else {
      Shr1N(x, n, 0);
    }
  };

  while (!IsOneN(u, n) && !IsOneN(v, n)) {
    while ((u[0] & 1) == 0) {
      Shr1N(u, n, 0);
      halve(x1);
    }
    while ((v[0] & 1) == 0) {
      Shr1N(v, n, 0);
      halve(x2);
    }
    if (CmpN(u, v, n) >= 0) {
      SubN(u, v, u, n);
      SubMod(x1, x2, x1);
    } else {
      SubN(v, u, v, n);
      SubMod(x2, x1, x2);
    }
  }
  const uint64_t* result = IsOneN(u, n) ? x1 : x2;
  // result = (aR)^-1 = a^-1 R^-1. MontMul twice by R^2:
  //   a^-1 R^-1 * R^2 * R^-1 = a^-1, then a^-1 * R^2 * R^-1 = a^-1 R.
  uint64_t tmp[kMaxFpLimbs];
  MontMul(result, r2_.data(), tmp);
  MontMul(tmp, r2_.data(), out);
}

Fp Fp::Zero(const FpCtx* ctx) {
  Fp out(ctx);
  out.v_.fill(0);
  return out;
}

Fp Fp::One(const FpCtx* ctx) {
  Fp out(ctx);
  std::memcpy(out.v_.data(), ctx->one_mont(),
              ctx->nlimbs() * sizeof(uint64_t));
  return out;
}

Fp Fp::FromBigInt(const FpCtx* ctx, const BigInt& v) {
  BigInt reduced = BigInt::Mod(v, ctx->modulus());
  Fp out(ctx);
  CopyLimbs(reduced, out.v_.data(), ctx->nlimbs());
  // Convert to Montgomery form: a * R mod p = MontMul(a, R^2).
  ctx->MontMul(out.v_.data(), ctx->r2(), out.v_.data());
  return out;
}

Fp Fp::FromU64(const FpCtx* ctx, uint64_t v) {
  return FromBigInt(ctx, BigInt(v));
}

Fp Fp::FromBytes(const FpCtx* ctx, const util::Bytes& b) {
  return FromBigInt(ctx, BigInt::FromBytesBe(b));
}

BigInt Fp::ToBigInt() const {
  assert(valid());
  // Convert out of Montgomery form: MontMul(a, 1).
  uint64_t one[kMaxFpLimbs] = {0};
  one[0] = 1;
  uint64_t plain[kMaxFpLimbs];
  ctx_->MontMul(v_.data(), one, plain);
  return LimbsToBigInt(plain, ctx_->nlimbs());
}

util::Bytes Fp::ToBytes() const {
  return ToBigInt().ToBytesBe(ctx_->byte_length());
}

bool Fp::IsZero() const {
  assert(valid());
  return IsZeroN(v_.data(), ctx_->nlimbs());
}

bool Fp::IsOne() const {
  assert(valid());
  return CmpN(v_.data(), ctx_->one_mont(), ctx_->nlimbs()) == 0;
}

Fp Fp::Neg() const {
  assert(valid());
  if (IsZero()) return *this;
  Fp zero = Zero(ctx_);
  Fp out(ctx_);
  ctx_->SubMod(zero.v_.data(), v_.data(), out.v_.data());
  return out;
}

Fp Fp::Pow(const BigInt& e) const {
  assert(valid());
  assert(!e.IsNegative());
  Fp result = One(ctx_);
  size_t bits = e.BitLength();
  for (size_t i = bits; i-- > 0;) {
    result = result.Sqr();
    if (e.Bit(i)) result = result * *this;
  }
  return result;
}

Fp Fp::Inv() const {
  assert(!IsZero());
  Fp out(ctx_);
  ctx_->InvMod(v_.data(), out.v_.data());
  return out;
}

int Fp::Legendre() const {
  assert(valid());
  // Binary Jacobi symbol (a/m), starting from m = p; no exponentiation.
  // The limbs hold a*R with R = 2^(64n), a square, so (aR/p) = (a/p)
  // and the Montgomery form is read as is. Each pass strips a's factors
  // of two ((2/m) = -1 iff m == 3 or 5 mod 8), makes a >= m by swapping
  // under quadratic reciprocity (a sign flip iff both are 3 mod 4), and
  // replaces a by a - m, which keeps (a/m). Both shrink towards gcd = 1.
  size_t n = ctx_->nlimbs();
  uint64_t a_limbs[kMaxFpLimbs], m_limbs[kMaxFpLimbs];
  std::memcpy(a_limbs, v_.data(), n * sizeof(uint64_t));
  std::memcpy(m_limbs, ctx_->p_limbs(), n * sizeof(uint64_t));
  uint64_t* a = a_limbs;
  uint64_t* m = m_limbs;
  int symbol = 1;
  while (!IsZeroN(a, n)) {
    size_t zeros = 0;
    while (a[zeros / 64] == 0) zeros += 64;
    zeros += static_cast<size_t>(__builtin_ctzll(a[zeros / 64]));
    if (zeros > 0) {
      ShrN(a, n, zeros);
      const uint64_t m8 = m[0] & 7;
      if ((zeros & 1) && (m8 == 3 || m8 == 5)) symbol = -symbol;
    }
    if (CmpN(a, m, n) < 0) {
      std::swap(a, m);
      if ((a[0] & 3) == 3 && (m[0] & 3) == 3) symbol = -symbol;
    }
    SubN(a, m, a, n);
    while (n > 1 && a[n - 1] == 0 && m[n - 1] == 0) --n;
  }
  return IsOneN(m, n) ? symbol : 0;
}

util::Result<Fp> Fp::Sqrt() const {
  assert(valid());
  if (IsZero()) return *this;
  const BigInt& p = ctx_->modulus();
  if ((p % BigInt(4)) != BigInt(3)) {
    return util::Status::Unimplemented("sqrt requires p == 3 mod 4");
  }
  // The Jacobi symbol rejects a non-residue at a fraction of the
  // exponentiation's cost; H1 meets one about every other candidate.
  if (Legendre() == 1) {
    Fp root = Pow((p + BigInt(1)) >> 2);
    if (root.Sqr() == *this) return root;
  }
  return util::Status::InvalidArgument("not a quadratic residue");
}

}  // namespace mws::math
