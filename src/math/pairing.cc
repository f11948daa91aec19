#include "src/math/pairing.h"

#include <cassert>

namespace mws::math {

namespace {

/// Width-w non-adjacent form of a positive integer, least-significant
/// digit first: every nonzero digit is odd, |digit| < 2^(w-1), and the
/// leading digit is positive. w == 2 yields the classic {-1, 0, 1} NAF.
std::vector<int8_t> RecodeWnaf(BigInt n, size_t width) {
  assert(!n.IsNegative() && !n.IsZero());
  assert(width >= 2 && width <= 7);
  const int64_t half = int64_t{1} << (width - 1);
  const int64_t full = int64_t{1} << width;
  std::vector<int8_t> digits;
  while (!n.IsZero()) {
    if (n.Bit(0)) {
      int64_t d = 0;
      for (size_t j = 0; j < width; ++j) {
        if (n.Bit(j)) d |= int64_t{1} << j;
      }
      if (d >= half) d -= full;
      digits.push_back(static_cast<int8_t>(d));
      n = n - BigInt(d);
    } else {
      digits.push_back(0);
    }
    n = n >> 1;
  }
  return digits;
}

}  // namespace

util::Result<std::unique_ptr<const TypeAParams>> TypeAParams::Create(
    const BigInt& p, const BigInt& q, const BigInt& gen_x,
    const BigInt& gen_y, util::RandomSource& rng) {
  if ((p % BigInt(4)) != BigInt(3)) {
    return util::Status::InvalidArgument("p must be 3 mod 4");
  }
  BigInt h, rem;
  BigInt::DivMod(p + BigInt(1), q, &h, &rem);
  if (!rem.IsZero()) {
    return util::Status::InvalidArgument("q must divide p+1");
  }
  if (!BigInt::IsProbablePrime(p, rng, 16) ||
      !BigInt::IsProbablePrime(q, rng, 16)) {
    return util::Status::InvalidArgument("p and q must be prime");
  }
  if ((h % q).IsZero()) {
    return util::Status::InvalidArgument("q must not divide the cofactor");
  }
  auto params = std::unique_ptr<TypeAParams>(new TypeAParams());
  params->p_ = p;
  params->q_ = q;
  params->h_ = h;
  MWS_ASSIGN_OR_RETURN(params->ctx_, FpCtx::Create(p));
  const FpCtx* ctx = params->ctx_.get();
  params->curve_ = std::make_unique<CurveGroup>(ctx, Fp::One(ctx),
                                                Fp::Zero(ctx));
  EcPoint gen(Fp::FromBigInt(ctx, gen_x), Fp::FromBigInt(ctx, gen_y));
  if (!params->curve_->IsOnCurve(gen)) {
    return util::Status::InvalidArgument("generator not on curve");
  }
  if (!params->curve_->ScalarMul(q, gen).is_infinity() || gen.is_infinity()) {
    return util::Status::InvalidArgument("generator does not have order q");
  }
  params->generator_ = gen;
  params->BuildRecodings();
  params->BuildPrecomputation();
  return std::unique_ptr<const TypeAParams>(std::move(params));
}

util::Result<std::unique_ptr<const TypeAParams>> TypeAParams::Generate(
    size_t qbits, size_t pbits, util::RandomSource& rng) {
  if (qbits + 3 > pbits) {
    return util::Status::InvalidArgument("pbits must exceed qbits");
  }
  const BigInt q = BigInt::GeneratePrime(rng, qbits);
  // p = h*q - 1 with h == 0 mod 4 (so p == 3 mod 4, because h*q == 0 mod 4
  // and p = h*q - 1 == -1 == 3 mod 4).
  const size_t hbits = pbits - qbits;
  BigInt p;
  for (;;) {
    BigInt h = BigInt::RandomBits(rng, hbits);
    // Force h to a multiple of 4 (clear the low two bits, keep top bit).
    h = (h >> 2) << 2;
    if (h.IsZero() || (h % q).IsZero()) continue;
    p = h * q - BigInt(1);
    if (p.BitLength() != pbits) continue;
    if (BigInt::IsProbablePrime(p, rng, 32)) break;
  }

  auto ctx_result = FpCtx::Create(p);
  if (!ctx_result.ok()) return ctx_result.status();
  auto params = std::unique_ptr<TypeAParams>(new TypeAParams());
  params->p_ = p;
  params->q_ = q;
  params->h_ = (p + BigInt(1)) / q;
  params->ctx_ = std::move(ctx_result).value();
  const FpCtx* ctx = params->ctx_.get();
  params->curve_ = std::make_unique<CurveGroup>(ctx, Fp::One(ctx),
                                                Fp::Zero(ctx));
  params->generator_ = params->RandomPoint(rng);
  params->BuildRecodings();
  params->BuildPrecomputation();
  return std::unique_ptr<const TypeAParams>(std::move(params));
}

void TypeAParams::BuildRecodings() {
  q_naf_ = RecodeWnaf(q_, 2);
  h_wnaf_ = RecodeWnaf(h_, 5);
}

void TypeAParams::BuildPrecomputation() {
  gen_table_ =
      std::make_unique<FixedBaseTable>(*curve_, generator_, q_);
  gen_pairing_ = std::make_unique<PairingPrecomp>(*this, generator_);
}

util::Result<EcPoint> TypeAParams::LiftXUncleared(const Fp& x) const {
  Fp rhs = x.Sqr() * x + x;  // x^3 + x (a=1, b=0)
  MWS_ASSIGN_OR_RETURN(Fp y, rhs.Sqrt());
  return EcPoint(x, y);
}

util::Result<EcPoint> TypeAParams::LiftX(const Fp& x) const {
  MWS_ASSIGN_OR_RETURN(EcPoint candidate, LiftXUncleared(x));
  EcPoint point = curve_->ScalarMul(h_, candidate);
  if (point.is_infinity()) {
    return util::Status::InvalidArgument("cofactor multiple is identity");
  }
  return point;
}

EcPoint TypeAParams::RandomPoint(util::RandomSource& rng) const {
  for (;;) {
    Fp x = Fp::FromBigInt(ctx_.get(), BigInt::RandomBelow(rng, p_));
    auto point = LiftX(x);
    if (!point.ok()) continue;
    // Randomize the sign of y (LiftX returns a fixed square root).
    if (rng.UniformU64(2) == 1) return curve_->Negate(point.value());
    return point.value();
  }
}

BigInt TypeAParams::RandomScalar(util::RandomSource& rng) const {
  return BigInt::RandomBelow(rng, q_ - BigInt(1)) + BigInt(1);
}

Fp2 TypeAParams::MillerLoop(const EcPoint& point_p,
                            const EcPoint& point_q) const {
  const FpCtx* ctx = ctx_.get();
  if (point_p.is_infinity() || point_q.is_infinity()) return Fp2::One(ctx);

  // Evaluate lines at the distorted point phi(Q) = (-xq, i*yq). A
  // non-vertical line through V with slope lambda evaluates to
  //   (lambda*(xq + xv) - yv) + i*yq        (element of F_p2).
  // Vertical lines evaluate inside F_p and are erased by the final
  // exponentiation (denominator elimination) — and so is any F_p* scalar
  // multiple of a line value, which lets the whole loop run
  // inversion-free: V is kept in Jacobian coordinates (x = X/Z^2,
  // y = Y/Z^3) and each line is scaled by a point-dependent element of
  // F_p* to clear the denominators.
  const Fp& xq = point_q.x();
  const Fp& yq = point_q.y();
  const Fp& px = point_p.x();
  const Fp& py = point_p.y();

  Fp2 f = Fp2::One(ctx);
  // V = P in Jacobian coordinates; v_infinity tracks Z == 0.
  Fp vx = px;
  Fp vy = py;
  Fp vz = Fp::One(ctx);
  bool v_infinity = false;

  const size_t bits = q_.BitLength();
  for (size_t i = bits - 1; i-- > 0;) {
    f = f.SqrReference();
    if (!v_infinity) {
      if (vy.IsZero()) {
        // V is 2-torsion: the tangent is vertical, 2V = infinity.
        // (Unreachable for prime q, kept for safety.)
        v_infinity = true;
      } else {
        // Tangent line at V, scaled by 2*yv*Z^6:
        //   (3X^2 + Z^4)(xq*Z^2 + X) - 2Y^2 + i * 2*Y*Z^3*yq.
        Fp z2 = vz.Sqr();
        Fp z4 = z2.Sqr();
        Fp z3 = vz * z2;
        Fp x2 = vx.Sqr();
        Fp m = x2.Double() + x2 + z4;  // 3X^2 + a*Z^4 with a = 1
        Fp y2 = vy.Sqr();
        Fp line_re = m * (xq * z2 + vx) - y2.Double();
        Fp line_im = (vy * z3).Double() * yq;
        f = f.MulReference(Fp2(line_re, line_im));
        // Jacobian doubling (general a; m already holds M).
        Fp s = (vx * y2).Double().Double();      // 4*X*Y^2
        Fp x_new = m.Sqr() - s.Double();
        Fp y4_8 = y2.Sqr().Double().Double().Double();  // 8*Y^4
        Fp y_new = m * (s - x_new) - y4_8;
        Fp z_new = (vy * vz).Double();
        vx = x_new;
        vy = y_new;
        vz = z_new;
      }
    }
    if (q_.Bit(i)) {
      if (v_infinity) {
        // O + P = P; the "line" is trivial.
        vx = px;
        vy = py;
        vz = Fp::One(ctx);
        v_infinity = false;
      } else {
        // Mixed addition V (Jacobian) + P (affine).
        Fp z2 = vz.Sqr();
        Fp z3 = vz * z2;
        Fp u2 = px * z2;   // xp * Z^2
        Fp s2 = py * z3;   // yp * Z^3
        Fp h = u2 - vx;    // Z^2 * (xp - xv)
        Fp r = s2 - vy;    // Z^3 * (yp - yv)
        if (h.IsZero()) {
          // V == -P (V == P cannot occur mid-loop for prime q): the
          // chord is the vertical through P; sum is infinity.
          v_infinity = true;
        } else {
          // Chord through V and P, scaled by Z*H = Z^3*(xp - xv):
          //   R*(xq + xp) - yp*Z*H + i * Z*H*yq.
          Fp zh = vz * h;
          Fp line_re = r * (xq + px) - py * zh;
          Fp line_im = zh * yq;
          f = f.MulReference(Fp2(line_re, line_im));
          Fp h2 = h.Sqr();
          Fp h3 = h2 * h;
          Fp xh2 = vx * h2;
          Fp x_new = r.Sqr() - h3 - xh2.Double();
          Fp y_new = r * (xh2 - x_new) - vy * h3;
          vx = x_new;
          vy = y_new;
          vz = zh;
        }
      }
    }
  }
  return f;
}

Fp2 TypeAParams::MillerLoopNaf(const EcPoint& point_p,
                               const EcPoint& point_q) const {
  const FpCtx* ctx = ctx_.get();
  if (point_p.is_infinity() || point_q.is_infinity()) return Fp2::One(ctx);

  // Same line/evaluation scheme as MillerLoop (see the comment there),
  // but walking the cached NAF digits of q: a -1 digit performs a
  // subtraction step, whose chord runs through V and -P = (px, -py).
  // Roughly bits/3 nonzero digits replace the bits/2 addition steps of
  // the binary loop. The running value differs from the binary loop's by
  // a factor in F_p* only, which the final exponentiation erases.
  const Fp& xq = point_q.x();
  const Fp& yq = point_q.y();
  const Fp& px = point_p.x();
  const Fp& py = point_p.y();
  const Fp py_neg = py.Neg();

  Fp2 f = Fp2::One(ctx);
  Fp vx = px;
  Fp vy = py;
  Fp vz = Fp::One(ctx);
  bool v_infinity = false;

  for (size_t i = q_naf_.size() - 1; i-- > 0;) {
    f = f.Sqr();
    if (!v_infinity) {
      if (vy.IsZero()) {
        // V is 2-torsion (unreachable for prime q, kept for safety).
        v_infinity = true;
      } else {
        Fp z2 = vz.Sqr();
        Fp z4 = z2.Sqr();
        Fp z3 = vz * z2;
        Fp x2 = vx.Sqr();
        Fp m = x2.Double() + x2 + z4;  // 3X^2 + a*Z^4 with a = 1
        Fp y2 = vy.Sqr();
        Fp line_re = m * (xq * z2 + vx) - y2.Double();
        Fp line_im = (vy * z3).Double() * yq;
        f = f * Fp2(line_re, line_im);
        Fp s = (vx * y2).Double().Double();      // 4*X*Y^2
        Fp x_new = m.Sqr() - s.Double();
        Fp y4_8 = y2.Sqr().Double().Double().Double();  // 8*Y^4
        Fp y_new = m * (s - x_new) - y4_8;
        Fp z_new = (vy * vz).Double();
        vx = x_new;
        vy = y_new;
        vz = z_new;
      }
    }
    const int8_t digit = q_naf_[i];
    if (digit != 0) {
      // Mixed addition of A = (px, sy) with sy = +-py.
      const Fp& sy = digit > 0 ? py : py_neg;
      if (v_infinity) {
        vx = px;
        vy = sy;
        vz = Fp::One(ctx);
        v_infinity = false;
      } else {
        Fp z2 = vz.Sqr();
        Fp z3 = vz * z2;
        Fp u2 = px * z2;   // xA * Z^2
        Fp s2 = sy * z3;   // yA * Z^3
        Fp h = u2 - vx;
        Fp r = s2 - vy;
        if (h.IsZero()) {
          // V == -A: vertical chord, sum is infinity. (V == A is
          // unreachable mid-loop for prime q.)
          v_infinity = true;
        } else {
          // Chord through V and A, scaled by Z*H:
          //   R*(xq + xA) - yA*Z*H + i * Z*H*yq.
          Fp zh = vz * h;
          Fp line_re = r * (xq + px) - sy * zh;
          Fp line_im = zh * yq;
          f = f * Fp2(line_re, line_im);
          Fp h2 = h.Sqr();
          Fp h3 = h2 * h;
          Fp xh2 = vx * h2;
          Fp x_new = r.Sqr() - h3 - xh2.Double();
          Fp y_new = r * (xh2 - x_new) - vy * h3;
          vx = x_new;
          vy = y_new;
          vz = zh;
        }
      }
    }
  }
  return f;
}

Fp2 TypeAParams::HardExpUnitary(const Fp2& t) const {
  // t has norm 1 (it is z^(p-1) for some z, and N(x^(p-1)) = N(x)^(p-1)
  // = 1 in F_p), so t^-1 == conj(t): negative wNAF digits multiply by a
  // conjugated table entry instead of requiring an inversion.
  const FpCtx* c = ctx_.get();
  // Odd powers t^1, t^3, ..., t^15 (width-5 digits).
  Fp2 odd[8];
  odd[0] = t;
  Fp2 t2 = t.Sqr();
  for (size_t i = 1; i < 8; ++i) odd[i] = odd[i - 1] * t2;
  Fp2 r = Fp2::One(c);
  for (size_t i = h_wnaf_.size(); i-- > 0;) {
    r = r.Sqr();
    const int8_t d = h_wnaf_[i];
    if (d > 0) {
      r = r * odd[d >> 1];
    } else if (d < 0) {
      r = r * odd[(-d) >> 1].Conjugate();
    }
  }
  return r;
}

Fp2 TypeAParams::FinalExponentiation(const Fp2& z) const {
  // (p^2 - 1)/q = (p - 1) * h.  z^(p-1) = conj(z) / z because the
  // Frobenius on F_p2 is conjugation.
  if (z.IsZero()) return z;  // degenerate input; no inverse exists
  if (z.IsOne()) return z;   // infinity-pairing fast path: 1^e == 1
  Fp2 t = z.Conjugate() * z.Inv();
  return HardExpUnitary(t);
}

std::vector<Fp2> TypeAParams::FinalExponentiationMany(
    const std::vector<Fp2>& zs) const {
  // Easy part z^(p-1) = conj(z) * conj(z) / N(z) with all the norm
  // inversions batched through Montgomery's trick: one InvMod total.
  // Every step matches what FinalExponentiation does element-wise (the
  // batched inverses are canonical, hence bit-identical to Fp::Inv), so
  // outputs are bit-identical to the one-at-a-time path.
  std::vector<Fp2> out = zs;
  std::vector<size_t> live;
  live.reserve(zs.size());
  for (size_t i = 0; i < zs.size(); ++i) {
    if (!zs[i].IsZero() && !zs[i].IsOne()) live.push_back(i);
  }
  if (live.empty()) return out;
  const FpCtx* c = ctx_.get();
  std::vector<Fp> norms(live.size());
  std::vector<Fp> prefix(live.size());
  Fp run = Fp::One(c);
  for (size_t j = 0; j < live.size(); ++j) {
    const Fp2& z = zs[live[j]];
    norms[j] = z.re().Sqr() + z.im().Sqr();
    prefix[j] = run;
    run = run * norms[j];
  }
  Fp inv = run.Inv();
  for (size_t j = live.size(); j-- > 0;) {
    Fp ninv = inv * prefix[j];
    inv = inv * norms[j];
    const Fp2& z = zs[live[j]];
    // z.Inv() with the batched norm inverse; same formula as Fp2::Inv.
    Fp2 zinv(z.re() * ninv, z.im().Neg() * ninv);
    out[live[j]] = HardExpUnitary(z.Conjugate() * zinv);
  }
  return out;
}

Fp2 TypeAParams::FinalExponentiationReference(const Fp2& z) const {
  Fp2 t = z.Conjugate() * z.Inv();
  return t.Pow(h_);
}

Fp2 TypeAParams::Pairing(const EcPoint& point_p,
                         const EcPoint& point_q) const {
  return FinalExponentiation(MillerLoopNaf(point_p, point_q));
}

Fp2 TypeAParams::PairingReference(const EcPoint& point_p,
                                  const EcPoint& point_q) const {
  return FinalExponentiationReference(MillerLoop(point_p, point_q));
}

Fp2 TypeAParams::PairingProduct(const std::vector<PairingTerm>& terms) const {
  const FpCtx* ctx = ctx_.get();

  // Per-term Miller state for terms whose lines are computed live.
  struct LiveState {
    const EcPoint* p;
    const EcPoint* q;
    Fp py_neg;
    Fp vx, vy, vz;
    bool v_infinity = false;
  };
  struct PrecompState {
    const PairingPrecomp* pre;
    const EcPoint* q;
  };
  std::vector<LiveState> lives;
  std::vector<PrecompState> pres;
  const size_t step_count = q_naf_.size() - 1;
  for (const PairingTerm& t : terms) {
    if (t.q.is_infinity()) continue;  // e(*, O) == 1
    if (t.precomp != nullptr) {
      if (t.precomp->StepCount() == 0) continue;  // e(O, *) == 1
      assert(t.precomp->StepCount() == step_count);
      pres.push_back(PrecompState{t.precomp, &t.q});
    } else {
      if (t.p.is_infinity()) continue;
      LiveState st;
      st.p = &t.p;
      st.q = &t.q;
      st.py_neg = t.p.y().Neg();
      st.vx = t.p.x();
      st.vy = t.p.y();
      st.vz = Fp::One(ctx);
      lives.push_back(std::move(st));
    }
  }

  // All Tate pairings here share the loop exponent q, so a single
  // accumulator f runs one squaring chain for every term; each term only
  // contributes its line evaluations per iteration. One final
  // exponentiation finishes the product. Since (f1*f2)^e == f1^e * f2^e
  // and all values are canonical, the result is bit-identical to
  // multiplying individual Pairing() outputs.
  Fp2 f = Fp2::One(ctx);
  for (size_t i = step_count; i-- > 0;) {
    f = f.Sqr();
    const int8_t digit = q_naf_[i];
    const size_t step = step_count - 1 - i;
    for (const PrecompState& ps : pres) {
      ps.pre->EvalStep(step, ps.q->x(), ps.q->y(), &f);
    }
    for (LiveState& st : lives) {
      const Fp& xq = st.q->x();
      const Fp& yq = st.q->y();
      const Fp& px = st.p->x();
      const Fp& py = st.p->y();
      if (!st.v_infinity) {
        if (st.vy.IsZero()) {
          st.v_infinity = true;
        } else {
          Fp z2 = st.vz.Sqr();
          Fp z4 = z2.Sqr();
          Fp z3 = st.vz * z2;
          Fp x2 = st.vx.Sqr();
          Fp m = x2.Double() + x2 + z4;
          Fp y2 = st.vy.Sqr();
          Fp line_re = m * (xq * z2 + st.vx) - y2.Double();
          Fp line_im = (st.vy * z3).Double() * yq;
          f = f * Fp2(line_re, line_im);
          Fp s = (st.vx * y2).Double().Double();
          Fp x_new = m.Sqr() - s.Double();
          Fp y4_8 = y2.Sqr().Double().Double().Double();
          Fp y_new = m * (s - x_new) - y4_8;
          Fp z_new = (st.vy * st.vz).Double();
          st.vx = x_new;
          st.vy = y_new;
          st.vz = z_new;
        }
      }
      if (digit != 0) {
        const Fp& sy = digit > 0 ? py : st.py_neg;
        if (st.v_infinity) {
          st.vx = px;
          st.vy = sy;
          st.vz = Fp::One(ctx);
          st.v_infinity = false;
        } else {
          Fp z2 = st.vz.Sqr();
          Fp z3 = st.vz * z2;
          Fp u2 = px * z2;
          Fp s2 = sy * z3;
          Fp h = u2 - st.vx;
          Fp r = s2 - st.vy;
          if (h.IsZero()) {
            st.v_infinity = true;
          } else {
            Fp zh = st.vz * h;
            Fp line_re = r * (xq + px) - sy * zh;
            Fp line_im = zh * yq;
            f = f * Fp2(line_re, line_im);
            Fp h2 = h.Sqr();
            Fp h3 = h2 * h;
            Fp xh2 = st.vx * h2;
            Fp x_new = r.Sqr() - h3 - xh2.Double();
            Fp y_new = r * (xh2 - x_new) - st.vy * h3;
            st.vx = x_new;
            st.vy = y_new;
            st.vz = zh;
          }
        }
      }
    }
  }
  return FinalExponentiation(f);
}

}  // namespace mws::math
