"""Dirichlet-to-Neumann spectra of radial piecewise-constant coefficients.

One engine solves both kinds.  For degree k the radial equation on a
piece (a, b] is (r^2 gamma_j u')' = k(k+1) gamma_j u for a conductivity and
(r^2 u')' = (c r^2 + k(k+1)) u for a potential, and u and r gamma u'
(gamma = 1 for a potential) are continuous across interfaces.  Per degree the
state is a projective pair of Python ints (U, V) proportional to
(u, r gamma u').  A piece carries it by v_b = Phi_b adj(Phi_a) v_a, where the
columns of Phi_r are the two fundamental solutions as (u, r gamma u') at r;
the innermost piece keeps its regular solution alone.

A flat piece is every conductivity piece, and a potential piece with c = 0
taken as gamma_j = 1.  Its solutions r^k and r^{-(k+1)}, scaled, give
Phi_a = [[1, 1], [g k, -g(k+1)]] and Phi_b = [[1, t], [g k, -g(k+1) t]] with
g = gamma_j and t = (a/b)^{2k+1}, so with B = g k U - V and A = g(k+1) U + V

    U <- A + t B,    V <- g (k A - (k+1) t B).

gamma_j = G / 2^gn enters exactly and t in F-bit fixed point,
F = prec + GUARD_BITS + bit_length(max(m, K+1)).  B = 0 means u is the pure
r^k solution, which crosses unchanged: the pair is reset exactly to
(1, gamma_j k), so lambda_0 = 0 and a flat gamma gives lambda_k = gamma k/R
correctly rounded.

A Bessel piece is a potential piece with c != 0: with x = sqrt(|c|) r its
solutions are i_k, kk_k (c > 0) or j_k, y_k (c < 0) of x, and
r u' = x f_k' = k f_k +- x f_{k+1}.  Every ladder value comes as the exact
int pair (N, E) its integer recurrence formed, so a column (f_k, x f_k') is
a pair of exact ints sharing one exponent; the exponents drop out of
Phi_b adj(Phi_a) up to one left shift that aligns the two columns, which
leaves eight exact integer products per degree.  When one column's term lies more than 2F bits below the
other's it is dropped, and the shift with it.  The ladders of a piece serve
all k at once.

After each piece one shift brings U back to F bits (V when U = 0), the only
rounding inside the loop; unlike max(|U|, |V|), this keeps F bits of U however
large a conductivity contrast makes V / U.  lambda is homogeneous of degree
one in gamma, so a conductivity is solved for gamma / 2^se, whose outermost
value lies in [1, 2), and V keeps its F bits however far gamma lies below 1.
lambda_k = 2^se V / (U R) is rounded to prec once, at the end.  A spectrum
costs O(m K) integer products, in the transfer and in the integer ladders of
its Bessel pieces.  Only a potential can put a Dirichlet eigenvalue at 0,
where u(R) vanishes; its spectrum raises DirichletCollisionError when
|R u| < 2^(-prec/2) |u + R u'|.
"""

from dataclasses import dataclass

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import (
    finf,
    fninf,
    fone,
    from_int,
    from_man_exp,
    fzero,
    mpf_add,
    mpf_div,
    mpf_eq,
    mpf_mul,
    mpf_mul_int,
    mpf_pow_int,
    mpf_sub,
    round_nearest,
)

from .highprec import (
    GUARD_BITS,
    check_precision,
    finite_dyadic,
    mod_sph_i_ladder,
    mod_sph_k_ladder,
    sph_j_ladder,
    sph_y_ladder,
    to_prec,
)
from .profiles import PiecewiseProfile, ProfileKind

ODE_STEP = 1e-4  # the largest Taylor step of ode_log_derivative_oracle


class DirichletCollisionError(ArithmeticError):
    """R u(R) underflowed relative to u(R) + R u'(R): 0 is a Dirichlet eigenvalue of -Delta + q."""

    def __init__(self, k):
        self.k = k
        super().__init__(f"Dirichlet-eigenvalue collision at degree k = {k}")


class TransferDenominatorError(ArithmeticError):
    """The radius-map denominator a lambda_k + k + 1 - (a/R)^{2k+1} a s_k vanished."""

    def __init__(self, k):
        self.k = k
        super().__init__(f"radius-transfer denominator vanished at degree k = {k}")


@dataclass(frozen=True)
class DtnSpectrum:
    """DtN eigenvalues lambda_0..lambda_K with kind, radius and precision.

    The radius is the exact value the lambdas belong to: the profile's own, or
    the mpf that ``transfer_radius`` moved them to.
    """

    kind: ProfileKind
    radius: "float | mpf"
    lambdas: tuple
    prec: int

    def __post_init__(self):
        object.__setattr__(self, "lambdas", tuple(self.lambdas))

    @property
    def kmax(self):
        return len(self.lambdas) - 1


def _bessel_columns(ladder, x, sgn, kmax):
    """Exact ints (f, v, e) with (f_k(x), x f_k'(x)) = (f, v) 2^e, k = 0..kmax.

    x f_k' = k f_k + sgn x f_{k+1}, so (f_k, x f_k') at x = s r is (u, r u')
    for u = f_k(s r).
    """
    _, xm, xe, _ = x._mpf_
    vals = ladder(kmax, x)
    cols = []
    for k in range(kmax + 1):
        fm, fe = vals[k]
        hm, he = vals[k + 1]
        he += xe
        e = min(fe, he)
        f = fm << fe - e
        cols.append((f, k * f + (sgn * xm * hm << he - e), e))
    return cols


def _to_bits(U, V, bits):
    # one shift brings U to `bits` bits (V when U = 0)
    s = (U or V).bit_length() - bits
    return (U >> s, V >> s) if s >= 0 else (U << -s, V << -s)


def _fixed_ratio(a, b, bits):
    # floor(a / b * 2**bits) for dyadics a = (man, exp), b = (man, exp)
    (am, ae), (bm, be) = a, b
    s = ae - be + bits
    return (am << s) // bm if s >= 0 else am // (bm << -s)


def _spectrum(p, kmax, prec):
    """lambda_0..lambda_kmax of either kind by the one transfer described above."""
    if not isinstance(p, PiecewiseProfile):
        raise TypeError("the forward engine needs a PiecewiseProfile; use project_midpoint")
    if kmax < 0:
        raise ValueError(f"need a term count kmax >= 0, got {kmax}")
    prec = check_precision(prec)
    potential = p.kind is ProfileKind.POTENTIAL
    F = prec + GUARD_BITS + max(p.piece_count, kmax + 1).bit_length()
    ks = range(kmax + 1)
    # breakpoints and the gamma_j of flat pieces (1 for a potential) as exact
    # dyadics: floats and mpfs as they are, other numbers at F >= 53 bits
    with mp.workprec(F):
        dy = [finite_dyadic(x, "breakpoint") for x in p.breakpoints]
        flat = [finite_dyadic(1 if potential else v, "value") for v in p.values]
    # lambda is homogeneous of degree one in gamma: solve for gamma / 2^se, whose
    # outermost value lies in [1, 2), so that V keeps its F bits at the boundary
    gm, ge = flat[-1]
    se = ge + gm.bit_length() - 1
    with mp.workprec(prec + GUARD_BITS):
        for j, value in enumerate(p.values):
            if potential and value != 0:
                a, b, c = mpf(p.breakpoints[j]), mpf(p.breakpoints[j + 1]), mpf(value)
                reg, sing, sgn = ((mod_sph_i_ladder, mod_sph_k_ladder, 1) if c > 0
                                  else (sph_j_ladder, sph_y_ladder, -1))
                s = mpmath.sqrt(abs(c))
                xa, xb = s * a, s * b
                reg_b = _bessel_columns(reg, xb, sgn, kmax)
                if j == 0:
                    # innermost piece: the regular solution
                    state = [_to_bits(f, v, F) for f, v, _ in reg_b]
                    continue
                cols = zip(_bessel_columns(reg, xa, sgn, kmax), _bessel_columns(sing, xa, -1, kmax),
                           reg_b, _bessel_columns(sing, xb, -1, kmax))
                for k, ends in enumerate(cols):
                    (f1a, v1a, e1a), (f2a, v2a, e2a), (f1b, v1b, e1b), (f2b, v2b, e2b) = ends
                    # adj(Phi_a) v_a: A carries 2^e2a and B 2^e1a, so one left
                    # shift puts f1b A and f2b B on one exponent
                    U, V = state[k]
                    A, B = v2a * U - f2a * V, f1a * V - v1a * U
                    d = e1b + e2a - e2b - e1a
                    # (U, V) = A 2^d (f1b, v1b) + B (f2b, v2b), up to the scale
                    # _to_bits removes.  ha, hb bound the bit lengths of the two
                    # terms, and the larger one alone has max(|U|, |V|) >= 2^(h - 2),
                    # so a term below 2^(h - 2F - 8) moves (U, V) by less than
                    # 2^-(2F + 6) max(|U|, |V|).  That is below the 2^-F |U| which
                    # _to_bits cuts, unless |U| < 2^-F |V|; there the columns,
                    # exact to prec + GUARD_BITS bits only, leave U wrong by more.
                    # Dropping it skips a shift by |d|: 1.4e8 bits for c = 1e16
                    # on (0.5, 1], where i_k and kk_k grow apart by e^(2 s (b - a)).
                    ha = A.bit_length() + max(f1b.bit_length(), v1b.bit_length()) + d
                    hb = B.bit_length() + max(f2b.bit_length(), v2b.bit_length())
                    if hb < ha - 2 * F - 8:
                        B = d = 0
                    elif ha < hb - 2 * F - 8:
                        A = d = 0
                    if d > 0:
                        A <<= d
                    else:
                        B <<= -d
                    state[k] = _to_bits(f1b * A + f2b * B, v1b * A + v2b * B, F)
                continue
            # flat piece: gamma_j / 2^se = G / 2^gn, and 1 for a potential
            gm, ge = flat[j]
            ge -= se
            G, gn = gm << max(ge, 0), max(-ge, 0)
            if j == 0:
                # innermost piece: u = r^k
                state = [(1 << gn, k * G) for k in ks]
                continue
            t = _fixed_ratio(dy[j], dy[j + 1], F)
            t2 = t * t >> F
            tk = t  # (a/b)^{2k+1}
            for k in ks:
                U, V = state[k]
                u, v = U * G, V << gn  # B and A below carry 2^gn
                ku = k * u
                B = ku - v
                if B:
                    A = ku + u + v
                    x = tk * B
                    U, V = (A << F) + x << gn, ((k * A << F) - (k + 1) * x) * G
                    # _to_bits inlined: a call costs about 3 % of this loop
                    s = (U or V).bit_length() - F
                    state[k] = (U >> s, V >> s) if s >= 0 else (U << -s, V << -s)
                else:
                    # the pure r^k solution crosses unchanged
                    state[k] = (1 << gn, k * G)
                tk = tk * t2 >> F

    # (U, V) is proportional to (u, R gamma u'), R = rm 2^re
    rm, re = dy[-1]
    if potential:
        # a collision is |R u| < 2^(-prec//2) |u + R u'|, that is |U| rm 2^z < |U + V|
        z = re - (-prec // 2)
        for k, (U, V) in enumerate(state):
            if abs(U) * rm << max(z, 0) < abs(U + V) << max(-z, 0):
                raise DirichletCollisionError(k)
    lambdas = [mp.make_mpf(mpf_div(from_man_exp(V, se - re), from_int(U * rm), prec, round_nearest))
               for U, V in state]
    return DtnSpectrum(p.kind, p.radius, lambdas, prec)


def potential_spectrum(q, kmax, prec):
    """DtN eigenvalues of -Delta + q on the ball of radius q.radius, k = 0..kmax."""
    if q.kind is not ProfileKind.POTENTIAL:
        raise ValueError("potential_spectrum requires a potential profile")
    return _spectrum(q, kmax, prec)


def conductivity_spectrum(g, kmax, prec):
    """DtN eigenvalues of div(gamma grad .) on the ball, k = 0..kmax."""
    if g.kind is not ProfileKind.CONDUCTIVITY:
        raise ValueError("conductivity_spectrum requires a conductivity profile")
    return _spectrum(g, kmax, prec)


def spectrum_of(profile, kmax, prec):
    if profile.kind is ProfileKind.POTENTIAL:
        return potential_spectrum(profile, kmax, prec)
    return conductivity_spectrum(profile, kmax, prec)


def raw_scaled_shifts(spec, R, prec):
    """mu_k(R) = R^{2k+2} (lambda_k^R - k/R) of the spectrum moved to radius R, k = 0..K,
    as raw mpf tuples.

    Outside the support the solution is A r^k + B r^{-(k+1)} for both kinds,
    so with a = spec.radius, m = 2k + 1 and s_k = lambda_k - k/a,

        mu_k(R) = a^{m+1} s_k m / (a lambda_k + k + 1 - (a/R)^m a s_k).

    R = a gives a^{m+1} s_k exactly and R = inf the scattering limit.  Valid
    when the coefficient is background outside the ball of radius min(a, R).
    Each operation is the libmp one that mpf arithmetic at prec + GUARD_BITS
    bits would make, rounded to nearest, in the same order; a lambda that is
    not an mpf is read as one at that precision.  A zero denominator raises
    TransferDenominatorError.
    """
    work, rnd = prec + GUARD_BITS, round_nearest
    with mp.workprec(work):
        a, R = mpf(spec.radius)._mpf_, mpf(R)._mpf_
        lambdas = [lam._mpf_ if isinstance(lam, mpf) else mpf(lam)._mpf_ for lam in spec.lambdas]
    unit, far = a == fone, R in (finf, fninf)  # skip the powers of a and of R
    out = []
    for k, lam in enumerate(lambdas):
        m, kk = 2 * k + 1, from_int(k)
        s = mpf_sub(lam, kk if unit else mpf_div(kk, a, work, rnd), work, rnd)
        if mpf_eq(R, a):
            out.append(s if unit else mpf_mul(mpf_pow_int(a, m + 1, work, rnd), s, work, rnd))
            continue
        den = mpf_add(lam if unit else mpf_mul(a, lam, work, rnd), kk, work, rnd)
        den = mpf_add(den, fone, work, rnd)
        if not far:
            w = (mpf_pow_int(R, -m, work, rnd) if unit else
                 mpf_mul(mpf_pow_int(mpf_div(a, R, work, rnd), m, work, rnd), a, work, rnd))
            den = mpf_sub(den, mpf_mul(w, s, work, rnd), work, rnd)
        if mpf_eq(den, fzero):
            raise TransferDenominatorError(k)
        if not unit:
            s = mpf_mul(mpf_pow_int(a, m + 1, work, rnd), s, work, rnd)
        out.append(mpf_div(mpf_mul_int(s, m, work, rnd), den, work, rnd))
    return out


def transfer_radius(spec, R):
    """Move a spectrum to the ball of radius R: lambda_k^R = k/R + R^{-(2k+2)} mu_k(R).

    Valid when the coefficient is background outside the ball of radius
    min(spec.radius, R); see :func:`raw_scaled_shifts`.  The result's radius
    is R as the mpf at prec + GUARD_BITS bits that the lambdas were formed at.
    """
    if not 0 < R < mpmath.inf:
        raise ValueError("target radius must be positive and finite")
    prec = spec.prec
    mu = raw_scaled_shifts(spec, R, prec)
    with mp.workprec(prec + GUARD_BITS):
        R = mpf(R)
        out = [to_prec(mpf(k) / R + R ** -(2 * k + 2) * mp.make_mpf(v), prec)
               for k, v in enumerate(mu)]
    return DtnSpectrum(spec.kind, R, out, prec)


def untransfer_radius(spec):
    """Invert :func:`transfer_radius`: recover the unit-ball spectrum from radius R."""
    return transfer_radius(spec, 1.0)


def ode_log_derivative_oracle(q, k):
    """Second-opinion value of lambda_k[q] by direct ODE integration.

    Integrates w'' = (q0(r) + k(k+1)/r^2) w outward from a truncated
    Frobenius start at r0 = 1e-3 with a fixed-step 4th-order Taylor method
    (steps of at most ``ODE_STEP``), renormalizing each step, and returns
    w'(R)/w(R) - 1/R at R = q.radius as a float.
    Independent of the Bessel transfer path; accuracy ~1e-8, double
    precision on purpose.
    """
    if not isinstance(q, PiecewiseProfile):
        raise TypeError("the ODE oracle needs a PiecewiseProfile; use project_midpoint")
    if q.kind is not ProfileKind.POTENTIAL:
        raise ValueError("the ODE oracle integrates the potential equation")
    R = float(q.radius)
    bp = [float(x) for x in q.breakpoints]
    vals = [float(v) for v in q.values]
    kk1 = k * (k + 1.0)

    # Frobenius start: w = sum a_m r^{k+1+2m}, a_m = c a_{m-1} / (2m (2k+2m+1))
    r0 = 1e-3
    c = vals[0]
    a_m, w, wp = 1.0, 1.0, (k + 1.0)
    rpow = 1.0  # r0^{2m}
    for m_idx in range(1, 60):
        a_m *= c / (2.0 * m_idx * (2.0 * k + 2.0 * m_idx + 1.0))
        rpow *= r0 * r0
        term = a_m * rpow
        w += term
        wp += term * (k + 1.0 + 2.0 * m_idx)
        if abs(term) < 1e-20 * abs(w):
            break
    # overall r0^{k+1} factor dropped: log-derivative is scale invariant
    wp *= 1.0 / r0  # d/dr of r^{k+1+2m} contributes (k+1+2m)/r0 relative to w

    r = r0
    for j, c in enumerate(vals):
        b = bp[j + 1]
        if b <= r:
            continue
        n = max(1, int(-(-(b - r) // ODE_STEP)))  # ceil
        h = (b - r) / n
        for _ in range(n):
            p = c + kk1 / (r * r)
            dp = -2.0 * kk1 / (r * r * r)
            ddp = 6.0 * kk1 / (r * r * r * r)
            w2 = p * w
            w3 = dp * w + p * wp
            w4 = ddp * w + 2.0 * dp * wp + p * w2
            w_new = w + h * (wp + h / 2.0 * (w2 + h / 3.0 * (w3 + h / 4.0 * w4)))
            wp_new = wp + h * (w2 + h / 2.0 * (w3 + h / 3.0 * w4))
            w, wp = w_new, wp_new
            norm = max(abs(w), abs(wp))
            w /= norm
            wp /= norm
            r += h
        r = b
    if w == 0.0:
        raise DirichletCollisionError(k)
    return wp / w - 1.0 / R
