"""Dirichlet-to-Neumann spectra of radial piecewise-constant coefficients.

The radial equation for spherical-harmonic degree k (d = 3) is solved exactly
piece by piece.  For a potential, the substitution w = r u turns

    -(r^2 u')' / r^2 + (q0 + k(k+1)/r^2) u = 0

into w'' = (q0 + k(k+1)/r^2) w, whose fundamental solutions on a piece with
constant value c are

    c > 0:  r i_k(s r),  r kk_k(s r)      with s = sqrt(c)
    c < 0:  r j_k(s r),  r y_k(s r)       with s = sqrt(-c)
    c = 0:  r^{k+1},     r^{-k}

The regular branch is selected on the innermost piece.  For each degree k
the state is a projective pair of Python ints (P, Q) proportional to
(w, r w'), which is continuous across interfaces.  On a Bessel piece, with
f the regular or singular spherical function at x = s r, a column of the
fundamental matrix is r (f_k, g_k), g_k = (1+k) f_k +- x f_{k+1} = f_k + x f_k'.
Every ladder value is read once as an exact mantissa and exponent, so f_k
and g_k are exact ints sharing one exponent per column; the common factor r
and the column exponents drop out of v_b = Phi_b adj(Phi_a) v_a up to one
left shift that aligns the two columns, which leaves eight exact integer
products per degree.  A flat piece (c = 0) uses Phi_a = [[1, 1], [k+1, -k]]
and Phi_b = [[1, t], [k+1, -k t]] with t = (a/b)^{2k+1} in F-bit fixed
point, F = prec + GUARD_BITS + bit_length(max(m, K+1)).  After each piece
one shift brings max(|P|, |Q|) back to F bits, the only rounding inside the
loop, and lambda_k = w'(R)/w(R) - 1/R = (Q - P)/(P R) is rounded to prec
once.  The per-piece Bessel ladders are evaluated for all k at once (seeded
at the top order, recurred downward for the regular family; upward from
closed forms for the singular family), so a potential spectrum costs
O(m K) big-float operations in the ladders plus O(m K) integer products.

Conductivities carry, for each degree k, only the log derivative
eta_k(r) = r gamma u'/u, which is continuous across interfaces because u and
gamma u' are (the Riccati form of layer stripping).  On a piece (a, b] with
value gamma_j the solutions are u = A r^k + B r^{-(k+1)}; with
rho = (B/A) r^{-(2k+1)} and e = eta/gamma_j,

    rho = (k - e) / (e + k + 1),      e = (k - (k+1) rho) / (1 + rho),

and crossing the piece multiplies rho by (a/b)^{2k+1}.  Writing
sigma = 1 - (a/b)^{2k+1} and e = c/w, the step is the Moebius map

    eta(b) = gamma_j ((2k+1) c + (k+1) p sigma) / ((2k+1) w - p sigma),
    p = k w - c,

whose two terms never cancel.  eta_k is held as a projective pair (N, D) of
Python ints: gamma_j enters as its exact mantissa and exponent,
(a/b)^{2k+1} as an F-bit fixed-point number with
F = prec + GUARD_BITS + bit_length(max(m, K+1)), and after each step one
right shift brings D back to F bits, the only rounding inside the loop.
lambda_k = eta_k(R)/R is rounded to prec once, at the end.  Two cases stay
exact: eta_0 = 0 (so lambda_0 = 0), and a piece with e = k (p = 0, flat
gamma) resets the pair to gamma_j k without rounding, so a flat gamma gives
lambda_k = gamma k/R correctly rounded.  A spectrum costs O(m K) integer
multiplications and no big-float operation inside the loop.
"""

from dataclasses import dataclass

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import from_int, from_man_exp, mpf_div, round_nearest

from .highprec import (
    GUARD_BITS,
    check_precision,
    mod_sph_i_ladder,
    mod_sph_k_ladder,
    sph_j_ladder,
    sph_y_ladder,
    to_prec,
)
from .profiles import ProfileKind


class DirichletCollisionError(ArithmeticError):
    """w(R) underflowed relative to w'(R): 0 is a Dirichlet eigenvalue of -Delta + q."""

    def __init__(self, k):
        self.k = k
        super().__init__(f"Dirichlet-eigenvalue collision at degree k = {k}")


class TransferDenominatorError(ArithmeticError):
    """The radius-transfer denominator vanished at some degree."""

    def __init__(self, k):
        self.k = k
        super().__init__(f"radius-transfer denominator vanished at degree k = {k}")


@dataclass(frozen=True)
class DtnSpectrum:
    """DtN eigenvalues lambda_0..lambda_K with kind, radius and precision."""

    kind: ProfileKind
    radius: float
    lambdas: tuple
    prec: int

    def __post_init__(self):
        object.__setattr__(self, "lambdas", tuple(self.lambdas))

    @property
    def kmax(self):
        return len(self.lambdas) - 1

    def shifts(self):
        """lambda_k - k/R as a list (the Born series data)."""
        R = mpf(self.radius)
        with mp.workprec(self.prec):
            return [lam - mpf(k) / R for k, lam in enumerate(self.lambdas)]


def _bessel_columns(ladder, x, sgn, kmax):
    """Exact ints (f, g, e) with (f_k(x), g_k(x)) = (f, g) 2^e, k = 0..kmax.

    g_k = (1+k) f_k + sgn x f_{k+1} = f_k + x f_k'(x), so r (f_k, g_k) at
    x = s r is (w, r w') for w = r f_k(s r).
    """
    _, xm, xe, _ = x._mpf_
    vals = [(-m if sign else m, e) for sign, m, e, _ in (v._mpf_ for v in ladder(kmax, x))]
    cols = []
    for k in range(kmax + 1):
        fm, fe = vals[k]
        hm, he = vals[k + 1]
        he += xe
        e = min(fe, he)
        f = fm << fe - e
        cols.append((f, (k + 1) * f + (sgn * xm * hm << he - e), e))
    return cols


def _to_bits(P, Q, bits):
    # one shift brings max(|P|, |Q|) to `bits` bits
    s = max(P.bit_length(), Q.bit_length()) - bits
    return (P >> s, Q >> s) if s >= 0 else (P << -s, Q << -s)


def potential_spectrum(q, kmax, prec):
    """DtN eigenvalues of -Delta + q on the ball of radius q.radius, k = 0..kmax."""
    if q.kind is not ProfileKind.POTENTIAL:
        raise ValueError("potential_spectrum requires a potential profile")
    prec = check_precision(prec)
    F = prec + GUARD_BITS + max(q.piece_count, kmax + 1).bit_length()
    ks = range(kmax + 1)
    dy = [_dyadic(x, F) for x in q.breakpoints]
    with mp.workprec(prec + GUARD_BITS):
        bp = [mpf(x) for x in q.breakpoints]
        for j, value in enumerate(q.values):
            a, b, c = bp[j], bp[j + 1], mpf(value)
            if c == 0 and j == 0:
                # innermost piece: w = r^{k+1}
                state = [_to_bits(1, k + 1, F) for k in ks]
            elif c == 0:
                # columns r^{k+1}, r^{-k}, scaled to [[1, 1], [k+1, -k]] at a
                t = _fixed_ratio(dy[j], dy[j + 1], F)
                t2 = t * t >> F
                tk = t  # (a/b)^{2k+1}
                for k in ks:
                    P, Q = state[k]
                    A, B = k * P + Q, (k + 1) * P - Q
                    x = tk * B
                    state[k] = _to_bits((A << F) + x, ((k + 1) * A << F) - k * x, F)
                    tk = tk * t2 >> F
            else:
                reg, sing, sgn = ((mod_sph_i_ladder, mod_sph_k_ladder, 1) if c > 0
                                  else (sph_j_ladder, sph_y_ladder, -1))
                s = mpmath.sqrt(abs(c))
                xa, xb = s * a, s * b
                reg_b = _bessel_columns(reg, xb, sgn, kmax)
                if j == 0:
                    # innermost piece: regular branch only
                    state = [_to_bits(f, g, F) for f, g, _ in reg_b]
                    continue
                cols = zip(_bessel_columns(reg, xa, sgn, kmax), _bessel_columns(sing, xa, -1, kmax),
                           reg_b, _bessel_columns(sing, xb, -1, kmax))
                for k, ends in enumerate(cols):
                    (f1a, g1a, e1a), (f2a, g2a, e2a), (f1b, g1b, e1b), (f2b, g2b, e2b) = ends
                    # v_b = Phi_b adj(Phi_a) v_a: A carries 2^e2a and B 2^e1a, so
                    # one left shift puts f1b A and f2b B on one exponent
                    P, Q = state[k]
                    A, B = g2a * P - f2a * Q, f1a * Q - g1a * P
                    d = e1b + e2a - e2b - e1a
                    if d > 0:
                        A <<= d
                    else:
                        B <<= -d
                    state[k] = _to_bits(f1b * A + f2b * B, g1b * A + g2b * B, F)

    # (P, Q) is proportional to (w, R w'), R = rm 2^re; a collision is
    # |w| < 2^(-prec//2) |w'|, that is |P| rm 2^z < |Q|
    rm, re = dy[-1]
    z = re - (-prec // 2)
    lambdas = []
    for k, (P, Q) in enumerate(state):
        if abs(P) * rm << max(z, 0) < abs(Q) << max(-z, 0):
            raise DirichletCollisionError(k)
        lambdas.append(mp.make_mpf(mpf_div(from_man_exp(Q - P, -re), from_int(P * rm),
                                           prec, round_nearest)))
    return DtnSpectrum(ProfileKind.POTENTIAL, q.radius, lambdas, prec)


def _dyadic(x, bits):
    # x = man * 2**exp, rounded to `bits` bits (exact for floats and for mpf of <= bits)
    with mp.workprec(bits):
        sign, man, exp, _ = mpf(x)._mpf_
    return (-man if sign else man), exp


def _fixed_ratio(a, b, bits):
    # floor(a / b * 2**bits) for dyadics a = (man, exp), b = (man, exp)
    (am, ae), (bm, be) = a, b
    s = ae - be + bits
    return (am << s) // bm if s >= 0 else am // (bm << -s)


def conductivity_spectrum(g, kmax, prec):
    """DtN eigenvalues of div(gamma grad .) on the ball, k = 0..kmax."""
    if g.kind is not ProfileKind.CONDUCTIVITY:
        raise ValueError("conductivity_spectrum requires a conductivity profile")
    prec = check_precision(prec)
    F = prec + GUARD_BITS + max(g.piece_count, kmax + 1).bit_length()
    bp = [_dyadic(x, F) for x in g.breakpoints]
    one = 1 << F
    for j, value in enumerate(g.values):
        gm, ge = _dyadic(value, F)
        G, gn = gm << max(ge, 0), max(-ge, 0)  # gamma_j = G / 2^gn
        if j == 0:
            # innermost piece: u = r^k, eta = gamma_0 k
            N = [k * G for k in range(kmax + 1)]
            D = [1 << gn] * (kmax + 1)
            continue
        t = _fixed_ratio(bp[j], bp[j + 1], F)
        t2 = t * t >> F
        tk = t  # (a/b)^{2k+1}
        for k in range(kmax + 1):
            w = D[k] * G
            c = N[k] << gn  # e = eta / gamma_j = c / w
            p = k * w - c  # rho = p / ((k+1) w + c)
            if p:
                x = p * (one - tk)
                N[k] = (((2 * k + 1) * c << F) + (k + 1) * x) * G
                d = ((2 * k + 1) * w << F) - x << gn
                s = d.bit_length() - F  # >= 1: d > 2^F
                N[k] >>= s
                D[k] = d >> s
            else:
                # e = k: the pure r^k solution crosses unchanged
                N[k], D[k] = k * G, 1 << gn
            tk = tk * t2 >> F

    rm, re = bp[-1]
    lambdas = [mp.make_mpf(mpf_div(from_man_exp(n, -re), from_int(d * rm), prec, round_nearest))
               for n, d in zip(N, D)]
    return DtnSpectrum(ProfileKind.CONDUCTIVITY, g.radius, lambdas, prec)


def spectrum_of(profile, kmax, prec):
    if profile.kind is ProfileKind.POTENTIAL:
        return potential_spectrum(profile, kmax, prec)
    return conductivity_spectrum(profile, kmax, prec)


def transfer_radius(spec, R, d=3):
    """Map a unit-ball potential spectrum to the ball of radius R >= 1.

    Valid when the underlying potential is supported in the unit ball:

        lambda_k^R - k/R =
            R^{-(2k+d-1)} (lambda_k - k) (2k+d-2)
            / (lambda_k + k + d - 2 - R^{-(2k+d-2)} (lambda_k - k))
    """
    if spec.kind is not ProfileKind.POTENTIAL:
        raise ValueError("radius transfer is defined for potential spectra")
    if float(spec.radius) != 1.0:
        raise ValueError("transfer_radius expects the unit-ball spectrum")
    if R < 1:
        raise ValueError("target radius must be >= 1")
    prec = spec.prec
    with mp.workprec(prec + GUARD_BITS):
        R = mpf(R)
        out = []
        for k, lam in enumerate(spec.lambdas):
            m = 2 * k + d - 2
            den = lam + k + d - 2 - R**(-m) * (lam - k)
            if den == 0:
                raise TransferDenominatorError(k)
            shift = R**(-(m + 1)) * (lam - k) * m / den
            out.append(to_prec(mpf(k) / R + shift, prec))
    return DtnSpectrum(ProfileKind.POTENTIAL, float(R), out, prec)


def untransfer_radius(spec, d=3):
    """Invert :func:`transfer_radius`: recover the unit-ball spectrum from radius R."""
    if spec.kind is not ProfileKind.POTENTIAL:
        raise ValueError("radius transfer is defined for potential spectra")
    prec = spec.prec
    with mp.workprec(prec + GUARD_BITS):
        R = mpf(spec.radius)
        out = []
        for k, lamR in enumerate(spec.lambdas):
            m = 2 * k + d - 2
            s = lamR - mpf(k) / R
            den = R**(-(m + 1)) * m - s * (1 - R**(-m))
            if den == 0:
                raise TransferDenominatorError(k)
            shift = s * m / den
            out.append(to_prec(k + shift, prec))
    return DtnSpectrum(ProfileKind.POTENTIAL, 1.0, out, prec)


def ode_log_derivative_oracle(q, k, R=None, step=1e-4):
    """Second-opinion value of lambda_k[q] by direct ODE integration.

    Integrates w'' = (q0(r) + k(k+1)/r^2) w outward from a truncated
    Frobenius start at r0 = 1e-3 with a fixed-step 4th-order Taylor method,
    renormalizing each step, and returns w'(R)/w(R) - 1/R as a float.
    Independent of the Bessel transfer path; accuracy ~1e-8, double
    precision on purpose.
    """
    if q.kind is not ProfileKind.POTENTIAL:
        raise ValueError("the ODE oracle integrates the potential equation")
    R = float(q.radius) if R is None else float(R)
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
        b = min(bp[j + 1], R)
        if b <= r:
            continue
        n = max(1, int(-(-(b - r) // step)))  # ceil
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
        if r >= R:
            break
    if w == 0.0:
        raise DirichletCollisionError(k)
    return wp / w - 1.0 / R
