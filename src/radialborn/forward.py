"""Dirichlet-to-Neumann spectra of radial piecewise-constant coefficients.

The radial equation for spherical-harmonic degree k (d = 3) is solved exactly
piece by piece.  For a potential, the substitution w = r u turns

    -(r^2 u')' / r^2 + (q0 + k(k+1)/r^2) u = 0

into w'' = (q0 + k(k+1)/r^2) w, whose fundamental solutions on a piece with
constant value c are

    c > 0:  r i_k(s r),  r kk_k(s r)      with s = sqrt(c)
    c < 0:  r j_k(s r),  r y_k(s r)       with s = sqrt(-c)
    c = 0:  r^{k+1},     r^{-k}

The regular branch is selected on the innermost piece, (w, w') is matched
across interfaces, and the state is renormalized after every piece so the
propagation never overflows.  Finally lambda_k = w'(R)/w(R) - 1/R.  The
per-piece Bessel ladders are evaluated for all k at once (seeded at the top
order, recurred downward for the regular family; upward from closed forms for
the singular family), so a potential spectrum costs O(m K) big-float
operations plus O(m) direct Bessel evaluations.

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
from .profiles import PiecewiseProfile, ProfileKind


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


def _renormalize(w, wp):
    # scale max(|w|, |w'|) into [1, 2) by a power of two; exact operation
    m = max(abs(w), abs(wp))
    _, e = mpmath.frexp(m)
    scale = mpmath.ldexp(mpf(1), int(e) - 1)
    return w / scale, wp / scale


def _piece_bases(c, a, b, kmax):
    """Fundamental-solution values/derivatives of w on a piece (a, b].

    Returns (W1a, dW1a, W2a, dW2a, W1b, dW1b, W2b, dW2b) as k-indexed lists,
    or the string "powers" marker handled by the caller for c == 0.
    """
    if c > 0:
        s = mpmath.sqrt(c)
        fam = (mod_sph_i_ladder, mod_sph_k_ladder, 1, -1)
    else:
        s = mpmath.sqrt(-c)
        fam = (sph_j_ladder, sph_y_ladder, -1, -1)
    reg_ladder, sing_ladder, sgn1, sgn2 = fam
    out = []
    for r in (a, b):
        x = s * r
        f1 = reg_ladder(kmax, x)
        f2 = sing_ladder(kmax, x)
        W1 = [r * f1[k] for k in range(kmax + 1)]
        W2 = [r * f2[k] for k in range(kmax + 1)]
        dW1 = [f1[k] + s * r * (sgn1 * f1[k + 1] + k * f1[k] / x) for k in range(kmax + 1)]
        dW2 = [f2[k] + s * r * (sgn2 * f2[k + 1] + k * f2[k] / x) for k in range(kmax + 1)]
        out.extend([W1, dW1, W2, dW2])
    return out


def potential_spectrum(q, kmax, prec):
    """DtN eigenvalues of -Delta + q on the ball of radius q.radius, k = 0..kmax."""
    if q.kind is not ProfileKind.POTENTIAL:
        raise ValueError("potential_spectrum requires a potential profile")
    prec = check_precision(prec)
    with mp.workprec(prec + GUARD_BITS):
        bp = [mpf(x) for x in q.breakpoints]
        vals = [mpf(v) for v in q.values]
        R = bp[-1]
        nk = kmax + 1

        # innermost piece: regular branch only
        b = bp[1]
        c = vals[0]
        if c == 0:
            states = [(mpf(1), mpf(k + 1) / b) for k in range(nk)]
        else:
            if c > 0:
                s = mpmath.sqrt(c)
                lad = mod_sph_i_ladder(kmax, s * b)
                sgn = 1
            else:
                s = mpmath.sqrt(-c)
                lad = sph_j_ladder(kmax, s * b)
                sgn = -1
            x = s * b
            states = []
            for k in range(nk):
                w = b * lad[k]
                wp = lad[k] + s * b * (sgn * lad[k + 1] + k * lad[k] / x)
                states.append(_renormalize(w, wp))

        for j in range(1, len(vals)):
            a, b, c = bp[j], bp[j + 1], vals[j]
            if c == 0:
                t = a / b
                tk = mpf(1)  # t^k
                new_states = []
                for k in range(nk):
                    w1a = tk * t            # (a/b)^{k+1}
                    dw1a = (k + 1) * w1a / a
                    w2a = 1 / tk            # (a/b)^{-k}
                    dw2a = -k * w2a / a
                    w, wp = states[k]
                    det = w1a * dw2a - w2a * dw1a
                    A = (w * dw2a - wp * w2a) / det
                    B = (wp * w1a - w * dw1a) / det
                    # at r = b the scaled bases are 1 with slopes (k+1)/b, -k/b
                    wb = A + B
                    wpb = (A * (k + 1) - B * k) / b
                    new_states.append(_renormalize(wb, wpb))
                    tk *= t
                states = new_states
            else:
                W1a, dW1a, W2a, dW2a, W1b, dW1b, W2b, dW2b = _piece_bases(c, a, b, kmax)
                new_states = []
                for k in range(nk):
                    w, wp = states[k]
                    det = W1a[k] * dW2a[k] - W2a[k] * dW1a[k]
                    A = (w * dW2a[k] - wp * W2a[k]) / det
                    B = (wp * W1a[k] - w * dW1a[k]) / det
                    wb = A * W1b[k] + B * W2b[k]
                    wpb = A * dW1b[k] + B * dW2b[k]
                    new_states.append(_renormalize(wb, wpb))
                states = new_states

        lambdas = []
        collision_floor = mpmath.ldexp(mpf(1), -prec // 2)
        for k, (w, wp) in enumerate(states):
            if abs(w) < collision_floor * abs(wp):
                raise DirichletCollisionError(k)
            lambdas.append(to_prec(wp / w - 1 / R, prec))
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
