"""Born-approximation Fourier series and moment sequences.

The central object is the series operator

    L_d(mu; xi) = 2 pi^{d/2} sum_k (-1)^k / (k! Gamma(k+d/2)) (xi/2)^{2k} mu_k

which maps a coefficient sequence to a radial function of the frequency.
Moments sigma_k[f] reproduce the Fourier transform of f itself.  The Born
weights are the scaled shifts mu_k = R^{2k+d-1} (lambda_k^R - k/R) of the one
radius map ``forward.scaled_shifts``, each mode a target radius R: the
spectrum's own (unit, moment_form), the given R (finiteR) or infinity
(scattering); a zero denominator raises ``TransferDenominatorError``.  Fed
these, L_d gives the potential Born approximation, and the conductivity
variants divide by |xi|^2 via an index shift.  The products a_k = c_k mu_k are formed in big floats at
prec + GUARD_BITS bits.  One kernel, ``_series_sum``, then sums the
alternating terms a_k (xi/2)^{2k} at each node by a truncated Horner pass in
Python integers: it starts at the highest term that can still reach the last
kept bit and rounds each value to prec once.  Non-finite entries or
frequencies raise ``ValueError``.
"""

import math
import warnings
from dataclasses import dataclass

import mpmath
import numpy as np
from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, round_nearest

from .forward import scaled_shifts
from .highprec import GUARD_BITS, check_precision, to_prec
from .profiles import PiecewiseProfile, ProfileKind

@dataclass(frozen=True)
class FourierSamples:
    """Values of a radial Fourier transform on a uniform xi-grid from 0."""

    xi_grid: tuple
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "xi_grid", tuple(self.xi_grid))
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.xi_grid) != len(self.values):
            raise ValueError("grid/value length mismatch")


def series_coefficients(kmax, d, prec):
    """c_k = 2 pi^{d/2} (-1)^k / (k! Gamma(k + d/2)), k = 0..kmax."""
    with mp.workprec(check_precision(prec) + GUARD_BITS):
        c = 2 * mpmath.pi ** (mpf(d) / 2) / mpmath.gamma(mpf(d) / 2)
        out = [c]
        for k in range(kmax):
            c = -c / ((k + 1) * (k + mpf(d) / 2))
            out.append(c)
        return out


def _series_terms(mu, d, prec):
    # a_k = c_k mu_k, each rounded to prec + GUARD_BITS bits
    work = prec + GUARD_BITS
    with mp.workprec(work):
        return [c * mpf(m) for c, m in zip(series_coefficients(len(mu) - 1, d, work), mu)]


def _finite_dyadic(x, what):
    # exact (man, exp) of a float or mpf, man signed; other types are read at
    # the current working precision
    sign, man, exp, _ = x._mpf_ if isinstance(x, mpf) else mpf(x)._mpf_
    if not man and exp:
        raise ValueError(f"non-finite {what}: {x!r}")
    return (-man if sign else man), exp


def _series_sum(a, xi_grid, prec):
    """sum_k a_k y^k with y = (xi/2)^2 at every node, each rounded to prec once.

    A truncated Horner pass in Python integers.  y = ym 2^ye is read exactly
    (ym is cut to F bits only if longer), F = prec + GUARD_BITS + 8 +
    bit_length(K).  With c = ceil(log2 y) and L = floor(log2 max_k |t_k|) - F - 1,
    t_k = a_k y^k, the partial sum sum_{j>=k} a_j y^(j-k) is an integer S with
    LSB 2^(L - kc), and one step is S <- (S ym >> (c - ye)) + (a_k aligned by
    one shift).  Each shift truncates by less than 2^(L - kc), which y^k <= 2^(kc)
    carries into the sum as less than 2^L.  The pass starts at the highest k
    whose bound 2^top_k y^k (|a_k| < 2^top_k) reaches 2^L, so every dropped term
    is below 2^L as well.  The error before rounding is < 3 (K + 1) 2^L <
    2^-(prec + GUARD_BITS + 5) sum|t_k|.  log2 y, the largest term, the cut-off
    and the alignment shifts are estimated for all nodes at once in numpy.
    """
    bits = prec + GUARD_BITS + 8 + (len(a) - 1).bit_length()
    with mp.workprec(prec + GUARD_BITS):
        A = [_finite_dyadic(t, "series term") for t in a]
        X = [_finite_dyadic(xi, "frequency") for xi in xi_grid]
    # xi = 0 (and an all-zero or empty series) leaves a_0 alone
    out = [mp.make_mpf(from_man_exp(*(A[0] if A else (0, 0)), prec, round_nearest))] * len(X)
    nodes = [n for n, (xm, _) in enumerate(X) if xm]
    if not (nodes and any(am for am, _ in A)):
        return out
    Y = []
    for n in nodes:
        xm, xe = X[n]
        ym = xm * xm
        s = max(ym.bit_length() - bits, 0)
        Y.append((ym >> s, 2 * xe - 2 + s))  # (xi/2)^2, exact unless over F bits
    k = np.arange(len(A))
    nz = np.array([am != 0 for am, _ in A])
    ae = np.array([e for _, e in A], dtype=np.int64)
    top = np.where(nz, [am.bit_length() for am, _ in A] + ae, -np.inf)  # |a_k| < 2^top_k
    sh = np.array([(ym - 1).bit_length() for ym, _ in Y], dtype=np.int64)
    c = sh + [ye for _, ye in Y]  # ceil(log2 y)
    ly = np.array([math.log2(ym) + ye for ym, ye in Y])
    # keeps the float64 estimates within a bit and the int64 shifts from wrapping
    if max(np.abs(top[nz]).max(), np.abs(ly).max() * len(A)) >= 2.0 ** 50:
        raise ValueError("series term or frequency out of range: |log2| >= 2^50")
    est = np.outer(ly, k)
    est += top  # log2 of the bound 2^top_k y^k
    L = np.floor(est.max(axis=1)).astype(np.int64) - bits - 1
    # highest k whose bound reaches 2^L
    kt = len(A) - 1 - np.argmax((est >= L[:, None])[:, ::-1], axis=1)
    del est  # one nodes x terms table at a time
    # right shift that puts a_k on the LSB 2^(L - kc); a common left shift G
    # of every a_k, once per call, keeps the used ones non-negative
    d = np.outer(-c, k)
    d += L[:, None]
    d -= ae
    G = -int(d.min(where=nz & (k <= kt[:, None]), initial=0))
    d += G
    np.maximum(d, 0, out=d)  # zero terms: any shift will do
    Arev = [am << G for am, _ in reversed(A)]
    first = (len(A) - 1 - kt).tolist()
    for n, (ym, _), s, T, j, D in zip(nodes, Y, sh.tolist(), L.tolist(), first, d[:, ::-1]):
        S = 0
        for am, dk in zip(Arev[j:], D[j:].tolist()):
            S = (S * ym >> s) + (am >> dk)
        out[n] = mp.make_mpf(from_man_exp(S, T, prec, round_nearest))
    return out


def eval_series_L(mu, xi, d=3, prec=1024):
    """Evaluate L_d(mu; xi); truncation is the sequence length."""
    return eval_series_L_grid(mu, [xi], d, prec).values[0]


def eval_series_L_grid(mu, xi_grid, d=3, prec=1024):
    """L_d(mu; .) on a grid; one coefficient precomputation for all nodes."""
    prec = check_precision(prec)
    vals = _series_sum(_series_terms(mu, d, prec), xi_grid, prec)
    return FourierSamples(tuple(xi_grid), tuple(vals))


def _eigenvalue_entries(spec, mode, R, d, prec):
    # mu_k of the L_d series: each mode is a target radius of the one radius map
    targets = {"unit": spec.radius, "finiteR": R, "scattering": mpmath.inf}
    if spec.kind is ProfileKind.CONDUCTIVITY:
        targets["moment_form"] = spec.radius
    if mode not in targets:
        raise ValueError(f"unknown mode {mode!r}")
    if targets[mode] is None:
        raise ValueError("finiteR mode needs a target radius R")
    return scaled_shifts(spec, targets[mode], d, prec)


def born_potential_fourier(spec, xi_grid, mode="unit", R=None, d=3, prec=1024):
    """Fourier transform of the potential Born approximation on a xi-grid.

    Each mode is a target radius of ``forward.scaled_shifts``: "unit" the
    spectrum's own ball, "finiteR" the radius R, "scattering" R -> infinity.
    """
    if spec.kind is not ProfileKind.POTENTIAL:
        raise ValueError("born_potential_fourier requires a potential spectrum")
    prec = check_precision(prec)
    mu = _eigenvalue_entries(spec, mode, R, d, prec)
    return eval_series_L_grid(mu, xi_grid, d, prec)


def born_conductivity_fourier(spec, xi_grid, mode="unit", R=None, d=3, prec=1024):
    """Fourier transform of gamma_exp - 1 on a xi-grid.

    Modes "unit"/"finiteR"/"scattering" evaluate the k >= 1 series with the
    weights of ``forward.scaled_shifts`` at their target radius, as for
    potentials; "moment_form" evaluates the equivalent index-shifted L_d sum
    with entries mu_{k+1} / (2 (k+1) (k + d/2)) of the unit-mode weights.  The
    xi = 0 node is the analytic k = 1 limit, never a division by xi^2.
    """
    if spec.kind is not ProfileKind.CONDUCTIVITY:
        raise ValueError("born_conductivity_fourier requires a conductivity spectrum")
    prec = check_precision(prec)
    mu = _eigenvalue_entries(spec, mode, R, d, prec)
    with mp.workprec(prec + GUARD_BITS):
        lam0 = mpf(spec.lambdas[0])
        if abs(lam0) > mpmath.ldexp(mpf(1), -prec // 2):
            warnings.warn("conductivity spectrum has lambda_0 != 0", stacklevel=2)
    if spec.kmax < 1:
        raise ValueError("need at least lambda_1")
    if mode == "moment_form":
        with mp.workprec(prec + GUARD_BITS):
            nu = [mu[k + 1] / (2 * (k + 1) * (k + mpf(d) / 2)) for k in range(spec.kmax)]
        return eval_series_L_grid(nu, xi_grid, d, prec)
    # -pi^{d/2} sum_{k>=1} (-1)^k/(k! Gamma(k+d/2)) (xi/2)^{2k-2} nu_k
    # = sum_{k>=1} (-c_k nu_k / 2) (xi/2)^{2(k-1)}
    terms = _series_terms(mu, d, prec)
    with mp.workprec(prec + GUARD_BITS):
        terms = [-t / 2 for t in terms[1:]]
    vals = _series_sum(terms, xi_grid, prec)
    return FourierSamples(tuple(xi_grid), tuple(vals))


def moment_sequence_exact(f, kmax, d=3, prec=256):
    """sigma_k of the profile's deviation from background, by exact integration.

    sigma_k = sum_j (v_j - bg) (r_j^{2k+d} - r_{j-1}^{2k+d}) / (2k+d), where
    bg is 1 for conductivities and 0 for potentials.
    """
    if not isinstance(f, PiecewiseProfile):
        raise TypeError("moment_sequence_exact needs a piecewise-constant profile")
    prec = check_precision(prec)
    bg = f.kind.background
    with mp.workprec(prec + GUARD_BITS):
        bp = [mpf(x) for x in f.breakpoints]
        dev = [mpf(v) - bg for v in f.values]
        out = []
        for k in range(kmax + 1):
            e = 2 * k + d
            s = mpf(0)
            for j, v in enumerate(dev):
                if v != 0:
                    s += v * (bp[j + 1] ** e - bp[j] ** e)
            out.append(to_prec(s / e, prec))
    return out


def moments_from_samples(s, kmax, d=3):
    """Trapezoidal moments of sampled radial data (double precision)."""
    r = np.asarray(s.r_grid, dtype=float)
    v = np.asarray(s.values, dtype=float)
    return [float(np.trapezoid(v * r ** (2 * k + d - 1), r)) for k in range(kmax + 1)]
