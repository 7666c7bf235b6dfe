"""Born-approximation Fourier series and moment sequences.

The central object is the series operator

    L(mu; xi) = 4 pi sum_k (-1)^k xi^{2k} mu_k / (2k+1)!

For the moments sigma_k[f] = int r^{2k+2} f dr it is the Taylor series of the
3-D transform 4 pi int r^2 f(r) j_0(xi r) dr, j_0(z) = sin z / z.  The Born
weights are the scaled shifts mu_k = R^{2k+2} (lambda_k^R - k/R) of the one
radius map ``forward.scaled_shifts``, each mode a target radius R: the
spectrum's own (unit, moment_form), the given R (finiteR) or infinity
(scattering); a zero denominator raises ``TransferDenominatorError``.  Fed
these, L gives the potential Born approximation, and the conductivity
variants divide by |xi|^2 via an index shift.  The products a_k = c_k mu_k with
the coefficients c_k of (xi/2)^{2k} are formed in big floats at
prec + GUARD_BITS bits.  One kernel, ``_series_sum``, sums the terms
a_k (xi/2)^{2k} by a truncated Horner pass in Python integers, one
small-integer product per step, and rounds each value to prec once; the error
before that rounding is below 2^-(prec + GUARD_BITS + 5) sum_k |a_k| (xi/2)^{2k}.
Non-finite entries or frequencies raise ``ValueError``.
"""

import functools
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


@functools.lru_cache(maxsize=16)
def series_coefficients(kmax, prec):
    """c_k = 4 pi (-1)^k 4^k / (2k+1)!, k = 0..kmax, as a tuple; once per (kmax, prec).

    c_0 = 4 pi and c_{k+1} = -4 c_k / ((2k+2)(2k+3)), each rounded once.
    """
    with mp.workprec(check_precision(prec) + GUARD_BITS):
        c = 4 * mpmath.pi
        out = [c]
        for k in range(kmax):
            c = -4 * c / ((2 * k + 2) * (2 * k + 3))
            out.append(c)
        return tuple(out)


def _series_terms(mu, prec):
    # a_k = c_k mu_k, each rounded to prec + GUARD_BITS bits
    work = prec + GUARD_BITS
    with mp.workprec(work):
        return [c * mpf(m) for c, m in zip(series_coefficients(len(mu) - 1, work), mu)]


def _finite_dyadic(x, what):
    # exact (man, exp) of a float or mpf, man signed; other types are read at
    # the current working precision
    sign, man, exp, _ = x._mpf_ if isinstance(x, mpf) else mpf(x)._mpf_
    if not man and exp:
        raise ValueError(f"non-finite {what}: {x!r}")
    return (-man if sign else man), exp


def _one_exponent(xi_grid):
    """(e, [(m_n, z_n)]) with xi_n = m_n 2^(e + z_n) exactly and z_n >= 0.

    e is the least exponent of a nonzero node, so N_n = m_n 2^z_n are the nodes
    as integers on one exponent; forming them is left to the caller, since
    nodes far apart in scale make them long.  A zero node reads (0, 0).
    Non-finite nodes raise ``ValueError``.
    """
    X = [_finite_dyadic(x, "frequency") for x in xi_grid]
    e = min((xe for xm, xe in X if xm), default=0)
    return e, [(xm, xe - e if xm else 0) for xm, xe in X]


def _series_sum(a, xi_grid, prec):
    """sum_k a_k y^k with y = (xi/2)^2 at every node, each rounded to prec once.

    A truncated Horner pass in Python integers, F = prec + GUARD_BITS + 8 +
    bit_length(K).  The nonzero nodes are read as integers on one exponent,
    |xi_n| = N_n 2^e with N_n = m_n 2^z_n (``_one_exponent``), and with g the gcd
    of the mantissas m_n (gcd(N_n) for odd mantissas), y_n = J_n Y0 with
    J_n = (N_n / g)^2 and Y0 = g^2 2^(2e - 2).  J_n = Jm 2^js is exact (js = 0)
    while N_n / g has at most F/2 bits, so J_n = n^2 on ``default_xi_grid``;
    otherwise Jm is (m_n / g)^2 cut to F bits and js keeps 2 z_n plus the cut.
    Y0 is folded into the terms once per call, b_k = a_k Y0^k to within
    2^-(F + bit_length(K) + 2) relative, so each node sums t_k = b_k J_n^k.

    With s = ceil(log2 Jm), c = s + js and L the last kept bit, the partial sum
    sum_{j>=k} b_j J^(j-k) is an integer S with LSB 2^(L - kc), and one step is
    S <- (S Jm >> s) + b_k aligned: one small-integer product, one shift and one
    add.  Each step truncates twice by less than 2^(L - kc), which J^k <= 2^(kc)
    carries into the sum as less than 2^L.  Per node, L_n = floor(log2 max_k
    2^top_k J^k) - F - 1 (|b_k| < 2^top_k), and every term past the highest k
    whose bound reaches 2^(L_n) is dropped; both are estimated for all nodes at
    once in numpy.  The nodes that share (s, js) share one schedule: the least
    of their L_n, the highest of their start indices, and the b_k aligned once.
    The error before rounding is < 3 (K + 1) 2^(L_n) from the pass, plus the
    fold and the cut of J, < 2^-(prec + GUARD_BITS + 5) sum|t_k| in all.  The
    bits of a node's value below that bound may depend on the other nodes of
    the call, through g, e and its group's schedule, but never on their order.
    """
    K = len(a) - 1
    bits = prec + GUARD_BITS + 8 + K.bit_length()
    with mp.workprec(prec + GUARD_BITS):
        A = [_finite_dyadic(t, "series term") for t in a]
        e, X = _one_exponent(xi_grid)
    # xi = 0 (and an all-zero or empty series) leaves a_0 alone
    out = [mp.make_mpf(from_man_exp(*(A[0] if A else (0, 0)), prec, round_nearest))] * len(X)
    nodes = [n for n, (xm, _) in enumerate(X) if xm]
    if not (nodes and any(am for am, _ in A)):
        return out
    g = math.gcd(*(xm for xm, _ in X))
    # Y0^k = pm 2^(pe + k (2e - 2)) with pm cut to Q bits after each product
    P = bits + K.bit_length() + 4
    Q = P + K.bit_length() + 1
    B, pm, pe = [], 1, 0
    for k, (am, ae) in enumerate(A):
        if k:
            pm *= g * g
            cut = max(pm.bit_length() - Q, 0)
            pm, pe = pm >> cut, pe + cut
        b = am * pm
        cut = max(b.bit_length() - P, 0)
        B.append((b >> cut, ae + pe + k * (2 * e - 2) + cut))
    J = []
    for n in nodes:
        xm, z = X[n]
        q = abs(xm) // g
        if 2 * (q.bit_length() + z) <= bits:
            J.append(((q << z) ** 2, 0))
        else:
            q *= q
            cut = max(q.bit_length() - bits, 0)
            J.append((q >> cut, 2 * z + cut))
    ks = np.arange(len(B))
    nz = np.array([bm != 0 for bm, _ in B])
    top = np.where(nz, [float(abs(bm).bit_length() + be) for bm, be in B], -np.inf)
    lj = np.array([math.log2(jm) + js for jm, js in J])
    # keeps the float64 estimates within a bit and the shifts bounded
    if max(np.abs(top[nz]).max(), lj.max() * len(B)) >= 2.0 ** 50:
        raise ValueError("series term or frequency out of range: |log2| >= 2^50")
    est = np.outer(lj, ks)
    est += top  # log2 of the bound 2^top_k J^k
    L = np.floor(est.max(axis=1)).astype(np.int64) - bits - 1
    # highest k whose bound reaches 2^L
    kt = K - np.argmax((est >= L[:, None])[:, ::-1], axis=1)
    del est
    groups = {}
    for i, (jm, js) in enumerate(J):
        groups.setdefault(((jm - 1).bit_length(), js), []).append(i)
    for (s, js), members in groups.items():
        T, first = int(L[members].min()), int(kt[members].max())
        aligned = []  # b_k on the LSB 2^(T - kc), k = first..0
        for k in range(first, -1, -1):
            bm, be = B[k]
            d = T - k * (s + js) - be
            aligned.append(bm >> d if d >= 0 else bm << -d)
        for i in members:
            jm, S = J[i][0], 0
            for b in aligned:
                S = (S * jm >> s) + b
            out[nodes[i]] = mp.make_mpf(from_man_exp(S, T, prec, round_nearest))
    return out


def eval_series_L(mu, xi, prec=1024):
    """Evaluate L(mu; xi); truncation is the sequence length."""
    return eval_series_L_grid(mu, [xi], prec).values[0]


def eval_series_L_grid(mu, xi_grid, prec=1024):
    """L(mu; .) on a grid; one coefficient precomputation for all nodes."""
    prec = check_precision(prec)
    vals = _series_sum(_series_terms(mu, prec), xi_grid, prec)
    return FourierSamples(tuple(xi_grid), tuple(vals))


def _eigenvalue_entries(spec, mode, R, prec):
    # mu_k of the L series: each mode is a target radius of the one radius map
    targets = {"unit": spec.radius, "finiteR": R, "scattering": mpmath.inf}
    if spec.kind is ProfileKind.CONDUCTIVITY:
        targets["moment_form"] = spec.radius
    if mode not in targets:
        raise ValueError(f"unknown mode {mode!r}")
    if targets[mode] is None:
        raise ValueError("finiteR mode needs a target radius R")
    return scaled_shifts(spec, targets[mode], prec)


def born_potential_fourier(spec, xi_grid, mode="unit", R=None, d=3, prec=1024):
    """Fourier transform of the potential Born approximation on a xi-grid.

    Each mode is a target radius of ``forward.scaled_shifts``: "unit" the
    spectrum's own ball, "finiteR" the radius R, "scattering" R -> infinity.
    The spectra are 3-D: any d but 3 raises ``ValueError``.
    """
    if d != 3:
        raise ValueError(f"only d = 3 is supported, got d = {d!r}")
    if spec.kind is not ProfileKind.POTENTIAL:
        raise ValueError("born_potential_fourier requires a potential spectrum")
    prec = check_precision(prec)
    mu = _eigenvalue_entries(spec, mode, R, prec)
    return eval_series_L_grid(mu, xi_grid, prec)


def born_conductivity_fourier(spec, xi_grid, mode="unit", R=None, d=3, prec=1024):
    """Fourier transform of gamma_exp - 1 on a xi-grid.

    Modes "unit"/"finiteR"/"scattering" evaluate the k >= 1 series with the
    weights of ``forward.scaled_shifts`` at their target radius, as for
    potentials; "moment_form" evaluates the equivalent index-shifted L sum
    with entries mu_{k+1} / ((k+1) (2k+3)) of the unit-mode weights.  The
    xi = 0 node is the analytic k = 1 limit, never a division by xi^2.  Any d
    but 3 raises ``ValueError``.
    """
    if d != 3:
        raise ValueError(f"only d = 3 is supported, got d = {d!r}")
    if spec.kind is not ProfileKind.CONDUCTIVITY:
        raise ValueError("born_conductivity_fourier requires a conductivity spectrum")
    prec = check_precision(prec)
    mu = _eigenvalue_entries(spec, mode, R, prec)
    with mp.workprec(prec + GUARD_BITS):
        lam0 = mpf(spec.lambdas[0])
        if abs(lam0) > mpmath.ldexp(mpf(1), -prec // 2):
            warnings.warn("conductivity spectrum has lambda_0 != 0", stacklevel=2)
    if spec.kmax < 1:
        raise ValueError("need at least lambda_1")
    if mode == "moment_form":
        with mp.workprec(prec + GUARD_BITS):
            nu = [mu[k + 1] / ((k + 1) * (2 * k + 3)) for k in range(spec.kmax)]
        return eval_series_L_grid(nu, xi_grid, prec)
    # -2 (L(mu; xi) - 4 pi mu_0) / xi^2 = sum_{k>=1} (-c_k mu_k / 2) (xi/2)^{2(k-1)}
    terms = _series_terms(mu, prec)
    with mp.workprec(prec + GUARD_BITS):
        terms = [-t / 2 for t in terms[1:]]
    vals = _series_sum(terms, xi_grid, prec)
    return FourierSamples(tuple(xi_grid), tuple(vals))


def moment_sequence_exact(f, kmax, prec=256):
    """sigma_k of the profile's deviation from background, by exact integration.

    sigma_k = sum_j (v_j - bg) (r_j^{2k+3} - r_{j-1}^{2k+3}) / (2k+3), where
    bg is 1 for conductivities and 0 for potentials.
    """
    if not isinstance(f, PiecewiseProfile):
        raise TypeError("moment_sequence_exact needs a piecewise-constant profile")
    prec = check_precision(prec)
    with mp.workprec(prec + GUARD_BITS):
        bp = [mpf(x) for x in f.breakpoints]
        dev = [(mpf(v) - f.kind.background, a, b) for v, a, b in zip(f.values, bp, bp[1:])]
        return [to_prec(sum(v * (b ** e - a ** e) for v, a, b in dev if v) / e, prec)
                for e in range(3, 2 * kmax + 4, 2)]


def moments_from_samples(s, kmax):
    """Trapezoidal moments int r^{2k+2} v dr of sampled radial data (double precision)."""
    r = np.asarray(s.r_grid, dtype=float)
    v = np.asarray(s.values, dtype=float)
    return [float(np.trapezoid(v * r ** (2 * k + 2), r)) for k in range(kmax + 1)]
