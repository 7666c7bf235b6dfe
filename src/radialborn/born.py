"""Born-approximation Fourier series and moment sequences.

The central object is the series operator

    L(mu; xi) = 4 pi sum_k (-1)^k xi^{2k} mu_k / (2k+1)!

For the moments sigma_k[f] = int r^{2k+2} f dr it is the Taylor series of the
3-D transform 4 pi int r^2 f(r) j_0(xi r) dr, j_0(z) = sin z / z.  The Born
weights are the scaled shifts mu_k = R^{2k+2} (lambda_k^R - k/R) of the one
radius map ``forward.raw_scaled_shifts``, each mode one target radius R
(``target_radius``): the spectrum's own (unit), the given R (finiteR) or
infinity (scattering); a zero denominator raises ``TransferDenominatorError``.
The map holds only where R does not cut the support, which a spectrum does not
know: ``check_support`` checks it against a profile.
Fed these, L gives the potential Born approximation, and the conductivity
transform divides by |xi|^2 via an index shift; that series is also the
conductivity moment form.  The weights and the products a_k = c_k mu_k with
the coefficients c_k of (xi/2)^{2k} are raw mpf tuples, each formed by the
libmp operation that mpf arithmetic at prec + GUARD_BITS bits would make, so
no mpf is built between lambda and the kernel; the conductivity's -a_k / 2 is
an exact sign flip and exponent decrement.  One kernel, ``_series_sum``, sums the terms
a_k (xi/2)^{2k} by a truncated Horner pass in Python integers, one
small-integer product per step, and rounds each value to prec once; the error
before that rounding is below 2^-(prec + GUARD_BITS + 5) sum_k |a_k| (xi/2)^{2k}.
What it reads from the nodes alone is kept with the ``highprec.XiGrid``.
Non-finite entries or frequencies raise ``ValueError``.
"""

import functools
import math
from dataclasses import dataclass

import mpmath
import numpy as np
from mpmath import mp, mpf
from mpmath.libmp import mpf_mul, round_nearest

from .forward import raw_scaled_shifts
from .highprec import (GUARD_BITS, XiGrid, check_precision, one_exponent, raw_dyadic,
                       round_half_even, to_prec)
from .profiles import PiecewiseProfile, ProfileKind

@dataclass(frozen=True)
class FourierSamples:
    """Values of a radial Fourier transform on a uniform xi-grid from 0; the grid is
    kept as an ``XiGrid``, the one it is given when it is one."""

    xi_grid: XiGrid
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "xi_grid", XiGrid(self.xi_grid))
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
    # a_k = c_k mu_k of raw mpf mu_k, each rounded to prec + GUARD_BITS bits, as raw mpfs
    work = prec + GUARD_BITS
    return [mpf_mul(c._mpf_, m, work, round_nearest)
            for c, m in zip(series_coefficients(len(mu) - 1, work), mu)]


def _node_plan(grid):
    """The nodes' part of ``_series_sum``, read once per XiGrid: (e, g, lj, groups).

    |xi_n| = N_n 2^e on one exponent with N_n = m_n 2^z_n (``one_exponent``), g is
    the gcd of the mantissas m_n, J_n = (N_n / g)^2 is exact and lj holds log2 J_n
    of the nonzero nodes in order.  Each group (s, index, pairs) holds the nonzero
    nodes with s = bit_length(J_n - 1): their positions in lj as an array and
    their (position in the grid, J_n).  Nodes over 2^22 binary orders apart raise
    ``ValueError``.
    """
    e, X = grid.read(one_exponent)
    nodes = [n for n, (xm, _) in enumerate(X) if xm]
    g = math.gcd(*(xm for xm, _ in X))
    qz = [(abs(X[n][0]) // g, X[n][1]) for n in nodes]  # N_n / g = q_n 2^z_n
    # J_n is exact, so nodes 2^22 binary orders apart would make it megabytes long
    if max((q.bit_length() + z for q, z in qz), default=0) > 2 ** 22:
        raise ValueError("frequency out of range: nodes span over 2^22 binary orders")
    J = [(q << z) ** 2 for q, z in qz]
    groups = {}
    for i, j in enumerate(J):
        groups.setdefault((j - 1).bit_length(), []).append(i)
    return e, g, np.array([math.log2(j) for j in J]), tuple(
        (s, np.array(m), tuple((nodes[i], J[i]) for i in m)) for s, m in groups.items())


def _series_sum(a, xi_grid, prec):
    """sum_k a_k y^k with y = (xi/2)^2 at every node, each rounded to prec once.

    The terms a_k are raw mpf tuples, as ``_series_terms`` gives them.

    A truncated Horner pass in Python integers, F = prec + GUARD_BITS + 8 +
    bit_length(K).  The nonzero nodes are read once per ``XiGrid`` (``_node_plan``)
    as integers on one exponent, |xi_n| = N_n 2^e, and with g the gcd of their
    mantissas (gcd(N_n) for odd mantissas), y_n = J_n Y0 with the exact integer
    J_n = (N_n / g)^2, n^2 on ``default_xi_grid``, and Y0 = g^2 2^(2e - 2).
    Y0 is folded into the terms once per call, b_k = a_k Y0^k to within
    2^-(F + bit_length(K) + 2) relative, so each node sums t_k = b_k J_n^k.

    With s = ceil(log2 J) and L the last kept bit, the partial sum
    sum_{j>=k} b_j J^(j-k) is an integer S with LSB 2^(L - ks), and one step is
    S <- (S J >> s) + b_k aligned: one integer product, one shift and one
    add.  Each step truncates twice by less than 2^(L - ks), which J^k <= 2^(ks)
    carries into the sum as less than 2^L.  Per node, L_n = floor(log2 max_k
    2^top_k J^k) - F - 1 (|b_k| < 2^top_k), and every term past the highest k
    whose bound reaches 2^(L_n) is dropped; both are estimated for all nodes at
    once in numpy.  The nodes that share s share one schedule: the least
    of their L_n, the highest of their start indices, and the b_k aligned once.
    The error before rounding is < 3 (K + 1) 2^(L_n) from the pass, plus the
    fold, < 2^-(prec + GUARD_BITS + 5) sum|t_k| in all.  The
    bits of a node's value below that bound may depend on the other nodes of
    the call, through g, e and its group's schedule, but never on their order.
    Each value is rounded half to even by ``round_half_even``.
    """
    K = len(a) - 1
    bits = prec + GUARD_BITS + 8 + K.bit_length()
    A = [raw_dyadic(t, "series term") for t in a]
    grid = XiGrid(xi_grid)
    with mp.workprec(prec + GUARD_BITS):
        grid.read(one_exponent)  # a non-finite node raises whatever the terms
    # xi = 0 (and an all-zero or empty series) leaves a_0 alone
    out = [mp.make_mpf(round_half_even(*(A[0] if A else (0, 0)), prec))] * len(grid)
    if not any(am for am, _ in A):
        return out
    e, g, lj, groups = grid.read(_node_plan)
    if not groups:
        return out
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
    ks = np.arange(len(B))
    nz = np.array([bm != 0 for bm, _ in B])
    top = np.where(nz, [float(abs(bm).bit_length() + be) for bm, be in B], -np.inf)
    # keeps the float64 estimates within a bit and the shifts bounded
    if max(np.abs(top[nz]).max(), lj.max() * len(B)) >= 2.0 ** 50:
        raise ValueError("series term or frequency out of range: |log2| >= 2^50")
    est = np.outer(lj, ks)
    est += top  # log2 of the bound 2^top_k J^k
    L = np.floor(est.max(axis=1)).astype(np.int64) - bits - 1
    # highest k whose bound reaches 2^L
    kt = K - np.argmax((est >= L[:, None])[:, ::-1], axis=1)
    del est
    for s, index, pairs in groups:
        T, first = int(L[index].min()), int(kt[index].max())
        aligned = []  # b_k on the LSB 2^(T - ks), k = first..0
        for k in range(first, -1, -1):
            bm, be = B[k]
            d = T - k * s - be
            aligned.append(bm >> d if d >= 0 else bm << -d)
        for n, j in pairs:
            S = 0
            for b in aligned:
                S = (S * j >> s) + b
            out[n] = mp.make_mpf(round_half_even(S, T, prec))
    return out


def eval_series_L(mu, xi, prec):
    """Evaluate L(mu; xi); truncation is the sequence length."""
    return eval_series_L_grid(mu, [xi], prec).values[0]


def eval_series_L_grid(mu, xi_grid, prec):
    """L(mu; .) on a grid; one coefficient precomputation for all nodes."""
    prec, grid = check_precision(prec), XiGrid(xi_grid)
    with mp.workprec(prec + GUARD_BITS):
        mu = [mpf(m)._mpf_ for m in mu]
    return FourierSamples(grid, _series_sum(_series_terms(mu, prec), grid, prec))


def target_radius(spec, mode, R):
    """The radius at which a Born mode reads the spectrum through ``raw_scaled_shifts``.

    "unit" the spectrum's own, as "moment_form" on a conductivity, whose series
    is the unit one; "finiteR" the given R, 0 < R < inf; "scattering" ``mpmath.inf``.
    Only ``spec.kind`` and ``spec.radius`` are read, so a profile can be checked
    against its mode before its spectrum is solved.
    """
    if mode == "moment_form" and spec.kind is not ProfileKind.CONDUCTIVITY:
        raise ValueError("moment_form mode applies to conductivity spectra")
    if mode == "finiteR" and (R is None or not 0 < R < mpmath.inf):
        raise ValueError(f"finiteR mode needs a target radius R > 0 and finite, got {R}")
    targets = {"unit": spec.radius, "moment_form": spec.radius, "finiteR": R,
               "scattering": mpmath.inf}
    if mode not in targets:
        raise ValueError(f"unknown mode {mode!r}")
    return targets[mode]


def check_support(profile, mode, R):
    """Raise ``ValueError`` in finiteR mode when R lies below the outer radius of the
    outermost piece of the staircase ``profile`` that is not background.

    The radius map of ``raw_scaled_shifts`` holds only where the coefficient is
    background outside the ball of radius min(a, R), so such an R would give
    numbers that mean nothing.  A spectrum alone does not know its support; a
    caller that holds the profile checks it before the solve.
    """
    if mode != "finiteR":
        return
    bg = profile.kind.background
    outer = max((b for v, b in zip(profile.values, profile.breakpoints[1:]) if v != bg),
                default=0)
    if R < outer:
        raise ValueError(f"finiteR radius {R} lies inside the support of the profile, "
                         f"which reaches r = {outer}")


def _born_fourier(kind, spec, xi_grid, mode, R, d, prec):
    if d != 3:
        raise ValueError(f"only d = 3 is supported, got d = {d!r}")
    if spec.kind is not kind:
        raise ValueError(f"born_{kind.value}_fourier requires a {kind.value} spectrum")
    prec = check_precision(prec)
    terms = _series_terms(raw_scaled_shifts(spec, target_radius(spec, mode, R), prec), prec)
    if kind is ProfileKind.CONDUCTIVITY:
        if spec.kmax < 1:
            raise ValueError("need at least lambda_1")
        with mp.workprec(prec + GUARD_BITS):
            if abs(mpf(spec.lambdas[0])) > mpmath.ldexp(mpf(1), -prec // 2):
                raise ValueError("conductivity spectrum has lambda_0 != 0")
        # -2 (L(mu; xi) - 4 pi mu_0) / xi^2 = sum_{k>=1} (-c_k mu_k / 2) (xi/2)^{2(k-1)};
        # -t / 2 is exact: a sign flip and one off the exponent (zero, NaN and inf kept)
        terms = [(1 - sign, man, exp - 1, bc) if man else (sign, man, exp, bc)
                 for sign, man, exp, bc in terms[1:]]
    grid = XiGrid(xi_grid)
    return FourierSamples(grid, _series_sum(terms, grid, prec))


def born_potential_fourier(spec, xi_grid, mode="unit", R=None, d=3, *, prec):
    """Fourier transform of the potential Born approximation on a xi-grid.

    L(mu; xi) with the weights mu of ``raw_scaled_shifts`` at the mode's
    ``target_radius``.  The spectra are 3-D: any d but 3 raises ``ValueError``.
    """
    return _born_fourier(ProfileKind.POTENTIAL, spec, xi_grid, mode, R, d, prec)


def born_conductivity_fourier(spec, xi_grid, mode="unit", R=None, d=3, *, prec):
    """Fourier transform of gamma_exp - 1 on a xi-grid.

    The k >= 1 series -2 (L(mu; xi) - 4 pi mu_0) / xi^2 with the weights mu of
    ``raw_scaled_shifts`` at the mode's ``target_radius``.  "moment_form" is this
    unit series: its Hausdorff entries nu_k = mu_{k+1} / ((k+1)(2k+3)) give
    c_k nu_k = -c_{k+1} mu_{k+1} / 2 term by term.  The xi = 0 node is the
    analytic k = 1 limit, never a division by xi^2.  A conductivity's lambda_0 is
    0: a spectrum with |lambda_0| > 2^(-prec/2) raises ``ValueError``, as does any
    d but 3.
    """
    return _born_fourier(ProfileKind.CONDUCTIVITY, spec, xi_grid, mode, R, d, prec)


def moment_sequence_exact(f, kmax, prec):
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
