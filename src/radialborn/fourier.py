"""Radial Fourier transform (d = 3) and its discrete sine-sum inverse.

Forward:  F(xi) = (4 pi / xi) \\int_0^inf r f0(r) sin(xi r) dr, in closed form
for piecewise-constant profiles on an exactly arithmetic grid xi_j = xi_0 + j h
(``default_xi_grid`` gives xi_j = j h as exact mpfs), by one F-bit fixed-point
rotation per breakpoint and node; ``forward_radial_ft`` states F and the error
bound.  Other grids raise ``GridMismatchError``.

Inverse:  samples of F on xi_j = j pi / L, j = 0..N, give

    f(r_m) = (h_xi / (2 pi^2 r_m)) sum_{j=1}^{N} xi_j F(xi_j) sin(r_m xi_j)

on r_m = m L / N, with the analytic limit at r = 0.  A grid that does not
start at 0 or is not uniform raises ``GridMismatchError``.  The sum is
evaluated through a type-I discrete sine transform.  The inverse runs in
double precision by design: the ill-conditioning lives in the eigenvalue
series, not in the sine sum.
"""

import functools
import math
from dataclasses import dataclass
from operator import mul

import numpy as np
import mpmath
from mpmath import mp, mpf
from mpmath.libmp import (from_man_exp, mpf_cos_sin, mpf_mul, mpf_pow_int, mpf_sub, round_nearest,
                          to_fixed)

from .born import FourierSamples
from .highprec import (GUARD_BITS, XiGrid, _quotient, check_precision, one_exponent,
                       round_half_even, to_prec)
from .profiles import PiecewiseProfile


class GridMismatchError(ValueError):
    """Fourier samples or nodes are not on the grid the transform requires."""


@dataclass(frozen=True)
class RadialSamples:
    """Values of a radial function on a uniform r-grid starting at 0."""

    r_grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "r_grid", np.asarray(self.r_grid, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.r_grid.shape != self.values.shape:
            raise ValueError("grid/value shape mismatch")

    def restrict(self, a, b):
        mask = (self.r_grid >= a) & (self.r_grid <= b)
        return RadialSamples(self.r_grid[mask], self.values[mask])


def xi_node_bits(n):
    """Bits that hold every node j h, j = 0..n, of a float h exactly: 53 + bit_length(n)."""
    return 53 + int(n).bit_length()


@functools.lru_cache(maxsize=16)
def default_xi_grid(n, L):
    """xi_j = j h for j = 0..n, h = np.pi / L in float64, as exact mpf multiples of h.

    Each node is formed at ``xi_node_bits(n)`` bits, so j h carries no rounding
    and the grid is exactly arithmetic, as ``forward_radial_ft`` requires.
    float(xi_1) == np.pi / L, so the inverse's spacing and r-grid are those of
    the float grid j * np.pi / L; read as floats, some nodes differ from that
    grid by one ulp.  Every call with equal (n, L) returns one shared ``XiGrid``,
    which keeps what the transforms and the writers read from its nodes: the
    last 16 grids are kept, about 0.4 MB for a 513-node grid with all its reads.
    """
    h = mpf(np.pi / float(L))
    with mp.workprec(xi_node_bits(n)):
        return XiGrid(j * h for j in range(n + 1))


def _arithmetic_grid(grid):
    """(N, H) with xi_j = (N + j H) 2^e exactly, e from ``one_exponent``, or GridMismatchError."""
    N = [xm << z for xm, z in grid.read(one_exponent)[1]]
    H = N[1] - N[0] if len(N) > 1 else 0
    if any(x != N[0] + j * H for j, x in enumerate(N)):
        raise GridMismatchError("xi-grid is not exactly arithmetic, xi_j = xi_0 + j h")
    return (N[0] if N else 0), H


def _fixed_cos_sin(t, F):
    # (cos t, sin t) of an exact raw mpf t as F-bit fixed-point integers
    if not t[1]:
        return 1 << F, 0
    c, s = mpf_cos_sin(t, F)
    return to_fixed(c, F), to_fixed(s, F)


def _node_value(S1, e1, S2, e2, xi, pi4, prec):
    """4 pi (S1 2^e1 - S2 2^e2) / xi^3 as a raw mpf, from exact integers, xi = N 2^e
    given as (N, e) and pi4, 4 pi at work = prec + GUARD_BITS bits.

    Rounded in integers as mpf arithmetic rounds it: the difference, its product
    with pi4 and the quotient by xi^3 (mpf_pow_int's, at work bits) each to work
    bits, then the quotient to prec, the values of mpf_sub, mpf_mul, mpf_div and
    mpf_pos at round_nearest.
    """
    work = prec + GUARD_BITS
    d = e2 - e1
    ts, tm, te, _ = round_half_even(S1 - (S2 << d) if d >= 0 else (S1 << -d) - S2,
                                    min(e1, e2), work)
    _, pm, pe, _ = pi4._mpf_
    vs, vm, ve, _ = round_half_even(-pm * tm if ts else pm * tm, pe + te, work)
    N, e = xi
    cs, cm, ce, _ = mpf_pow_int(from_man_exp(N, e), 3, work, round_nearest)
    qs, qm, qe, _ = _quotient(-vm if vs else vm, ve - ce, -cm if cs else cm, work)
    return round_half_even(-qm if qs else qm, qe, prec)


def forward_radial_ft(f, xi_grid, prec):
    """Closed-form radial Fourier transform of a profile's deviation from background.

    ``xi_grid`` must be exactly arithmetic, xi_j = xi_0 + j h for j = 0..n-1,
    checked in exact arithmetic: ``default_xi_grid``, any slice of it or a
    single node.  Any other grid raises ``GridMismatchError``.  The xi = 0 node
    is the volume integral 4 pi \\int r^2 f0 dr, with f0 = f - 1 (conductivity)
    or f (potential) on the ball and 0 outside.

    With G(r) = sin(xi r)/xi^2 - r cos(xi r)/xi, a piece contributes its value
    of f0 times G(b) - G(a), so F(xi) = 4 pi (S1 - xi S2) / xi^3 with
    S1 = sum_i w_i sin(xi r_i) and S2 = sum_i w_i r_i cos(xi r_i) over the m
    breakpoints r_i > 0 with a nonzero jump w_i = v_{i-1} - v_i of f0 (v_{-1} = 0
    and 0 past the last piece; G(0) = 0).  In F-bit fixed point,
    F = prec + GUARD_BITS + bit_length(n) + bit_length(m) + 8, each breakpoint
    carries u_i = w_i e^{i xi_j r_i}, started from two ``cos_sin`` calls at
    xi_0 r_i and h r_i and advanced by one integer complex multiplication
    (three products) per node.  S1 is then the sum of the imaginary parts and
    S2 one integer dot product of the real parts with the breakpoints.  With
    |w_i| < 2^E, each u_i is off by less than 6 (j + 1) 2^(E - F) at node j,
    so S1 and S2 / max r_i are off by less than 2^(E - F + 4 + bit_length(n)
    + bit_length(m)), and F(xi) by that times 4 pi (1 + |xi| max r_i) / |xi|^3.
    S1 - xi S2 is rounded once to prec + GUARD_BITS bits, multiplied by
    4 pi / xi^3 at that precision and rounded to prec, each step but the cube in
    integers by ``highprec.round_half_even`` and ``highprec._quotient`` as mpf
    arithmetic rounds it (``_node_value``).

    S1 - xi S2 is about (xi r)^3 |w| / 3, so at the smallest nonzero node,
    2^-t = min |xi| max r_i, it cancels about 3t bits: F grows by
    3 max(0, t - 10) bits, with t read from the nodes' exponents before any node
    integer is formed, and each value keeps prec bits.  t > prec raises
    ``ValueError``.
    """
    if not isinstance(f, PiecewiseProfile):
        raise TypeError("forward_radial_ft needs a piecewise-constant profile")
    prec, grid = check_precision(prec), XiGrid(xi_grid)
    work = prec + GUARD_BITS
    with mp.workprec(work):
        e, X = grid.read(one_exponent)
        bp = [mpf(x) for x in f.breakpoints]
        dev = [mpf(v) - f.kind.background for v in f.values]
        pieces = [(j, v) for j, v in enumerate(dev) if v != 0]
        jumps = []  # raw (r_i, w_i), w_i = v_{i-1} - v_i exact
        for r, a, b in zip(bp, [mpf(0), *dev], [*dev, mpf(0)]):
            w = mpf_sub(a._mpf_, b._mpf_)
            if r and w[1]:
                jumps.append((r._mpf_, w))
        # 2^-t <= min |xi| max r_i: |xi_n| >= 2^(e + z_n + bc_n - 1), r >= 2^(exp + bc - 1)
        lows = [e + z + abs(xm).bit_length() - 1 for xm, z in X if xm]
        t = -min(lows) - max(r[2] + r[3] - 1 for r, _ in jumps) if lows and jumps else 0
        if t > prec:
            raise ValueError(f"smallest nonzero xi-grid node too small for {prec} bits: "
                             f"min |xi| max r_i is about 2^-{t}")
        N0, H = grid.read(_arithmetic_grid)
        F = (work + len(grid).bit_length() + len(jumps).bit_length() + 8
             + 3 * max(0, t - 10))
        E = max((w[2] + w[3] for _, w in jumps), default=0)  # |w_i| < 2^E
        # breakpoints as integers r_i 2^-er, exact unless they span over F bits
        er = max(min((r[2] for r, _ in jumps), default=0),
                 max((r[2] + r[3] for r, _ in jumps), default=0) - F)
        Rint = [to_fixed(r, -er) for r, _ in jumps]
        # u_i = (X + iY) 2^(E-F); the step e^{i h r_i} = (A + iB) 2^-F, P = A + B, Q = B - A
        X, Y, A, P, Q = [], [], [], [], []
        x0, h = from_man_exp(N0, e), from_man_exp(H, e)
        for r, w in jumps:
            W = to_fixed(w, F - E)
            c, s = _fixed_cos_sin(mpf_mul(x0, r), F)
            a, b = _fixed_cos_sin(mpf_mul(h, r), F)
            X.append(W * c >> F)
            Y.append(W * s >> F)
            A.append(a)
            P.append(a + b)
            Q.append(b - a)
        pi4 = 4 * mpmath.pi
        vals = []
        for j in range(len(grid)):
            if j:
                # (X + iY)(A + iB) = (K - YP) + i(K + XQ) with K = A(X + Y)
                K = [a * (x + y) for x, y, a in zip(X, Y, A)]
                X, Y = ([(k - y * p) >> F for k, y, p in zip(K, Y, P)],
                        [(k + x * q) >> F for k, x, q in zip(K, X, Q)])
            Nj = N0 + j * H
            if not Nj:
                vol = sum(v * (bp[i + 1] ** 3 - bp[i] ** 3) for i, v in pieces)
                vals.append(to_prec(pi4 * vol / 3, prec))
                continue
            vals.append(mp.make_mpf(_node_value(sum(Y), E - F, Nj * sum(map(mul, Rint, X)),
                                                e + er + E - F, (Nj, e), pi4, prec)))
    return FourierSamples(grid, vals)


def _floats(xs):
    """float(x) of each x, as a float64 array.

    An mpf whose value float64 holds as a normal number, 2^-1022 <= |x| < 2^1023,
    and whose mantissa is below 2^1024 is read from its raw (sign, man, exp, bc):
    float(man) rounds man to 53 bits, to nearest with ties to even as mpmath's
    float() does, and ldexp scales that exactly.  Zero, NaN, an infinity, a value
    at the subnormal or overflow edge and anything but an mpf take float().
    """
    ldexp, out = math.ldexp, []
    for x in xs:
        if type(x) is mpf:
            sign, man, exp, bc = x._mpf_
            if man and bc < 1024 and -1021 <= exp + bc <= 1023:
                v = ldexp(float(man), exp)
                out.append(-v if sign else v)
                continue
        out.append(float(x))
    return np.asarray(out, dtype=float)


def _dst_grid(grid):
    """What ``inverse_radial_ft`` reads from the nodes alone, once per XiGrid: the
    r-grid, the float nodes xi_j and xi_j^2 for j = 1..N and the factors of the
    sine sums, or ``GridMismatchError`` for fewer than 3 nodes, a non-finite node,
    a first node other than 0 or a grid that is not uniform."""
    xi = _floats(grid)
    n = len(xi) - 1
    if n < 2:
        raise GridMismatchError("need at least 3 Fourier samples")
    # NaN compares false, so a NaN node would pass the tests below
    if not np.isfinite(xi).all():
        raise GridMismatchError("Fourier nodes must be finite")
    if grid[0] != 0:
        raise GridMismatchError(f"xi-grid starts at {grid[0]}, not at 0")
    h_xi = xi[1] - xi[0]
    if np.max(np.abs(np.diff(xi) - h_xi)) > 1e-9 * h_xi:
        raise GridMismatchError("xi-grid is not uniform")
    L = np.pi / h_xi
    r = np.arange(n + 1) * (L / n)
    return r, xi[1:], xi[1:] ** 2, h_xi / (2 * np.pi**2), h_xi / (2 * np.pi**2 * r[1:-1])


def inverse_radial_ft(F):
    """Discrete inverse of radial Fourier samples on xi_j = j pi / L.

    Returns samples on r_m = m L / N, m = 0..N where N = len(F) - 1 and
    L = pi / (xi_1 - xi_0).  A non-finite node or value raises ``GridMismatchError``.
    """
    r, xi, xi2, w0, w = F.xi_grid.read(_dst_grid)
    vals = _floats(F.values)
    if not np.isfinite(vals).all():
        raise GridMismatchError("Fourier values must be finite")
    n = len(xi)
    a = xi * vals[1:]  # xi_j F_j, j = 1..N
    out = np.empty(n + 1)
    out[0] = w0 * np.sum(xi2 * vals[1:])
    # sum_{j=1}^{N-1} a_j sin(pi j m / N), a type-I DST of a_1..a_{N-1}, is
    # -1/2 Im of the real FFT of the odd extension (0, a_1..a_{N-1}, 0,
    # -a_{N-1}..-a_1); the j = N term has sin(pi m) = 0 and drops out
    odd = np.concatenate(([0.0], a[:-1], [0.0], -a[-2::-1]))
    sine_sums = -0.5 * np.fft.rfft(odd)[1:n].imag
    out[1:-1] = w * sine_sums
    out[-1] = 0.0
    return RadialSamples(r.copy(), out)
