"""Radial Fourier transform (d = 3) and its discrete sine-sum inverse.

Forward:  F(xi) = (4 pi / xi) \\int_0^inf r f0(r) sin(xi r) dr, evaluated in
closed form per piece for piecewise-constant profiles.

Inverse:  samples of F on xi_j = j pi / L, j = 0..N, give

    f(r_m) = (h_xi / (2 pi^2 r_m)) sum_{j=1}^{N} xi_j F(xi_j) sin(r_m xi_j)

on r_m = m L / N, with the analytic limit at r = 0.  The sum is evaluated
either directly or through a type-I discrete sine transform; both paths
agree to roundoff.  The inverse runs in double precision by design: the
ill-conditioning lives in the eigenvalue series, not in the sine sum.
"""

from dataclasses import dataclass

import numpy as np
import mpmath
from mpmath import mp, mpf
from scipy.fft import dst

from .born import FourierSamples
from .highprec import GUARD_BITS, check_precision, to_prec
from .profiles import PiecewiseProfile


class GridMismatchError(ValueError):
    """Fourier samples are not on the xi_j = j pi / L grid expected."""


@dataclass(frozen=True)
class RadialSamples:
    """Values of a radial function on a uniform r-grid starting at 0."""

    r_grid: np.ndarray
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "r_grid", np.asarray(self.r_grid, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.r_grid.shape != self.values.shape:
            raise ValueError("grid/value shape mismatch")

    @property
    def spacing(self):
        return float(self.r_grid[1] - self.r_grid[0])

    def restrict(self, a, b):
        mask = (self.r_grid >= a) & (self.r_grid <= b)
        return RadialSamples(self.r_grid[mask], self.values[mask], self.label)


def default_xi_grid(n, L):
    """xi_j = j pi / L for j = 0..n (floats)."""
    return tuple(j * np.pi / L for j in range(n + 1))


def forward_radial_ft(f, xi_grid, d=3, prec=256, subtract_background=False):
    """Closed-form radial Fourier transform of a piecewise-constant profile.

    The xi = 0 node is the volume integral 4 pi \\int r^2 f0 dr.  With
    ``subtract_background`` the transform of f - bg (restricted to the ball)
    is computed instead, which is the natural input for conductivities.
    """
    if d != 3:
        raise ValueError("forward transform implemented for d = 3")
    if not isinstance(f, PiecewiseProfile):
        raise TypeError("forward_radial_ft needs a piecewise-constant profile")
    prec = check_precision(prec)
    bg = f.kind.background if subtract_background else 0.0
    with mp.workprec(prec + GUARD_BITS):
        bp = [mpf(x) for x in f.breakpoints]
        dev = [mpf(v) - bg for v in f.values]
        pieces = [(j, v) for j, v in enumerate(dev) if v != 0]
        ends = {i for j, _ in pieces for i in (j, j + 1)}  # G once per breakpoint
        pi4 = 4 * mpmath.pi
        vals = []
        for xi in xi_grid:
            xi = mpf(xi)
            if xi == 0:
                s = sum(v * (bp[j + 1] ** 3 - bp[j] ** 3) for j, v in pieces)
                vals.append(to_prec(pi4 * s / 3, prec))
                continue
            # int_a^b r sin(xi r) dr = G(b) - G(a), G(r) = sin(xi r)/xi^2 - r cos(xi r)/xi
            G = {}
            for i in ends:
                c, s = mpmath.cos_sin(xi * bp[i])  # one mpf_cos_sin, same bits as cos and sin
                G[i] = s / xi**2 - bp[i] * c / xi
            s = sum((v * (G[j + 1] - G[j]) for j, v in pieces), mpf(0))
            vals.append(to_prec(pi4 * s / xi, prec))
    return FourierSamples(tuple(xi_grid), tuple(vals), d, label="forward_ft")


def inverse_radial_ft(F, n_out=None, L=None, method="dst", label=""):
    """Discrete inverse of radial Fourier samples on xi_j = j pi / L.

    Returns samples on r_m = m L / N, m = 0..N where N = len(F) - 1.
    ``method`` is "dst" (fast path) or "direct" (reference sum).
    """
    xi = np.asarray([float(x) for x in F.xi_grid])
    vals = np.asarray([float(v) for v in F.values])
    n = len(xi) - 1
    if n < 2:
        raise GridMismatchError("need at least 3 Fourier samples")
    h_xi = xi[1] - xi[0]
    if L is None:
        L = np.pi / h_xi
    if abs(h_xi - np.pi / L) > 1e-9 * h_xi:
        raise GridMismatchError(f"grid spacing {h_xi} is not pi/L = {np.pi / L}")
    if np.max(np.abs(np.diff(xi) - h_xi)) > 1e-9 * h_xi:
        raise GridMismatchError("xi-grid is not uniform")
    if n_out is not None and n_out != n:
        raise GridMismatchError("output node count must match the input sample count")

    r = np.arange(n + 1) * (L / n)
    a = xi[1:] * vals[1:]  # xi_j F_j, j = 1..N
    out = np.empty(n + 1)
    out[0] = h_xi / (2 * np.pi**2) * np.sum(xi[1:] ** 2 * vals[1:])
    if method == "dst":
        # sum_{j=1}^{N-1} a_j sin(pi j m / N) = DST-I of a_1..a_{N-1}; the
        # j = N term has sin(pi m) = 0 and drops out
        sine_sums = 0.5 * dst(a[:-1], type=1)
        out[1:-1] = h_xi / (2 * np.pi**2 * r[1:-1]) * sine_sums
        out[-1] = 0.0
    elif method == "direct":
        for m in range(1, n + 1):
            out[m] = h_xi / (2 * np.pi**2 * r[m]) * np.sum(a * np.sin(r[m] * xi[1:]))
    else:
        raise ValueError(f"unknown method {method!r}")
    return RadialSamples(r, out, label=label or F.label)
