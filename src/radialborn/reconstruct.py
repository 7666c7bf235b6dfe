"""Born reconstructions, fixed-point iteration, and diagnostic statistics.

The pipeline glued together here: DtN spectrum -> Born Fourier series ->
discrete inverse transform -> radial samples on [0, 10R].  On top of it sit
the fixed-point refinement

    x^0     = Born(data),
    x^{n+1} = Born(data) + x^n - Born(forward(x^n)),

the ensemble depth-error statistic, the support-radius estimate and the
growth-rate fit used as the numerical stand-in for the support theory.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np
import mpmath
from mpmath import mp

from .born import (
    _series_sum,
    _series_terms,
    born_conductivity_fourier,
    born_potential_fourier,
)
from .forward import DtnSpectrum, spectrum_of
from .fourier import RadialSamples, default_xi_grid, inverse_radial_ft
from .highprec import GUARD_BITS, check_precision
from .profiles import AnalyticProfile, PiecewiseProfile, ProfileKind, project_midpoint


class DegenerateSamplesError(ValueError):
    """Samples coincide with the background; no support radius exists."""


@dataclass(frozen=True)
class SolverParams:
    """Desk-scale pipeline parameters (paper scale: terms=400, prec=1024, pieces=10000)."""

    terms: int = 150
    prec: int = 512
    pieces: int = 2000
    grid_n: int = 512
    d: int = 3
    length_factor: float = 10.0   # inverse-transform domain [0, length_factor * R]
    eps_floor: float = 1e-3       # conductivity clamp before forward solves

    def xi_grid(self, radius):
        return default_xi_grid(self.grid_n, self.length_factor * radius)


@dataclass(frozen=True)
class IterationTrace:
    iterates: list
    l2_errors: list
    linf_errors: list
    converged: bool


@dataclass(frozen=True)
class DepthErrorCurve:
    r_grid: np.ndarray
    mean_abs_error: np.ndarray
    sample_count: int
    scale: float
    failed: int = 0


def born_samples(spec, params=None, mode="unit", R=None):
    """Born reconstruction of a spectrum as radial samples on [0, L].

    Potentials return q_exp; conductivities return gamma_exp (background 1
    already added).
    """
    params = params or SolverParams()
    radius = R if mode == "finiteR" and R is not None else float(spec.radius)
    xi = params.xi_grid(radius if mode != "scattering" else 1.0)
    if spec.kind is ProfileKind.POTENTIAL:
        F = born_potential_fourier(spec, xi, mode=mode, R=R, d=params.d, prec=params.prec)
        return inverse_radial_ft(F, label="born_q")
    F = born_conductivity_fourier(spec, xi, mode=mode, R=R, d=params.d, prec=params.prec)
    out = inverse_radial_ft(F, label="born_gamma")
    return RadialSamples(out.r_grid, out.values + 1.0, out.label)


def samples_to_profile(s, kind, radius, pieces, eps_floor=None):
    """Midpoint projection of grid samples to a piecewise-constant profile.

    Linear interpolation between nodes; conductivities are clamped below at
    ``eps_floor`` so the forward problem stays elliptic.
    """
    h = radius / pieces
    mids = (np.arange(pieces) + 0.5) * h
    vals = np.interp(mids, s.r_grid, s.values)
    if kind is ProfileKind.CONDUCTIVITY:
        floor = eps_floor if eps_floor is not None else 1e-3
        vals = np.maximum(vals, floor)
    bps = tuple(j * h for j in range(pieces + 1))
    return PiecewiseProfile(kind, radius, bps, tuple(float(v) for v in vals))


def profile_on_grid(profile, r_grid):
    """Profile values at grid nodes (0 outside the profile's ball, or 1 for gamma)."""
    bg = profile.kind.background
    R = float(profile.radius)
    return np.asarray([profile(r) if r <= R else bg for r in r_grid], dtype=float)


def error_norms(s, reference, interval):
    """(L2, Linf) of s - reference on [a, b] by trapezoid / grid max."""
    a, b = interval
    if not a < b:
        raise ValueError("need a < b")
    part = s.restrict(a, b)
    if callable(reference):
        ref = np.asarray([reference(r) for r in part.r_grid], dtype=float)
    else:
        ref = np.asarray(reference, dtype=float)
        ref = ref[(s.r_grid >= a) & (s.r_grid <= b)]
    diff = part.values - ref
    l2 = math.sqrt(np.trapezoid(diff**2, part.r_grid))
    return l2, float(np.max(np.abs(diff)))


def iterate_born(kind, target_spec, reference, n_iter=8, params=None):
    """Fixed-point Born refinement against a target spectrum.

    ``reference`` (a profile) is only used for the error trace.  Stops early
    when the L2 error increases twice in a row.
    """
    params = params or SolverParams()
    radius = float(target_spec.radius)
    born0 = born_samples(target_spec, params)
    r_grid = born0.r_grid
    ref_vals = profile_on_grid(reference, r_grid)
    domain_mask = r_grid <= radius

    def record(sample):
        diff = (sample.values - ref_vals)[domain_mask]
        l2 = math.sqrt(np.trapezoid(diff**2, r_grid[domain_mask]))
        return l2, float(np.max(np.abs(diff)))

    iterates = [born0]
    l2s, linfs = [], []
    l2, linf = record(born0)
    l2s.append(l2)
    linfs.append(linf)
    current = born0
    increases = 0
    converged = True
    for _ in range(n_iter):
        prof = samples_to_profile(current, kind, radius, params.pieces, params.eps_floor)
        spec_n = spectrum_of(prof, params.terms, params.prec)
        born_n = born_samples(spec_n, params)
        nxt = RadialSamples(r_grid, born0.values + current.values - born_n.values,
                            label="iterate")
        iterates.append(nxt)
        l2, linf = record(nxt)
        l2s.append(l2)
        linfs.append(linf)
        if l2 > l2s[-2]:
            increases += 1
            if increases >= 2:
                converged = False
                break
        else:
            increases = 0
        current = nxt
    return IterationTrace(iterates, l2s, linfs, converged)


def draw_cosine_potential(rng, basis_size=20, radius=1.0):
    """One random potential from the cosine basis, rescaled into the unit L2 ball."""
    j = np.arange(1, basis_size + 1)
    c = rng.uniform(-1.0 / j, 1.0 / j)
    norm2 = float(np.sum(c**2))
    if norm2 > 1.0:
        c = c / math.sqrt(norm2)
    return AnalyticProfile(ProfileKind.POTENTIAL, radius, "cosine_series",
                           {"c": [float(v) for v in c]})


def ensemble_depth_profile(seed, n_samples, scale=1.0, basis_size=20, params=None):
    """Mean Born error versus depth over random cosine-basis potentials.

    e_scale(r) = (1 / (scale * N_s)) sum_i |scale q_i(r) - Born(scale q_i)(r)|
    restricted to [0, R].  Deterministic for a fixed seed; failed samples are
    excluded and counted.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    params = params or SolverParams(terms=150, prec=256, pieces=400, grid_n=192)
    rng = np.random.default_rng(seed)
    acc = None
    failed = 0
    for _ in range(n_samples):
        base = draw_cosine_potential(rng, basis_size)
        scaled = AnalyticProfile(ProfileKind.POTENTIAL, base.radius, base.name,
                                 {"c": [scale * v for v in base.params["c"]]})
        prof = project_midpoint(scaled, params.pieces)
        try:
            spec = spectrum_of(prof, params.terms, params.prec)
            recon = born_samples(spec, params)
        except ArithmeticError:
            failed += 1
            continue
        mask = recon.r_grid <= float(base.radius)
        r_grid = recon.r_grid[mask]
        truth = np.asarray([scaled(r) for r in r_grid])
        err = np.abs(truth - recon.values[mask])
        acc = err if acc is None else acc + err
    used = n_samples - failed
    if used == 0:
        raise ArithmeticError("all ensemble samples failed")
    return DepthErrorCurve(r_grid, acc / (scale * used), used, scale, failed)


def support_radius_estimate(s, background, threshold=0.01):
    """Largest r where |s - background| exceeds threshold * max deviation."""
    if not 0 < threshold < 1:
        raise ValueError("threshold must lie in (0, 1)")
    dev = np.abs(s.values - background)
    peak = float(dev.max())
    if peak == 0.0:
        raise DegenerateSamplesError("samples identically equal the background")
    return float(s.r_grid[dev > threshold * peak].max())


def growth_slope(mu, xi_window, d=3, prec=256, n_points=40):
    """Least-squares slope of log sum_k |term_k(xi)| over a xi window.

    The empirical exponential type of the series with entries mu; for
    moment sequences of a function supported in B_alpha the slope
    approaches alpha.
    """
    a, b = xi_window
    if not 0 < a < b:
        raise ValueError("need 0 < a < b")
    prec = check_precision(prec)
    xs = np.linspace(a, b, n_points)
    with mp.workprec(prec + GUARD_BITS):
        terms = [abs(t) for t in _series_terms(mu, d, prec)]
        # y = (xi/2)^2 >= 0, so the series of |a_k| sums the |term_k|
        logs = []
        for xi, s in zip(xs, _series_sum(terms, xs, prec)):
            if not s:
                raise ValueError(f"the series of |term_k| sums to 0 at xi = {xi}")
            logs.append(float(mpmath.log(s)))
    slope, _ = np.polyfit(xs, np.asarray(logs), 1)
    return float(slope)
