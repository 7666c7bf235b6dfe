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
from dataclasses import dataclass, replace

import numpy as np
import mpmath
from mpmath import mp

from .born import (
    _series_sum,
    _series_terms,
    born_conductivity_fourier,
    born_potential_fourier,
)
from .forward import spectrum_of
from .fourier import RadialSamples, default_xi_grid, inverse_radial_ft
from .highprec import GUARD_BITS, check_precision
from .profiles import AnalyticProfile, PiecewiseProfile, ProfileKind, project_midpoint

EPS_FLOOR = 1e-3  # conductivity clamp before forward solves


class DegenerateSamplesError(ValueError):
    """Samples coincide with the background; no support radius exists."""


@dataclass(frozen=True)
class SolverParams:
    """Pipeline parameters; the defaults are the desk row of ``SCALES``.

    Spectra run over degrees 0..terms at prec bits, analytic profiles are
    projected onto ``pieces`` pieces and the Born xi-grid has grid_n intervals.
    """

    terms: int = 150
    prec: int = 512
    pieces: int = 2000
    grid_n: int = 512
    length_factor: float = 10.0   # inverse-transform domain [0, length_factor * rho]


# The only place the scales are written.  Commands and experiments start from
# one of them and replace the fields a caller sets explicitly.
SCALES = {"desk": SolverParams(),
          "paper": SolverParams(terms=400, prec=1024, pieces=10_000)}


def ensemble_params(params):
    """The depth-error ensemble's parameters at a scale: at most 256 bits and 400 pieces."""
    return replace(params, prec=min(params.prec, 256), pieces=min(params.pieces, 400))


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


def grid_radius(spec, mode="unit", R=None):
    """The radius rho of ``born_fourier``'s xi-grid."""
    if mode == "finiteR" and R is not None:
        return R
    return 1.0 if mode == "scattering" else float(spec.radius)


def born_fourier(spec, params=None, mode="unit", R=None):
    """Born Fourier transform of a spectrum on default_xi_grid(grid_n, length_factor * rho).

    rho is R in finiteR mode, 1 in scattering mode and the spectrum's radius
    otherwise (``grid_radius``), so the inverse covers [0, length_factor * rho].
    Potentials give the transform of q, conductivities that of gamma - 1.
    """
    params = params or SolverParams()
    xi = default_xi_grid(params.grid_n, params.length_factor * grid_radius(spec, mode, R))
    born = (born_potential_fourier if spec.kind is ProfileKind.POTENTIAL
            else born_conductivity_fourier)
    return born(spec, xi, mode=mode, R=R, prec=params.prec)


def born_inverse(F, kind):
    """Radial samples of a Born transform of ``kind``, background added."""
    if kind is ProfileKind.POTENTIAL:
        return inverse_radial_ft(F)
    out = inverse_radial_ft(F)
    return RadialSamples(out.r_grid, out.values + kind.background)


def born_samples(spec, params=None, mode="unit", R=None):
    """Born reconstruction of a spectrum as radial samples on [0, length_factor * rho].

    rho is as in ``born_fourier``.  Potentials return q_exp; conductivities
    gamma_exp (background 1 already added).
    """
    return born_inverse(born_fourier(spec, params, mode, R), spec.kind)


def samples_to_profile(s, kind, radius, pieces):
    """Midpoint projection of grid samples to a piecewise-constant profile.

    Linear interpolation between nodes; conductivities are clamped below at
    ``EPS_FLOOR``.
    """
    h = radius / pieces
    mids = (np.arange(pieces) + 0.5) * h
    vals = np.interp(mids, s.r_grid, s.values)
    if kind is ProfileKind.CONDUCTIVITY:
        vals = np.maximum(vals, EPS_FLOOR)
    bps = tuple(j * h for j in range(pieces)) + (radius,)
    return PiecewiseProfile(kind, radius, bps, tuple(float(v) for v in vals))


def profile_on_grid(profile, r_grid):
    """Profile values at grid nodes (0 outside the profile's ball, or 1 for gamma)."""
    bg = profile.kind.background
    R = float(profile.radius)
    return np.asarray([profile(r) if r <= R else bg for r in r_grid], dtype=float)


def error_norms(s, reference, interval):
    """(L2, Linf) of s - reference (values on s.r_grid) on [a, b] by trapezoid / grid max."""
    a, b = interval
    if not a < b:
        raise ValueError("need a < b")
    part = s.restrict(a, b)
    ref = np.asarray(reference, dtype=float)[(s.r_grid >= a) & (s.r_grid <= b)]
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
    iterates = [born0]
    l2s, linfs = [], []
    l2, linf = error_norms(born0, ref_vals, (0.0, radius))
    l2s.append(l2)
    linfs.append(linf)
    current = born0
    increases = 0
    converged = True
    for _ in range(n_iter):
        prof = samples_to_profile(current, kind, radius, params.pieces)
        spec_n = spectrum_of(prof, params.terms, params.prec)
        born_n = born_samples(spec_n, params)
        nxt = RadialSamples(r_grid, born0.values + current.values - born_n.values)
        iterates.append(nxt)
        l2, linf = error_norms(nxt, ref_vals, (0.0, radius))
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


def draw_cosine_potential(rng):
    """One random potential from the 20-term cosine basis, rescaled into the unit L2 ball."""
    j = np.arange(1, 21)
    c = rng.uniform(-1.0 / j, 1.0 / j)
    norm2 = float(np.sum(c**2))
    if norm2 > 1.0:
        c = c / math.sqrt(norm2)
    return AnalyticProfile(ProfileKind.POTENTIAL, 1.0, "cosine_series",
                           {"c": [float(v) for v in c]})


def ensemble_depth_profile(seed, n_samples, scale=1.0, params=None):
    """Mean Born error versus depth over random cosine-basis potentials.

    e_scale(r) = (1 / (scale * N_s)) sum_i |scale q_i(r) - Born(scale q_i)(r)|
    restricted to [0, R].  Deterministic for a fixed seed; failed samples are
    excluded and counted.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    params = params or ensemble_params(SolverParams(grid_n=192))
    rng = np.random.default_rng(seed)
    acc = None
    failed = 0
    for _ in range(n_samples):
        base = draw_cosine_potential(rng)
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


def support_radius_estimate(s, background):
    """Largest r where |s - background| exceeds 1 % of its maximum."""
    dev = np.abs(s.values - background)
    peak = float(dev.max())
    if peak == 0.0:
        raise DegenerateSamplesError("samples identically equal the background")
    return float(s.r_grid[dev > 0.01 * peak].max())


def growth_slope(mu, xi_window, prec=256):
    """Least-squares slope of log sum_k |term_k(xi)| at 40 points of a xi window.

    The empirical exponential type of the series with entries mu; for
    moment sequences of a function supported in B_alpha the slope
    approaches alpha.
    """
    a, b = xi_window
    if not 0 < a < b:
        raise ValueError("need 0 < a < b")
    prec = check_precision(prec)
    xs = np.linspace(a, b, 40)
    with mp.workprec(prec + GUARD_BITS):
        terms = [abs(t) for t in _series_terms(mu, prec)]
        # y = (xi/2)^2 >= 0, so the series of |a_k| sums the |term_k|
        logs = []
        for xi, s in zip(xs, _series_sum(terms, xs, prec)):
            if not s:
                raise ValueError(f"the series of |term_k| sums to 0 at xi = {xi}")
            logs.append(float(mpmath.log(s)))
    slope, _ = np.polyfit(xs, np.asarray(logs), 1)
    return float(slope)
