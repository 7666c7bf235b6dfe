"""Born reconstructions, fixed-point iteration, and diagnostic statistics.

The pipeline glued together here: DtN spectrum -> Born Fourier series ->
discrete inverse transform -> radial samples on [0, 10R].  On top of it sit
the fixed-point refinement

    x^0     = Born(data),
    x^{n+1} = Born(data) + x^n - Born(forward(x^n)),

the ensemble depth-error statistic and the support-radius estimate.
"""

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .born import born_conductivity_fourier, born_potential_fourier, target_radius
from .forward import spectrum_of
from .fourier import RadialSamples, default_xi_grid, inverse_radial_ft
from .profiles import AnalyticProfile, PiecewiseProfile, ProfileKind, project_midpoint

EPS_FLOOR = 1e-3  # conductivity clamp before forward solves
ITERATE_PIECES_PER_SAMPLE = 4  # iterate pieces per sample spacing of its r-grid


class DegenerateSamplesError(ValueError):
    """Samples coincide with the background; no support radius exists."""


@dataclass(frozen=True)
class SolverParams:
    """Run settings; the defaults are the desk row of ``SCALES``.

    ``SCALES`` is the only place these values are decided: the layer functions
    (``born_fourier``, ``iterate_born``, the Born series, the transforms) take
    them, precision included, from their caller and default none of them.

    Spectra run over degrees 0..terms at prec bits and the Born xi-grid has
    grid_n intervals, so it reaches xi_max = grid_n pi / length_factor on the
    unit ball.  The K-term series only tracks the transform while its tail
    bound xi_max^(2K) / (2K+1)! is small: each scale's grid_n keeps it below
    10^-40 (10^-45.3 at desk, 10^-214.7 at paper; 10^+45.0 at K = 150 and
    grid 512, where the samples are truncation garbage).  ``pieces`` projects
    truth and analytic profiles; ``iterate_born`` projects its iterates onto
    ``ITERATE_PIECES_PER_SAMPLE`` pieces per sample spacing instead (see there).
    ``iterations`` is the step count of ``iterate_born``; ``seed`` and ``samples``
    draw the depth-error ensemble, which caps prec and pieces on its own.
    """

    terms: int = 150
    prec: int = 512
    pieces: int = 2000
    grid_n: int = 256
    length_factor: float = 10.0   # inverse-transform domain [0, length_factor * rho]
    iterations: int = 8
    seed: int = 1234
    samples: int = 20

    def __post_init__(self):
        for name, least in (("grid_n", 2), ("iterations", 0), ("samples", 1)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if not value >= least:
                raise ValueError(f"{name} must be at least {least}, got {value}")
        if not 0 < self.length_factor < math.inf:
            raise ValueError(f"length_factor must be positive and finite, got {self.length_factor}")


# The only place the scales are written.  Commands and experiments start from
# one of them and replace the fields a caller sets explicitly.
SCALES = {"desk": SolverParams(),
          "paper": SolverParams(terms=400, prec=1024, pieces=10_000, grid_n=512)}


@dataclass(frozen=True)
class IterationTrace:
    iterates: list
    l2_errors: list
    linf_errors: list


@dataclass(frozen=True)
class DepthErrorCurve:
    r_grid: np.ndarray
    mean_abs_error: np.ndarray
    failed: int


def grid_radius(spec, mode, R):
    """The radius rho of ``born_fourier``'s xi-grid: the mode's target radius, 1 at infinity."""
    rho = float(target_radius(spec, mode, R))
    return 1.0 if math.isinf(rho) else rho


def born_fourier(spec, params, mode="unit", R=None):
    """Born Fourier transform of a spectrum on default_xi_grid(grid_n, length_factor * rho).

    rho is R in finiteR mode, 1 in scattering mode and the spectrum's radius
    otherwise (``grid_radius``), so the inverse covers [0, length_factor * rho].
    Potentials give the transform of q, conductivities that of gamma - 1.
    """
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


def born_samples(spec, params, mode="unit", R=None):
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


def iterate_born(kind, target_spec, reference, n_iter, params):
    """Fixed-point Born refinement against a target spectrum.

    ``reference`` (a profile) is only used for the error trace.  Stops after
    the L2 error grew at two steps in a row; the last iterate is kept.

    Each iterate is the linear interpolant of its samples, so it is projected
    onto ``ITERATE_PIECES_PER_SAMPLE`` pieces per sample spacing on [0, R],
    not onto ``params.pieces``, before its spectrum is solved: the sample
    spacing is radius * length_factor / grid_n, so that is
    ceil(ITERATE_PIECES_PER_SAMPLE * grid_n / length_factor) pieces.
    """
    radius = float(target_spec.radius)
    born0 = born_samples(target_spec, params)
    r_grid = born0.r_grid
    pieces = math.ceil(ITERATE_PIECES_PER_SAMPLE * params.grid_n / params.length_factor)
    ref_vals = profile_on_grid(reference, r_grid)
    iterates = [born0]
    norms = [error_norms(born0, ref_vals, (0.0, radius))]
    for _ in range(n_iter):
        prof = samples_to_profile(iterates[-1], kind, radius, pieces)
        born_n = born_samples(spectrum_of(prof, params.terms, params.prec), params)
        iterates.append(RadialSamples(r_grid, born0.values + iterates[-1].values - born_n.values))
        norms.append(error_norms(iterates[-1], ref_vals, (0.0, radius)))
        # NaN compares false both ways, so it neither grows nor extends a run
        if len(norms) > 2 and norms[-3][0] < norms[-2][0] < norms[-1][0]:
            break
    l2s, linfs = map(list, zip(*norms))
    return IterationTrace(iterates, l2s, linfs)


def draw_cosine_potential(rng):
    """One random potential from the 20-term cosine basis, rescaled into the unit L2 ball."""
    j = np.arange(1, 21)
    c = rng.uniform(-1.0 / j, 1.0 / j)
    norm2 = float(np.sum(c**2))
    if norm2 > 1.0:
        c = c / math.sqrt(norm2)
    return AnalyticProfile(ProfileKind.POTENTIAL, 1.0, "cosine_series",
                           {"c": [float(v) for v in c]})


def ensemble_depth_profile(scale, params):
    """Mean Born error versus depth over random cosine-basis potentials.

    e_scale(r) = (1 / (scale * N_s)) sum_i |scale q_i(r) - Born(scale q_i)(r)|
    restricted to [0, R], over N_s = ``params.samples`` potentials drawn from
    ``params.seed``.  Each is solved at most at 256 bits on at most 400 pieces,
    whatever the scale.  Deterministic for a fixed seed; failed samples are
    excluded and counted.  The scale must be positive.
    """
    if not scale > 0:
        raise ValueError(f"ensemble scale must be positive, got {scale}")
    params = replace(params, prec=min(params.prec, 256), pieces=min(params.pieces, 400))
    rng = np.random.default_rng(params.seed)
    errors = []
    for _ in range(params.samples):
        base = draw_cosine_potential(rng)
        scaled = AnalyticProfile(ProfileKind.POTENTIAL, base.radius, base.name,
                                 {"c": [scale * v for v in base.params["c"]]})
        prof = project_midpoint(scaled, params.pieces)
        try:
            recon = born_samples(spectrum_of(prof, params.terms, params.prec), params)
        except ArithmeticError:
            continue
        recon = recon.restrict(0.0, float(scaled.radius))
        errors.append(np.abs(profile_on_grid(scaled, recon.r_grid) - recon.values))
    if not errors:
        raise ArithmeticError("all ensemble samples failed")
    return DepthErrorCurve(recon.r_grid, sum(errors) / (scale * len(errors)),
                           params.samples - len(errors))


def support_radius_estimate(s, background):
    """Largest r where |s - background| exceeds 1 % of its maximum."""
    dev = np.abs(s.values - background)
    peak = float(dev.max())
    if peak == 0.0:
        raise DegenerateSamplesError("samples identically equal the background")
    return float(s.r_grid[dev > 0.01 * peak].max())
