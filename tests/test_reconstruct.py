import json
import math
from dataclasses import asdict, replace

import mpmath
import numpy as np
import pytest
from mpmath import mp, mpf
from mpmath.libmp import mpf_abs

from radialborn import reconstruct
from radialborn.born import _series_sum, _series_terms, moment_sequence_exact
from radialborn.forward import spectrum_of
from radialborn.fourier import RadialSamples, default_xi_grid
from radialborn.highprec import GUARD_BITS
from radialborn.profiles import AnalyticProfile, PiecewiseProfile, ProfileKind, project_midpoint
from radialborn.reconstruct import (
    EPS_FLOOR,
    SCALES,
    DegenerateSamplesError,
    SolverParams,
    born_samples,
    draw_cosine_potential,
    ensemble_depth_profile,
    error_norms,
    iterate_born,
    samples_to_profile,
    support_radius_estimate,
)

FAST = SolverParams(terms=80, prec=192, pieces=300, grid_n=128)


def growth_slope(mu, xi_window, prec):
    """Least-squares slope of log sum_k |term_k(xi)| at 40 points of a xi window.

    The empirical exponential type of the series with entries mu; for
    moment sequences of a function supported in B_alpha the slope
    approaches alpha.
    """
    a, b = xi_window
    if not 0 < a < b:
        raise ValueError("need 0 < a < b")
    xs = np.linspace(a, b, 40)
    with mp.workprec(prec + GUARD_BITS):
        # the terms as raw mpfs; y = (xi/2)^2 >= 0, so the series of |a_k| sums the |term_k|
        terms = [mpf_abs(t) for t in _series_terms([mpf(m)._mpf_ for m in mu], prec)]
        logs = []
        for xi, s in zip(xs, _series_sum(terms, xs, prec)):
            if not s:
                raise ValueError(f"the series of |term_k| sums to 0 at xi = {xi}")
            logs.append(float(mpmath.log(s)))
    slope, _ = np.polyfit(xs, np.asarray(logs), 1)
    return float(slope)


def test_born_samples_small_potential_accurate():
    q = PiecewiseProfile(ProfileKind.POTENTIAL, 1.0, (0.0, 0.5, 1.0), (0.1, 0.0))
    spec = spectrum_of(q, FAST.terms, FAST.prec)
    s = born_samples(spec, FAST)
    r = s.r_grid
    keep = (np.abs(r - 0.5) > 0.06) & (r > 0.06) & (r <= 1.0)
    truth = np.where(r <= 0.5, 0.1, 0.0)
    assert np.max(np.abs(s.values - truth)[keep]) < 0.02


def test_scale_grids_lie_inside_the_band_of_the_series():
    # the K-term series follows the transform only while its tail bound
    # xi_max^(2K) / (2K+1)! is small; at K = 150 a grid of 512 gives 10^45.0
    # and samples of 3.8e45 on this step
    for name, p in SCALES.items():
        xi_max = p.grid_n * math.pi / p.length_factor
        tail = (2 * p.terms * math.log(xi_max) - math.lgamma(2 * p.terms + 2)) / math.log(10)
        assert tail < -40, name
    q = PiecewiseProfile(ProfileKind.POTENTIAL, 1.0, (0.0, 0.25, 0.5, 0.75, 1.0),
                         (2.0, 1.5, 1.0, 0.5))
    spec = spectrum_of(q, SCALES["desk"].terms, 256)
    s = born_samples(spec, replace(SCALES["desk"], prec=256))
    assert np.max(np.abs(s.values[s.r_grid <= 1.0])) < 10


def test_born_samples_conductivity_offset():
    g = PiecewiseProfile(ProfileKind.CONDUCTIVITY, 1.0, (0.0, 0.5, 1.0), (1.2, 1.0))
    spec = spectrum_of(g, FAST.terms, FAST.prec)
    s = born_samples(spec, FAST)
    # background 1 restored; far field stays near 1
    far = s.r_grid > 2.0
    assert np.max(np.abs(s.values[far] - 1.0)) < 0.05


def test_samples_to_profile_clamps_conductivity():
    r = np.linspace(0.0, 2.0, 41)
    vals = np.linspace(-0.5, 1.5, 41)
    s = RadialSamples(r, vals)
    p = samples_to_profile(s, ProfileKind.CONDUCTIVITY, 1.0, 8)
    assert min(p.values) >= EPS_FLOOR


@pytest.mark.parametrize("m", (49, 98, 103))
def test_equal_pieces_end_exactly_at_the_radius(m):
    # m * (1 / m) is 0.9999999999999999 for these m; the interior breakpoints stay j * (R / m)
    assert m * (1.0 / m) != 1.0
    g = AnalyticProfile(ProfileKind.CONDUCTIVITY, 1.0, "exp3_profile", {})
    s = RadialSamples(np.linspace(0.0, 2.0, 41), np.linspace(2.0, 1.0, 41))
    for p in (project_midpoint(g, m), samples_to_profile(s, ProfileKind.CONDUCTIVITY, 1.0, m)):
        assert p.breakpoints == tuple(j * (1.0 / m) for j in range(m)) + (1.0,)


def test_error_norms_known_case():
    r = np.linspace(0.0, 1.0, 1001)
    s = RadialSamples(r, r)
    l2, linf = error_norms(s, np.zeros_like(r), (0.0, 1.0))
    assert l2 == pytest.approx(1 / math.sqrt(3), rel=1e-4)
    assert linf == pytest.approx(1.0)


def test_support_radius_estimate():
    r = np.linspace(0.0, 10.0, 2001)
    vals = np.where(r <= 0.42, 1.0, 0.0)
    assert support_radius_estimate(RadialSamples(r, vals), 0.0) <= 0.425
    flat = RadialSamples(r, np.ones_like(r))
    with pytest.raises(DegenerateSamplesError):
        support_radius_estimate(flat, 1.0)


def test_iteration_improves_smooth_potential():
    q = AnalyticProfile(ProfileKind.POTENTIAL, 1.0, "bump", {"height": 1.0})
    pw = project_midpoint(q, FAST.pieces)
    spec = spectrum_of(pw, FAST.terms, FAST.prec)
    trace = iterate_born(ProfileKind.POTENTIAL, spec, q, n_iter=2, params=FAST)
    assert trace.l2_errors[2] < trace.l2_errors[0]
    assert len(trace.iterates) == 3


@pytest.mark.parametrize("grid_n, length_factor", ((32, 10.0), (48, 6.0)))
@pytest.mark.parametrize("pieces", (6, 300))
def test_iterates_use_four_pieces_per_sample_spacing(monkeypatch, grid_n, length_factor, pieces):
    params = SolverParams(terms=20, prec=96, pieces=pieces, grid_n=grid_n,
                          length_factor=length_factor)
    # at radius 0.7 the grid (48, 6) reads 4 R / dr = 32.00000000000001
    g = PiecewiseProfile(ProfileKind.CONDUCTIVITY, 0.7, (0.0, 0.35, 0.7), (1.5, 1.0))
    spec = spectrum_of(g, params.terms, params.prec)
    seen = []

    def recording(profile, kmax, prec):
        seen.append(profile.piece_count)
        return spectrum_of(profile, kmax, prec)

    monkeypatch.setattr(reconstruct, "spectrum_of", recording)
    iterate_born(ProfileKind.CONDUCTIVITY, spec, g, n_iter=2, params=params)
    assert seen and set(seen) == {math.ceil(4 * grid_n / length_factor)}


@pytest.mark.parametrize("field, value, message", (
    ("length_factor", 0.0, "length_factor must be positive and finite, got 0.0"),
    ("length_factor", -10.0, "length_factor must be positive and finite, got -10.0"),
    ("length_factor", math.inf, "length_factor must be positive and finite, got inf"),
    ("length_factor", math.nan, "length_factor must be positive and finite, got nan"),
    ("grid_n", 2.5, "grid_n must be an integer, got 2.5"),
    ("grid_n", 16.0, "grid_n must be an integer, got 16.0"),
    ("iterations", 1.5, "iterations must be an integer, got 1.5"),
    ("samples", 2.0, "samples must be an integer, got 2.0"),
    ("terms", 10.5, "terms must be an integer, got 10.5"),
    ("terms", -1, "terms must be at least 0, got -1"),
    ("pieces", 3.5, "pieces must be an integer, got 3.5"),
    ("pieces", 0, "pieces must be at least 1, got 0"),
    ("prec", 32, "precision must be an integer >= 64 bits, got 32"),
    ("prec", 64.5, "precision must be an integer >= 64 bits, got 64.5"),
    ("prec", 512.0, "precision must be an integer >= 64 bits, got 512.0"),
    ("seed", 1.5, "seed must be an integer, got 1.5"),
    ("seed", -1, "seed must be at least 0, got -1"),
))
def test_settings_outside_their_range_are_rejected_naming_the_field(field, value, message):
    # each used to be taken: length_factor 0 raised ZeroDivisionError in the grid,
    # -10 a GridMismatchError, inf gave samples on a NaN r-grid, and grid_n 2.5
    # raised TypeError only after the spectrum was solved; terms 10.5 raised
    # AttributeError and pieces 3.5 TypeError deep in the solve, and prec 32 was
    # taken until the first solve
    with pytest.raises(ValueError, match=f"^{message}$"):
        SolverParams(**{field: value})
    assert replace(SolverParams(), grid_n=np.int64(16)).grid_n == 16


def test_settings_keep_the_plain_ints_they_checked():
    # an np.int64 field used to be stored as it came, and json.dump of the
    # experiment manifest raised after every CSV was written
    fields = dict(terms=40, prec=256, pieces=300, grid_n=16, iterations=2, seed=7, samples=3)
    made = SolverParams(**{k: np.int64(v) for k, v in fields.items()})
    assert json.dumps(asdict(made)) == json.dumps(asdict(SolverParams(**fields)))
    assert all(type(getattr(made, k)) is int for k in fields)


@pytest.mark.parametrize("l2s, n_iterates", (
    ((1, .5, .6, .55, .7, .8, .9), 6),          # grew at steps 4 and 5
    ((1, .5, float("nan"), .6, .7, .8, .9), 6),  # NaN is neither growth nor decrease
    ((1, .9, 1.1, float("nan"), 1.2, 1.0), 6),   # a NaN between two growths resets the count
    ((1, 1, 1, 1), 4),                           # equal is not growth
    ((1, 2), 2),                                 # one growth, then n_iter ends the loop
))
def test_iteration_stops_after_two_growths_in_a_row(monkeypatch, l2s, n_iterates):
    # the stop rule on a scripted L2 trace; Linf is 10 L2 so the pairs stay aligned
    params = SolverParams(terms=4, prec=64, pieces=8, grid_n=16)
    g = PiecewiseProfile(ProfileKind.CONDUCTIVITY, 1.0, (0.0, 0.5, 1.0), (1.5, 1.0))
    spec = spectrum_of(g, params.terms, params.prec)
    script = iter(l2s)

    def scripted(s, reference, interval):
        l2 = next(script)
        return l2, 10 * l2

    monkeypatch.setattr(reconstruct, "error_norms", scripted)
    trace = iterate_born(ProfileKind.CONDUCTIVITY, spec, g, n_iter=len(l2s) - 1, params=params)
    assert len(trace.iterates) == n_iterates
    expected = list(l2s[:n_iterates])
    np.testing.assert_array_equal(trace.l2_errors, expected)
    np.testing.assert_array_equal(trace.linf_errors, [10 * v for v in expected])


_ITERATE_CASES = {
    "gamma_bump": AnalyticProfile(ProfileKind.CONDUCTIVITY, 1.0, "bump",
                                  {"height": 0.3, "offset": 1.0}),
    "q_bump": AnalyticProfile(ProfileKind.POTENTIAL, 1.0, "bump", {"height": 1.0}),
    "gamma_step": PiecewiseProfile(ProfileKind.CONDUCTIVITY, 1.0, (0.0, 0.5, 1.0), (2.0, 1.0)),
}


@pytest.mark.parametrize("name", tuple(_ITERATE_CASES))
def test_coarse_iterates_keep_the_error_trace(monkeypatch, name):
    # measured: the L2 trace moves by at most 1.8 % (gamma bump), 1.1 % (q bump)
    # and 1.4 % (gamma step) against iterates at 16 pieces per sample spacing
    truth = _ITERATE_CASES[name]
    pw = truth if isinstance(truth, PiecewiseProfile) else project_midpoint(truth, FAST.pieces)
    spec = spectrum_of(pw, FAST.terms, FAST.prec)
    coarse = iterate_born(truth.kind, spec, truth, n_iter=3, params=FAST).l2_errors
    monkeypatch.setattr(reconstruct, "ITERATE_PIECES_PER_SAMPLE", 16)
    fine = iterate_born(truth.kind, spec, truth, n_iter=3, params=FAST).l2_errors
    assert len(coarse) == len(fine)
    assert np.max(np.abs(np.subtract(coarse, fine)) / fine) < 0.025


def test_draw_cosine_potential_in_unit_ball():
    rng = np.random.default_rng(5)
    for _ in range(5):
        q = draw_cosine_potential(rng)
        norm2 = sum(c * c for c in q.params["c"])
        assert norm2 <= 1.0 + 1e-12


def test_ensemble_deterministic_and_boundary_accurate():
    params = SolverParams(terms=60, prec=192, pieces=200, grid_n=96, seed=11, samples=3)
    a = ensemble_depth_profile(1.0, params)
    b = ensemble_depth_profile(1.0, params)
    assert np.array_equal(a.mean_abs_error, b.mean_abs_error)
    near = a.r_grid >= 0.8
    deep = a.r_grid <= 0.2
    assert a.mean_abs_error[near].mean() < a.mean_abs_error[deep].mean()


@pytest.mark.parametrize("scale", (0.0, -2.0, float("nan")))
def test_ensemble_scale_must_be_positive(monkeypatch, scale):
    # -2 gave a "mean abs error" of -1.43 at r = 0 and 0 gave NaN; neither solves
    monkeypatch.setattr(reconstruct, "spectrum_of", None)
    with pytest.raises(ValueError, match="scale must be positive"):
        ensemble_depth_profile(scale, SolverParams(samples=1))


def test_ensemble_caps_precision_and_pieces(monkeypatch):
    # the paper row's 1024 bits and 10 000 pieces reach the solver as 256 and 400
    seen = []

    def failing_solve(profile, terms, prec):
        seen.append((profile.piece_count, terms, prec))
        raise ArithmeticError

    monkeypatch.setattr(reconstruct, "spectrum_of", failing_solve)
    with pytest.raises(ArithmeticError, match="all ensemble samples failed"):
        ensemble_depth_profile(1.0, replace(SCALES["paper"], samples=2))
    assert seen == [(400, 400, 256)] * 2


def test_growth_slope_tracks_support_radius():
    q = PiecewiseProfile(ProfileKind.POTENTIAL, 1.0, (0.0, 0.5, 1.0), (1.0, 0.0))
    spec = spectrum_of(q, 100, 512)
    mu = [lam - k for k, lam in enumerate(spec.lambdas)]
    slope = growth_slope(mu, (50.0, 130.0), prec=512)
    assert slope <= 0.5 * 1.05
    assert slope > 0.3


def test_growth_slope_rejects_a_zero_series():
    # log 0 would hand -inf to the fit and return nan
    with pytest.raises(ValueError, match="sums to 0 at xi = 1.0"):
        growth_slope([0, 0, 0], (1.0, 2.0), 256)


def test_born_fourier_reads_the_shared_grid():
    spec = spectrum_of(PiecewiseProfile(ProfileKind.POTENTIAL, 1.0, (0.0, 0.5, 1.0),
                                        (1.0, 0.0)), 5, 128)
    params = SolverParams(terms=5, prec=128, grid_n=32)
    assert reconstruct.born_fourier(spec, params).xi_grid is default_xi_grid(32, 10.0)
    assert reconstruct.born_fourier(spec, params, "finiteR", 2.0).xi_grid is default_xi_grid(32, 20.0)


def test_finite_radius_must_be_positive():
    # R = 0 used to reach a division by zero inside the radius map, and R = inf
    # to return the scattering transform under finiteR's name
    spec = spectrum_of(PiecewiseProfile(ProfileKind.POTENTIAL, 1.0, (0.0, 0.5, 1.0),
                                        (1.0, 0.0)), 5, 128)
    for R in (0.0, -2.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="needs a target radius R > 0"):
            born_samples(spec, FAST, "finiteR", R)
