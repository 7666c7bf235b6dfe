import math

import numpy as np
import pytest

from radialborn.born import moment_sequence_exact
from radialborn.forward import spectrum_of
from radialborn.fourier import RadialSamples
from radialborn.profiles import AnalyticProfile, PiecewiseProfile, ProfileKind, project_midpoint
from radialborn.reconstruct import (
    EPS_FLOOR,
    DegenerateSamplesError,
    SolverParams,
    born_samples,
    draw_cosine_potential,
    ensemble_depth_profile,
    error_norms,
    growth_slope,
    iterate_born,
    samples_to_profile,
    support_radius_estimate,
)

FAST = SolverParams(terms=80, prec=192, pieces=300, grid_n=128)


def test_born_samples_small_potential_accurate():
    q = PiecewiseProfile(ProfileKind.POTENTIAL, 1.0, (0.0, 0.5, 1.0), (0.1, 0.0))
    spec = spectrum_of(q, FAST.terms, FAST.prec)
    s = born_samples(spec, FAST)
    r = s.r_grid
    keep = (np.abs(r - 0.5) > 0.06) & (r > 0.06) & (r <= 1.0)
    truth = np.where(r <= 0.5, 0.1, 0.0)
    assert np.max(np.abs(s.values - truth)[keep]) < 0.02


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


def test_draw_cosine_potential_in_unit_ball():
    rng = np.random.default_rng(5)
    for _ in range(5):
        q = draw_cosine_potential(rng)
        norm2 = sum(c * c for c in q.params["c"])
        assert norm2 <= 1.0 + 1e-12


def test_ensemble_deterministic_and_boundary_accurate():
    params = SolverParams(terms=60, prec=192, pieces=200, grid_n=96)
    a = ensemble_depth_profile(11, 3, scale=1.0, params=params)
    b = ensemble_depth_profile(11, 3, scale=1.0, params=params)
    assert np.array_equal(a.mean_abs_error, b.mean_abs_error)
    near = a.r_grid >= 0.8
    deep = a.r_grid <= 0.2
    assert a.mean_abs_error[near].mean() < a.mean_abs_error[deep].mean()


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
        growth_slope([0, 0, 0], (1.0, 2.0))
