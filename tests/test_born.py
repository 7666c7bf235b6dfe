"""Born series, moment sequences and the Born Fourier transforms.

``mpf_series_L_grid`` is the reference evaluator: the term-by-term big-float
loop (c_k times (xi/2)^{2k} times mu_k at prec + 32 bits) that the fixed-point
series kernel replaced.  Its coefficients come from the general-dimension
formula ``gamma_coefficients`` at d = 3, not from the code under test.
"""

import math
import random
import warnings

import mpmath
import pytest
from mpmath import mp, mpf

from radialborn.born import (
    born_conductivity_fourier,
    born_potential_fourier,
    eval_series_L,
    eval_series_L_grid,
    moment_sequence_exact,
    series_coefficients,
    target_radius,
)
from radialborn.forward import (
    DtnSpectrum,
    TransferDenominatorError,
    raw_scaled_shifts,
    spectrum_of,
)
from radialborn.fourier import RadialSamples, default_xi_grid
from radialborn.highprec import GUARD_BITS, to_prec
from radialborn.profiles import PiecewiseProfile, ProfileKind

import numpy as np


def gamma_coefficients(kmax, d):
    """2 pi^{d/2} (-1)^k / (k! Gamma(k + d/2)), k = 0..kmax, at the working precision."""
    return [2 * mpmath.pi ** (mpf(d) / 2) * (-1) ** k
            / (mpmath.factorial(k) * mpmath.gamma(k + mpf(d) / 2)) for k in range(kmax + 1)]


def mpf_series_L_grid(mu, xi_grid, prec=1024):
    """sum_k c_k (xi/2)^{2k} mu_k term by term in big floats at prec + GUARD_BITS."""
    with mp.workprec(prec + GUARD_BITS):
        coeffs = gamma_coefficients(len(mu) - 1, 3)
        mu = [mpf(m) for m in mu]
        out = []
        for xi in xi_grid:
            x2 = (mpf(xi) / 2) ** 2
            p, s = mpf(1), mpf(0)
            for c, m in zip(coeffs, mu):
                s += c * p * m
                p *= x2
            out.append(to_prec(s, prec))
    return out


def reference_series(mu, xi_grid, prec):
    """(sum_k t_k, sum_k |t_k|) per node, t_k = c_k (xi/2)^{2k} mu_k, at prec + 256 bits."""
    with mp.workprec(prec + 256):
        ct = [c * mpf(m) for c, m in zip(gamma_coefficients(len(mu) - 1, 3), mu)]
        out = []
        for xi in xi_grid:
            x2 = (mpf(xi) / 2) ** 2
            p, s, a = mpf(1), mpf(0), mpf(0)
            for c in ct:
                t = c * p
                s += t
                a += abs(t)
                p *= x2
            out.append((s, a))
    return out


def _random_mu(rng, K):
    """Decaying moments with random signs, zeros and tiny entries mixed in."""
    mu = []
    with mp.workprec(300):
        for k in range(K + 1):
            kind = rng.random()
            if kind < 0.15:
                mu.append(mpf(0) if rng.random() < 0.5 else 0.0)
            elif kind < 0.25:
                mu.append(mpf(2) ** -rng.randint(300, 3000) * rng.uniform(-1, 1))
            elif kind < 0.6:
                mu.append(rng.uniform(-1, 1) * 0.5 ** (2 * k + 3) / (2 * k + 3))
            else:
                mu.append(mpf(rng.uniform(-1, 1)) * mpf(rng.uniform(0.5, 1.0)) ** (2 * k)
                          / mpf(3) ** rng.randint(0, 40))
    return mu


def _growing_mu(rng, K):
    """Terms near (y/4000)^k, y = (xi/2)^2: the high k are negligible at small xi
    and dominate near xi = 160, so the kernel's term cut-off engages at one end of
    the grid and not at the other."""
    with mp.workprec(300):
        return [rng.choice((-1, 1)) * mpf(rng.uniform(0.5, 1)) * mpmath.factorial(k)
                * mpmath.gamma(k + mpf(1.5)) / mpf(4000) ** k for k in range(K + 1)]


def _two_step_grid():
    """j h, j = 0..512, and j 3h/2, j = 1..341, h = pi/10, exact and sorted."""
    h = default_xi_grid(1, 10.0)[1]
    with mp.workprec(80):
        return sorted(set(default_xi_grid(512, 10.0)) | {j * 3 * h / 2 for j in range(1, 342)})


def _half_ulp(v, prec):
    sign, man, exp, bc = v._mpf_
    return mpmath.ldexp(mpf(1), exp + bc - prec - 1) if man else mpf(0)


def indicator(alpha, kind=ProfileKind.POTENTIAL, value=1.0):
    if alpha == 1.0:
        return PiecewiseProfile(kind, 1.0, (0.0, 1.0), (value,))
    bg = kind.background
    return PiecewiseProfile(kind, 1.0, (0.0, alpha, 1.0), (value + bg, bg))


def test_series_coefficients_match_direct_formula():
    with mp.workprec(300):
        coeffs = series_coefficients(40, 256)
        ref = gamma_coefficients(40, 3)
        for k in (0, 1, 7, 25, 40):
            assert abs(coeffs[k] - ref[k]) <= abs(ref[k]) * mpf(2) ** -245
    # every entry within 2^-(P + GUARD_BITS - 4) of 4 pi (-1)^k 4^k / (2k+1)! at 2P bits
    for P in (256, 512):
        coeffs = series_coefficients(150, P)
        with mp.workprec(2 * P):
            for k, c in enumerate(coeffs):
                ref = 4 * mpmath.pi * (-4) ** k / mpmath.factorial(2 * k + 1)
                assert abs(c - ref) <= abs(ref) * mpf(2) ** -(P + GUARD_BITS - 4), (P, k)


def test_series_on_indicator_moments_matches_transform():
    # F[1_B](xi) = 4 pi (sin xi - xi cos xi) / xi^3
    sigma = moment_sequence_exact(indicator(1.0), 120, prec=256)
    with mp.workprec(300):
        for xi in (mpf(1), mpmath.pi, mpf(10)):
            ref = 4 * mpmath.pi * (mpmath.sin(xi) - xi * mpmath.cos(xi)) / xi**3
            val = eval_series_L(sigma, xi, prec=256)
            assert abs(val - ref) < mpf(10) ** -40


def test_series_at_zero_is_volume_integral():
    sigma = moment_sequence_exact(indicator(0.5), 5, prec=128)
    with mp.workprec(160):
        val = eval_series_L(sigma, 0, prec=128)
        ref = 4 * mpmath.pi * mpf("0.5") ** 3 / 3
        assert abs(val - ref) < mpf(10) ** -30


def test_moment_sequence_subtracts_background():
    g = indicator(0.5, ProfileKind.CONDUCTIVITY, 1.0)  # gamma = 2 inside B_1/2
    sigma = moment_sequence_exact(g, 3, prec=128)
    with mp.workprec(160):
        for k in range(4):
            ref = mpf("0.5") ** (2 * k + 3) / (2 * k + 3)
            assert abs(sigma[k] - ref) < mpf(10) ** -30


def moments_from_samples(s, kmax):
    """Trapezoidal moments int r^{2k+2} v dr of sampled radial data (double precision)."""
    r = np.asarray(s.r_grid, dtype=float)
    v = np.asarray(s.values, dtype=float)
    return [float(np.trapezoid(v * r ** (2 * k + 2), r)) for k in range(kmax + 1)]


def test_moments_from_samples_agrees_with_exact():
    q = indicator(0.5)
    r = np.linspace(0.0, 1.0, 4001)
    vals = np.where(r <= 0.5, 1.0, 0.0)
    approx = moments_from_samples(RadialSamples(r, vals), 3)
    exact = [float(s) for s in moment_sequence_exact(q, 3, prec=128)]
    # trapezoid rule puts half a cell of mass on the wrong side of the jump,
    # a relative bias of (2k+3) h for 1_{B_{1/2}} with grid spacing h
    for k, (a, e) in enumerate(zip(approx, exact)):
        assert a == pytest.approx(e, rel=(2 * k + 3) * 3e-4)


def test_potential_unit_and_finiteR1_agree_bitwise():
    q = indicator(0.5)
    spec = spectrum_of(q, 40, 256)
    xi = [0.0, 1.0, 7.5]
    a = born_potential_fourier(spec, xi, mode="unit", prec=256)
    b = born_potential_fourier(spec, xi, mode="finiteR", R=1.0, prec=256)
    assert a.values == b.values


def test_finite_radius_modes_from_any_radius():
    # a radius-2.5 conductivity supported in B_1.9: finiteR at its own radius is
    # unit mode bit for bit, and finiteR at R = 4 matches unit mode of the
    # radius-4 solve
    def solve(R):
        return spectrum_of(PiecewiseProfile(ProfileKind.CONDUCTIVITY, R, (0.0, 0.7, 1.9, R),
                                            (3.0, 0.2, 1.0)), 40, 256)
    xi = [0.0, 0.5, 2.0]
    spec = solve(2.5)
    unit = born_conductivity_fourier(spec, xi, mode="unit", prec=256)
    assert born_conductivity_fourier(spec, xi, mode="finiteR", R=2.5, prec=256).values == unit.values
    far = born_conductivity_fourier(spec, xi, mode="finiteR", R=4.0, prec=256)
    direct = born_conductivity_fourier(solve(4.0), xi, mode="unit", prec=256)
    with mp.workprec(300):
        for a, b in zip(far.values, direct.values):
            assert abs(a - b) <= abs(b) * mpf(2) ** -200


def test_zero_scattering_denominator_raises_with_its_degree():
    # lambda_0 = -1 on the unit ball: lambda_0 + 0 + 1 = 0 in the scattering weight
    spec = DtnSpectrum(ProfileKind.POTENTIAL, 1.0, (mpf(-1), mpf(1)), 128)
    with pytest.raises(TransferDenominatorError) as exc:
        born_potential_fourier(spec, [0.0, 1.0], mode="scattering", prec=128)
    assert exc.value.k == 0


def test_conductivity_zero_frequency_limit():
    # xi = 0 value is the k = 1 term: (4 pi / 3) (lambda_1 - 1) for d = 3
    g = PiecewiseProfile(ProfileKind.CONDUCTIVITY, 1.0, (0.0, 0.5, 1.0), (2.0, 1.0))
    spec = spectrum_of(g, 40, 256)
    F = born_conductivity_fourier(spec, [0.0], mode="unit", prec=256)
    with mp.workprec(300):
        ref = 4 * mpmath.pi / 3 * (mpf(spec.lambdas[1]) - 1)
        assert abs(mpf(F.values[0]) - ref) <= abs(ref) * mpf(2) ** -245


def moment_form_series(spec, xi_grid, prec):
    """L(nu; xi) with the Hausdorff entries nu_k = mu_{k+1} / ((k+1)(2k+3)) of the unit weights."""
    mu = [mp.make_mpf(v) for v in raw_scaled_shifts(spec, spec.radius, prec)]
    with mp.workprec(prec + GUARD_BITS):
        nu = [mu[k + 1] / ((k + 1) * (2 * k + 3)) for k in range(spec.kmax)]
    return eval_series_L_grid(nu, xi_grid, prec)


def test_conductivity_moment_form_equals_unit_mode():
    # the unit ball and a ball of radius 2.5, where moment form must use the
    # spectrum's radius as unit mode does; the moment-form sum is built here
    specs = [spectrum_of(PiecewiseProfile(ProfileKind.CONDUCTIVITY, 1.0, (0.0, 0.5, 1.0),
                                          (2.0, 1.0)), 60, 256),
             spectrum_of(PiecewiseProfile(ProfileKind.CONDUCTIVITY, 2.5, (0.0, 0.7, 1.9, 2.5),
                                          (3.0, 0.2, 1.0)), 40, 256)]
    xi = [0.0, 2.0, 5.0, 12.0]
    for spec in specs:
        a = born_conductivity_fourier(spec, xi, mode="unit", prec=256)
        b = born_conductivity_fourier(spec, xi, mode="moment_form", prec=256)
        assert a.values == b.values
        with mp.workprec(300):
            for va, vm in zip(a.values, moment_form_series(spec, xi, 256).values):
                assert abs(mpf(va) - mpf(vm)) <= abs(mpf(va)) * mpf(2) ** -128


def test_target_radius_per_mode():
    g = DtnSpectrum(ProfileKind.CONDUCTIVITY, mpf(2), (mpf(0), mpf(1)), 128)
    q = DtnSpectrum(ProfileKind.POTENTIAL, mpf(2), (mpf(0), mpf(1)), 128)
    for spec in (g, q):
        assert target_radius(spec, "unit", None) == 2
        assert target_radius(spec, "finiteR", 3.5) == 3.5
        assert target_radius(spec, "scattering", None) == mpmath.inf
        for R in (None, 0, -1.0, math.nan, math.inf, mpmath.inf):
            with pytest.raises(ValueError, match="needs a target radius R > 0"):
                target_radius(spec, "finiteR", R)
        assert target_radius(spec, "finiteR", mpf(2) ** 3000) == mpf(2) ** 3000
        with pytest.raises(ValueError, match="unknown mode"):
            target_radius(spec, "Unit", None)
    assert target_radius(g, "moment_form", None) == 2
    with pytest.raises(ValueError, match="moment_form mode applies to conductivity spectra"):
        target_radius(q, "moment_form", None)


def test_potential_conductivity_index_shift_identity():
    # -2 L(lambda_k - k; xi) / xi^2 equals the conductivity unit-mode series
    # when both are fed the same eigenvalue shifts
    q = indicator(0.5, value=0.5)
    spec = spectrum_of(q, 60, 256)
    with mp.workprec(300):
        mu = [mpf(lam) - k for k, lam in enumerate(spec.lambdas)]
        xi = mpf(3)
        lhs = -2 * eval_series_L(mu, xi, prec=256) / xi**2
        # reuse the conductivity evaluator on a synthetic spectrum with the
        # same shifts (lambda_0 = 0 so no warning)
        from radialborn.forward import DtnSpectrum
        synth = DtnSpectrum(ProfileKind.CONDUCTIVITY, mpf(1), tuple(mpf(k) + m for k, m in enumerate(mu)), 256)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # synthetic lambda_0 is nonzero
            rhs = born_conductivity_fourier(synth, [float(xi)], mode="unit", prec=256)
        # identity holds modulo the k = 0 term of the potential series
        c0_term = eval_series_L([mu[0]] + [mpf(0)] * 60, xi, prec=256)
        assert abs((lhs + 2 * c0_term / xi**2) - mpf(rhs.values[0])) < mpf(10) ** -50


def test_conductivity_needs_lambda_1_in_every_mode():
    from radialborn.forward import DtnSpectrum
    bare = DtnSpectrum(ProfileKind.CONDUCTIVITY, mpf(1), (mpf(0),), 128)
    for mode in ("unit", "scattering", "moment_form"):
        with pytest.raises(ValueError, match="lambda_1"):
            born_conductivity_fourier(bare, [0.0, 1.0], mode=mode, prec=128)


def test_lambda0_warning_for_nonzero_boundary():
    from radialborn.forward import DtnSpectrum
    bad = DtnSpectrum(ProfileKind.CONDUCTIVITY, mpf(1),
                      (mpf("0.2"), mpf("1.1")), 128)
    with pytest.warns(UserWarning, match="lambda_0"):
        born_conductivity_fourier(bad, [0.0], mode="unit", prec=128)


def eigenvalue_moment_residual(spec, q):
    """lambda_k - k - sigma_k[q] on the unit ball, k = 0..K."""
    sigma = moment_sequence_exact(q, spec.kmax, spec.prec)
    with mp.workprec(spec.prec + GUARD_BITS):
        return [to_prec(mpf(lam) - k - s, spec.prec) for k, (lam, s) in enumerate(zip(spec.lambdas, sigma))]


def test_residual_quadratic_scaling():
    # residual(t q) ~ t^2: ratio of residuals at t and t/2 tends to 4
    base = 0.1
    res = {}
    for t in (base, base / 2):
        q = indicator(0.5, value=t)
        spec = spectrum_of(q, 10, 256)
        r = eigenvalue_moment_residual(spec, q)
        res[t] = abs(r[2])
    ratio = float(res[base] / res[base / 2])
    assert ratio == pytest.approx(4.0, rel=0.1)


def test_mode_validation():
    q = indicator(0.5)
    spec = spectrum_of(q, 5, 128)
    with pytest.raises(ValueError):
        born_potential_fourier(spec, [0.0], mode="bogus", prec=128)
    with pytest.raises(ValueError):
        born_potential_fourier(spec, [0.0], mode="finiteR", prec=128)  # R missing
    g = indicator(0.5, ProfileKind.CONDUCTIVITY)
    gspec = spectrum_of(g, 5, 128)
    with pytest.raises(ValueError):
        born_potential_fourier(gspec, [0.0], prec=128)
    # the forward engine solves 3-D spectra only
    with pytest.raises(ValueError, match="d = 3"):
        born_potential_fourier(spec, [0.0], d=2, prec=128)
    with pytest.raises(ValueError, match="d = 3"):
        born_conductivity_fourier(gspec, [0.0], d=2, prec=128)


@pytest.mark.parametrize("K", (0, 1, 20, 150))
@pytest.mark.parametrize("prec", (64, 256, 512))
def test_series_kernel_and_oracle_within_the_bound(K, prec):
    """Every node within 2^(bit_length(K) + 2 - prec - 32) sum|t_k| + half an ulp."""
    rng = random.Random(1000 * K + prec)
    powers = [2.0 ** e for e in range(-2, 8)]  # y = 2^(2e - 2): mantissa 1, no Horner shift
    for trial in range(4):
        if trial < 3:
            mu = _random_mu(rng, K)
            floats = [0.0, 160.0, 159.9] + [rng.uniform(0, 161) for _ in range(5)] + powers
            with mp.workprec(300):
                wide = [mpf(0), mpf(160) - mpf(2) ** -290] + [
                    mpf(rng.uniform(0, 160)) + mpf(rng.random()) * mpf(2) ** -250 for _ in range(5)]
            grids = (floats, wide)
        else:
            mu = _growing_mu(rng, K)
            grid = default_xi_grid(512, 10.0)
            # a slice (no node 1), the negated grid, and the union of steps h and
            # 3h/2, whose nodes' gcd h/2 is below both steps
            grids = (grid, grid[100:], [-x for x in grid], _two_step_grid())
        for grid in grids:
            got = eval_series_L_grid(mu, grid, prec=prec).values
            oracle = mpf_series_L_grid(mu, grid, prec=prec)
            for xi, g, o, (ref, abs_sum) in zip(grid, got, oracle, reference_series(mu, grid, prec)):
                with mp.workprec(prec + 256):
                    tol = mpmath.ldexp(abs_sum, K.bit_length() + 2 - prec - GUARD_BITS)
                    assert abs(g - ref) <= tol + _half_ulp(g, prec), (trial, xi)
                    assert abs(o - ref) <= tol + _half_ulp(o, prec), (trial, xi)


def test_series_values_do_not_depend_on_node_order():
    # the moments of 1_{B_0.7} cancel by up to 2^80 near xi = 80, so the bits a
    # node's schedule leaves survive the rounding to prec
    mu = moment_sequence_exact(indicator(0.7), 150, prec=256)
    grid = list(default_xi_grid(256, 10.0))
    shuffled = grid[:]
    random.Random(7).shuffle(shuffled)
    ordered = dict(zip(grid, eval_series_L_grid(mu, grid, prec=256).values))
    for xi, v in zip(shuffled, eval_series_L_grid(mu, shuffled, prec=256).values):
        assert v._mpf_ == ordered[xi]._mpf_, xi


def test_series_at_zero_is_the_rounded_first_term():
    mu = [mpf(1) / 3, mpf(-7), mpf(2) ** 900]
    with mp.workprec(256 + GUARD_BITS):
        first = series_coefficients(2, 256 + GUARD_BITS)[0] * mu[0]
    assert eval_series_L(mu, 0.0, prec=256) == to_prec(first, 256)
    assert eval_series_L_grid([0, 0], [0.0, 5.0], prec=128).values == (0, 0)


def test_out_of_range_inputs_raise():
    # beyond 2^(2^50) the kernel's float64 exponent estimates would lose bits
    with pytest.raises(ValueError, match="out of range"):
        eval_series_L([1, -1, mpf(1) / 3], 3 * mpf(2) ** (2**62), prec=64)
    with pytest.raises(ValueError, match="out of range"):
        eval_series_L([1, mpf(2) ** -(2**51)], 1.0, prec=64)
    assert eval_series_L([1, mpf(2) ** -(2**51)], 0.0, prec=64) == eval_series_L([1], 0.0, prec=64)
    # J_n is exact, so nodes 2^22 binary orders apart would make it megabytes long
    with pytest.raises(ValueError, match="out of range"):
        eval_series_L_grid([1, -1], [mpf(2) ** -(2**22), 1.0], prec=64)


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf, mpmath.nan, mpmath.inf, -mpmath.inf))
def test_non_finite_inputs_raise(bad):
    with pytest.raises(ValueError, match="non-finite"):
        eval_series_L_grid([1, bad, 2], [0.0, 1.0, 2.0], prec=128)
    with pytest.raises(ValueError, match="non-finite"):
        eval_series_L_grid([1, 2], [1.0, bad, 2.0], prec=128)
    with pytest.raises(ValueError, match="non-finite"):
        eval_series_L([1, bad], 1.0, prec=128)
    with pytest.raises(ValueError, match="non-finite"):
        eval_series_L([1, 2], bad, prec=128)
