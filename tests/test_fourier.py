import math
import random

import mpmath
import numpy as np
import pytest
from mpmath import mp, mpf

from radialborn.born import FourierSamples
from radialborn.fourier import (
    GridMismatchError,
    RadialSamples,
    default_xi_grid,
    forward_radial_ft,
    inverse_radial_ft,
)
from radialborn.highprec import GUARD_BITS, to_prec
from radialborn.profiles import PiecewiseProfile, ProfileKind


def per_piece_forward_ft(f, xi_grid, prec, bg=0.0):
    """Closed-form transform evaluating both piece ends of every nonzero piece."""
    with mp.workprec(prec + GUARD_BITS):
        bp = [mpf(x) for x in f.breakpoints]
        dev = [mpf(v) - bg for v in f.values]
        vals = []
        for xi in xi_grid:
            xi = mpf(xi)
            s = mpf(0)
            for j, v in enumerate(dev):
                if v == 0:
                    continue
                a, b = bp[j], bp[j + 1]
                s += v * ((mpmath.sin(xi * b) / xi**2 - b * mpmath.cos(xi * b) / xi)
                          - (mpmath.sin(xi * a) / xi**2 - a * mpmath.cos(xi * a) / xi))
            vals.append(to_prec(4 * mpmath.pi * s / xi, prec))
    return vals


def direct_inverse(F):
    """The inverse's sine sum evaluated term by term at every r_m, as the DST's reference."""
    xi = np.asarray([float(x) for x in F.xi_grid])
    vals = np.asarray([float(v) for v in F.values])
    n = len(xi) - 1
    h_xi = xi[1] - xi[0]
    r = np.arange(n + 1) * (np.pi / h_xi / n)
    a = xi[1:] * vals[1:]
    out = np.empty(n + 1)
    out[0] = h_xi / (2 * np.pi**2) * np.sum(xi[1:] ** 2 * vals[1:])
    for m in range(1, n + 1):
        out[m] = h_xi / (2 * np.pi**2 * r[m]) * np.sum(a * np.sin(r[m] * xi[1:]))
    return out


def half_ball():
    return PiecewiseProfile(ProfileKind.POTENTIAL, 1.0, (0.0, 0.5, 1.0), (1.0, 0.0))


def test_forward_known_value():
    # F[1_B](xi) = 4 pi (sin xi - xi cos xi)/xi^3; volume 4 pi/3 at xi = 0
    ball = PiecewiseProfile(ProfileKind.POTENTIAL, 1.0, (0.0, 1.0), (1.0,))
    F = forward_radial_ft(ball, [0.0, math.pi], prec=128)
    assert float(F.values[0]) == pytest.approx(4 * math.pi / 3, rel=1e-15)
    assert float(F.values[1]) == pytest.approx(4 / math.pi, rel=1e-15)


def test_forward_background_subtraction():
    g = PiecewiseProfile(ProfileKind.CONDUCTIVITY, 1.0, (0.0, 0.5, 1.0), (2.0, 1.0))
    F = forward_radial_ft(g, [0.0], prec=128)
    assert float(F.values[0]) == pytest.approx(4 * math.pi / 3 * 0.125, rel=1e-15)


def test_forward_shares_breakpoints_without_changing_a_bit():
    rng = random.Random(5)
    bps = sorted(rng.uniform(0, 2) for _ in range(39))
    values = [1.0 if rng.random() < 0.3 else rng.uniform(0.5, 3) for _ in range(40)]
    g = PiecewiseProfile(ProfileKind.CONDUCTIVITY, 2.0, (0.0, *bps, 2.0), tuple(values))
    xi = default_xi_grid(32, 20.0)[1:]
    F = forward_radial_ft(g, xi, prec=256)
    assert list(F.values) == per_piece_forward_ft(g, xi, 256, bg=1.0)


def test_zero_input_gives_zero_output():
    xi = default_xi_grid(64, 10.0)
    F = FourierSamples(xi, tuple(0.0 for _ in xi))
    s = inverse_radial_ft(F)
    assert np.all(s.values == 0.0)


def test_inverse_linearity():
    xi = default_xi_grid(128, 10.0)
    Fa = forward_radial_ft(half_ball(), xi, prec=128)
    ball = PiecewiseProfile(ProfileKind.POTENTIAL, 1.0, (0.0, 1.0), (1.0,))
    Fb = forward_radial_ft(ball, xi, prec=128)
    mix = FourierSamples(xi, tuple(2.0 * float(x) - 0.5 * float(y)
                                                  for x, y in zip(Fa.values, Fb.values)))
    lhs = inverse_radial_ft(mix).values
    rhs = 2.0 * inverse_radial_ft(Fa).values - 0.5 * inverse_radial_ft(Fb).values
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_round_trip_interior_and_tail():
    F = forward_radial_ft(half_ball(), default_xi_grid(512, 10.0), prec=256)
    s = inverse_radial_ft(F)
    r = s.r_grid
    truth = np.where(r <= 0.5, 1.0, 0.0)
    err = np.abs(s.values - truth)
    inner = (r > 0.05) & (r < 0.45)
    assert err[inner].max() < 1e-2
    assert err[r > 0.6].max() < 1e-2


def test_round_trip_l2_error_shrinks_with_n():
    errs = {}
    for n in (256, 1024):
        F = forward_radial_ft(half_ball(), default_xi_grid(n, 10.0), prec=128)
        s = inverse_radial_ft(F)
        keep = s.r_grid <= 1.0
        truth = np.where(s.r_grid[keep] <= 0.5, 1.0, 0.0)
        diff = s.values[keep] - truth
        errs[n] = math.sqrt(np.trapezoid(diff**2, s.r_grid[keep]))
    assert errs[1024] < errs[256]


def test_origin_node_is_analytic_limit():
    xi = default_xi_grid(64, 10.0)
    F = forward_radial_ft(half_ball(), xi, prec=128)
    s = inverse_radial_ft(F)
    h = float(xi[1])
    ref = h / (2 * math.pi**2) * sum(float(x) ** 2 * float(v)
                                     for x, v in zip(xi, F.values))
    assert s.values[0] == pytest.approx(ref, rel=1e-12)


def test_grid_mismatch_rejected():
    with pytest.raises(GridMismatchError):
        inverse_radial_ft(FourierSamples((0.0, 0.3, 0.9), (1.0, 1.0, 1.0)))
    with pytest.raises(GridMismatchError):
        inverse_radial_ft(FourierSamples((0.0, 0.1), (1.0, 1.0)))


def test_doubling_L_does_not_hurt_interior():
    # fixed resolution h_xi-equivalent: N and L doubled together
    errs = {}
    for n, L in ((256, 10.0), (512, 20.0)):
        F = forward_radial_ft(half_ball(), default_xi_grid(n, L), prec=128)
        s = inverse_radial_ft(F)
        keep = (s.r_grid > 0.05) & (s.r_grid < 0.45)
        errs[L] = np.max(np.abs(s.values[keep] - 1.0))
    assert errs[20.0] <= errs[10.0] * 1.05


def test_restrict():
    s = RadialSamples(np.linspace(0, 10, 11), np.arange(11, dtype=float))
    t = s.restrict(2.0, 5.0)
    assert t.r_grid.tolist() == [2.0, 3.0, 4.0, 5.0]


def _random_profile(rng, m, R, kind):
    bps = sorted(rng.uniform(0, R) for _ in range(m - 1))
    if kind is ProfileKind.CONDUCTIVITY:
        # some pieces at the background, some adjacent pieces equal (zero jumps)
        values = [1.0 if rng.random() < 0.2 else rng.uniform(0.5, 3.0) for _ in range(m)]
    else:
        values = [0.0 if rng.random() < 0.2 else rng.uniform(-20.0, 20.0) for _ in range(m)]
    for j in range(1, m):
        if rng.random() < 0.1:
            values[j] = values[j - 1]
    return PiecewiseProfile(kind, R, (0.0, *bps, R), tuple(values))


def test_rotation_kernel_matches_the_per_piece_closed_form():
    # seeded: 1 to 2000 pieces, prec 64/256/512, R 1 and 2.5, both kinds, and
    # grids from 0, offset starts, a single node, [0, pi] and [0, 2, 4] (nonzero
    # nodes of positive binary exponent)
    rng = random.Random(6)
    cases = 0
    for m in (1, 2, 7, 40, 300, 2000):
        for prec in (64, 256, 512):
            R = rng.choice((1.0, 2.5))
            kind = rng.choice((ProfileKind.POTENTIAL, ProfileKind.CONDUCTIVITY))
            f = _random_profile(rng, m, R, kind)
            n = max(3, min(32, 6000 // m))
            shape = cases % 5
            if shape == 0:
                xi = default_xi_grid(n, 10.0 * R)
            elif shape == 1:
                xi = default_xi_grid(n + 5, 10.0 * R)[rng.randrange(1, 6):]
            elif shape == 2:
                xi = (rng.uniform(0.01, 60.0),)
            elif shape == 3:
                xi = (0.0, math.pi)
            else:
                xi = (0.0, 2.0, 4.0)
            bg = kind.background
            F = forward_radial_ft(f, xi, prec=prec)
            ref = per_piece_forward_ft(f, [x for x in xi if x != 0], prec + 64, bg=bg)
            with mp.workprec(prec + 64):
                if xi[0] == 0:  # the volume integral, the closed form's limit
                    dev = [mpf(v) - bg for v in f.values]
                    ref.insert(0, 4 * mpmath.pi / 3 * sum(
                        v * (mpf(b) ** 3 - mpf(a) ** 3)
                        for v, a, b in zip(dev, f.breakpoints, f.breakpoints[1:])))
                scale = max(abs(v) for v in ref)
                err = max(abs(a - b) for a, b in zip(F.values, ref))
            assert err <= mpmath.ldexp(scale, 2 - prec), (m, prec, R, kind, shape)
            cases += 1


def test_default_grid_is_exactly_arithmetic_with_the_float_spacing():
    for n, L in ((64, 10.0), (512, 10.0), (257, 25.0), (1000, 3.7)):
        xi = default_xi_grid(n, L)
        assert float(xi[1]) == np.pi / L
        with mp.workprec(200):
            assert all(x == j * xi[1] for j, x in enumerate(xi))


def test_inverse_r_grid_is_that_of_the_float_grid():
    for n, L in ((64, 10.0), (512, 10.0), (257, 25.0)):
        old = [j * np.pi / L for j in range(n + 1)]
        zeros = (0.0,) * (n + 1)
        new = inverse_radial_ft(FourierSamples(default_xi_grid(n, L), zeros)).r_grid
        assert np.array_equal(new, inverse_radial_ft(FourierSamples(old, zeros)).r_grid)


def test_forward_rejects_a_grid_that_is_not_exactly_arithmetic():
    with pytest.raises(GridMismatchError):
        forward_radial_ft(half_ball(), (0.0, 0.3, 0.9))
    # j * pi / L in floats is uniform to roundoff only
    with pytest.raises(GridMismatchError):
        forward_radial_ft(half_ball(), [j * np.pi / 10.0 for j in range(65)])


def test_inverse_rejects_a_grid_without_the_origin():
    F = forward_radial_ft(half_ball(), default_xi_grid(64, 10.0), prec=128)
    with pytest.raises(GridMismatchError):
        inverse_radial_ft(FourierSamples(F.xi_grid[1:], F.values[1:]))


@pytest.mark.parametrize("n", [2, 3, 33, 256, 257])
def test_dst_and_direct_paths_agree_on_odd_and_small_grids(n):
    F = forward_radial_ft(half_ball(), default_xi_grid(n, 10.0), prec=128)
    a = inverse_radial_ft(F).values
    b = direct_inverse(F)
    assert np.max(np.abs(a[:-1] - b[:-1])) <= np.max(np.abs(b)) * 2.0 ** -40
