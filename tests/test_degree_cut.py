"""The per-piece degree cut of the forward transfer.

Degree k skips the pieces inside the depth it cannot see at F bits (see the
``radialborn.forward`` docstring).  The uncut transfer, the test-side oracle
here, is the same engine with every limit at kmax.
"""

import random

import mpmath
import pytest
from mpmath import mp, mpf

import test_conductivity_engine
import test_potential_engine
from mpf_oracle import oracle_spectrum, ulps
from radialborn import forward
from radialborn.forward import spectrum_of
from radialborn.highprec import GUARD_BITS, finite_dyadic
from radialborn.profiles import PiecewiseProfile, ProfileKind


def degree_limits(p, kmax, prec):
    """The engine's per-piece limits [k_0, ..., k_{m-1}] for a solve at prec bits."""
    potential = p.kind is ProfileKind.POTENTIAL
    F = prec + GUARD_BITS + max(p.piece_count, kmax + 1).bit_length()
    with mp.workprec(F):
        dy = [finite_dyadic(x, "breakpoint") for x in p.breakpoints]
        flat = [finite_dyadic(1 if potential else v, "value") for v in p.values]
    with mp.workprec(prec + GUARD_BITS):
        bessel = forward._bessel_runs([mpf(v)._mpf_ for v in p.values],
                                      [mpf(x)._mpf_ for x in p.breakpoints]) if potential else None
    return forward._degree_limits(kmax, F, dy, flat, bessel)


def uncut(monkeypatch, p, kmax, prec):
    with monkeypatch.context() as m:
        m.setattr(forward, "_degree_limits", lambda kmax, F, dy, *_: [kmax] * (len(dy) - 1))
        return spectrum_of(p, kmax, prec).lambdas


def _pot(breaks, values):
    return PiecewiseProfile(ProfileKind.POTENTIAL, 1.0, tuple(breaks), tuple(values))


# the forward benchmark's layered potential and smooth conductivity at seed 1, K = 150
POT_LAYERED, POT_PREC = test_potential_engine._benchmark_shapes(random.Random(1))[-1]
COND_SMOOTH, COND_PREC = test_conductivity_engine._benchmark_shapes(random.Random(1))[-1]


def test_limits_of_the_layered_potential_are_pinned():
    limits = degree_limits(POT_LAYERED, 150, POT_PREC)
    assert limits == [52, 64, 74, 84, 93, 102, 111, 120, 130, 140] + [150] * 30


def test_limits_of_the_smooth_conductivity_are_pinned():
    limits = degree_limits(COND_SMOOTH, 150, COND_PREC)
    assert limits == [21, 25, 28, 30, 33, 35, 36, 38, 40, 42, 44, 45, 47, 49, 50, 52, 54, 55,
                      57, 58, 60, 62, 63, 65, 67, 69, 70, 72, 74, 76, 78, 80, 82, 83, 85, 87,
                      90, 92, 94, 96, 98, 100, 103, 105, 108, 110, 113, 115, 118, 121, 123,
                      126, 129, 132, 136, 139, 142, 145, 149] + [150] * 61


@pytest.mark.parametrize("profile, prec", [(POT_LAYERED, POT_PREC), (COND_SMOOTH, COND_PREC)],
                         ids=("pot_layered", "cond_smooth"))
def test_the_cut_keeps_every_bit_of_the_uncut_transfer(monkeypatch, profile, prec):
    ours = spectrum_of(profile, 150, prec).lambdas
    assert [x._mpf_ for x in ours] == [x._mpf_ for x in uncut(monkeypatch, profile, 150, prec)]


@pytest.mark.parametrize("breaks, values", [
    ((0.0, 0.3, 1.0), (5.0, -2.4e4)),
    ((0.0, 0.3, 0.6, 1.0), (-5e3, 1e3, -2.4e4)),
], ids=("pos_neg", "neg_pos_neg"))
def test_an_outer_negative_piece_past_the_turning_point_keeps_every_degree(breaks, values):
    # x = sqrt(2.4e4) = 154.9 > kmax on the outer piece: no degree is cut anywhere
    assert degree_limits(_pot(breaks, values), 150, 256) == [150] * len(values)


def test_a_negative_piece_keeps_the_degrees_below_its_x(monkeypatch):
    # x = sqrt(3600) * 1 = 60 on the outer piece: degrees below 60 cross every
    # piece, and the higher ones skip the depth they cannot see, with every bit
    # of the uncut transfer
    q = _pot([j / 20 for j in range(21)], [30.0] * 19 + [-3600.0])
    limits = degree_limits(q, 150, 256)
    assert min(limits) == 59 and limits[-1] == 150
    ours = spectrum_of(q, 150, 256).lambdas
    assert [x._mpf_ for x in ours] == [x._mpf_ for x in uncut(monkeypatch, q, 150, 256)]


def _near_resonant_core(k, depth):
    """(c, 1) on (0, depth, 1], with c < 0 such that degree k's regular solution
    leaves the core within 2^-100 of the outer piece's singular one.

    There r u'/u = k - x j_{k+1}(x) / j_k(x) of the core equals
    k - x kk_{k+1}(x) / kk_k(x) of the outer piece at r = depth, which puts the
    core's x just above the first zero of j_{k-1}.  So degree k sees the core far
    below the depth that (depth / R)^{2k+1} alone allows."""
    half = mpf(1) / 2
    with mp.workprec(500):
        y_sing = k - depth * mpmath.besselk(k + 3 * half, depth) / mpmath.besselk(k + half, depth)
        def gap(x):
            return k - x * mpmath.besselj(k + 3 * half, x) / mpmath.besselj(k + half, x) - y_sing

        x = mpmath.findroot(gap, mpmath.besseljzero(k - half, 1))
        c = -(x * (1 + mpf(2) ** -100) / depth) ** 2
    with mp.workprec(280):
        return _pot((0.0, depth, 1.0), (+c, 1.0))


def test_an_inner_negative_piece_past_the_turning_point_is_not_cut(monkeypatch):
    # x = 24.9 > 20 on the inner piece: the guard keeps every degree there
    q = _near_resonant_core(20, 2.0 ** -8)
    assert degree_limits(q, 20, 256) == [20, 20]
    ours = spectrum_of(q, 20, 256).lambdas
    ref = oracle_spectrum(q, 20, 256)
    assert max(ulps(a, b, 256) for a, b in zip(ours, ref)) <= 1
    # a cut on depth alone would start degree 20 outside the core, since
    # (2^-8)^41 = 2^-328 < 2^-(F + 8), and miss lambda_20 by about 2^24 ulp
    with monkeypatch.context() as m:
        m.setattr(forward, "_degree_limits", lambda kmax, *_: [kmax - 1, kmax])
        depth_only = spectrum_of(q, 20, 256).lambdas
    assert ulps(depth_only[20], ref[20], 256) > 2 ** 20


@pytest.mark.parametrize("kind, values", [
    (ProfileKind.POTENTIAL, (1e6, 3.0, 0.0)), (ProfileKind.CONDUCTIVITY, (5.0, 0.5, 1.0)),
], ids=("potential", "conductivity"))
def test_a_piece_no_degree_can_see_is_skipped(monkeypatch, kind, values):
    # below 2^-(F + 9) even degree 0 cannot see a piece: it runs no degree step
    # and, on a Bessel piece, no ladder
    p = PiecewiseProfile(kind, 1.0, (0.0, 1e-100, 0.5, 1.0), values)
    limits = degree_limits(p, 40, 256)
    assert limits[0] == -1 and limits[1:] == [40, 40]
    ours = spectrum_of(p, 40, 256).lambdas
    assert [x._mpf_ for x in ours] == [x._mpf_ for x in uncut(monkeypatch, p, 40, 256)]
    ref = oracle_spectrum(p, 40, 256)
    assert max(ulps(a, b, 256) for a, b in zip(ours, ref)) <= 1


@pytest.mark.parametrize("depth", [500, 20000])
def test_a_core_below_the_float_range_keeps_its_guard_in_the_cut(monkeypatch, depth):
    # b = 2^-20000 is 0 as a float and |c| inf, so the guard and S read in floats
    # were nan, no k passed k >= nan and no degree was ever cut ([60, 60, 60]); read
    # from the exact x^2 = |c| b^2 = 1600, the guard is 40 at either depth
    with mp.workprec(64):
        b = mpf(2) ** -depth
        q = _pot((0.0, b, 0.5, 1.0), (-(40 / b) ** 2, 0.0, 3.0))
    seen, limits = [], forward._degree_limits

    def recorded(*args):
        seen.append(limits(*args))
        return seen[-1]

    monkeypatch.setattr(forward, "_degree_limits", recorded)
    ours = spectrum_of(q, 60, 64).lambdas
    assert seen == [[39, 60, 60]]
    ref = oracle_spectrum(q, 60, 64)
    assert max(ulps(a, b, 64) for a, b in zip(ours, ref)) <= 1
