"""The forward engine on conductivities against an mpf transfer loop.

``mpf_conductivity_spectrum`` is the reference: per piece and degree it solves
for (A, B) in u = A r^k + B r^{-(k+1)} from (u, gamma u') in big floats at
prec + 32 bits and renormalizes.  It shares none of the engine's integer
arithmetic, so agreement between the two checks both.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from radialborn.forward import conductivity_spectrum
from radialborn.highprec import GUARD_BITS, check_precision, to_prec
from radialborn.profiles import AnalyticProfile, PiecewiseProfile, ProfileKind, project_midpoint
from test_potential_engine import _renormalize

KS = (0, 1, 20, 150)
PRECS = (64, 256, 512)
RADII = (1.0, 2.5)


def mpf_conductivity_spectrum(g, kmax, prec):
    """lambda_0..lambda_kmax by transferring (u, gamma u') across pieces in mpf."""
    prec = check_precision(prec)
    with mp.workprec(prec + GUARD_BITS):
        bp = [mpf(x) for x in g.breakpoints]
        vals = [mpf(v) for v in g.values]
        nk = kmax + 1

        # innermost piece: u = (r/b)^k, state is (u, gamma u')
        b = bp[1]
        states = [(mpf(1), vals[0] * k / b) for k in range(nk)]

        for j in range(1, len(vals)):
            a, b, gam = bp[j], bp[j + 1], vals[j]
            t = a / b
            tk = mpf(1)  # t^k
            new_states = []
            for k in range(nk):
                u1a = tk                     # (a/b)^k
                v1a = gam * k * u1a / a
                u2a = 1 / (tk * t)           # (a/b)^{-(k+1)}
                v2a = -gam * (k + 1) * u2a / a
                u, v = states[k]
                det = u1a * v2a - u2a * v1a
                A = (u * v2a - v * u2a) / det
                B = (v * u1a - u * v1a) / det
                ub = A + B
                vb = gam * (A * k - B * (k + 1)) / b
                new_states.append(_renormalize(ub, vb))
                tk *= t
            states = new_states

        return [to_prec(v / u, prec) for (u, v) in states]


def _random_profile(rng, style, m, R, mp_values):
    """m pieces on [0, R], gamma in [1e-3, 1e3], adjacent contrasts up to 1e6."""
    if style == "wild":
        logs = [rng.uniform(-3, 3) for _ in range(m)]
    elif style == "alternating":
        logs = [(3 if j % 2 else -3) - rng.uniform(0, 0.01) for j in range(m)]
    else:  # smooth random walk
        logs = [rng.uniform(-1, 1)]
        for _ in range(m - 1):
            logs.append(min(3.0, max(-3.0, logs[-1] + rng.uniform(-0.05, 0.05))))
    cuts = list(itertools.accumulate(rng.uniform(0.05, 1.0) for _ in range(m)))
    if mp_values:
        with mp.workprec(300):
            values = [mpf(10) ** mpf(u) for u in logs]
            inner = [mpf(R) * c / cuts[-1] for c in cuts[:-1]]
    else:
        values = [10.0 ** u for u in logs]
        inner = [R * c / cuts[-1] for c in cuts[:-1]]
    return PiecewiseProfile(ProfileKind.CONDUCTIVITY, R, (0.0, *inner, R), tuple(values))


def _cases():
    rng = random.Random(20220531)
    combos = list(itertools.product(KS, PRECS, RADII, (False, True)))
    rng.shuffle(combos)
    # the two ends of the piece range, then 28 log-uniform piece counts
    sized = [(1, (20, 512, 2.5, False)), (200, (150, 256, 1.0, True))]
    sized += [(round(math.exp(rng.uniform(0, math.log(200)))), c) for c in combos[:28]]
    cases = []
    for i, (m, (K, prec, R, mp_values)) in enumerate(sized):
        style = ("wild", "alternating", "smooth")[i % 3]
        cases.append((_random_profile(rng, style, m, R, mp_values), K, prec))
    return cases


def test_random_profiles_match_the_mpf_transfer():
    for g, K, prec in _cases():
        ours = conductivity_spectrum(g, K, prec).lambdas
        ref = mpf_conductivity_spectrum(g, K, prec)
        assert len(ours) == K + 1
        assert ours[0] == 0
        with mp.workprec(prec + 64):
            for k, (a, b) in enumerate(zip(ours, ref)):
                tol = max(abs(b), 1) * mpf(2) ** (2 - prec)
                assert abs(a - b) <= tol, (g.piece_count, K, prec, k, a, b)


@pytest.mark.parametrize("value", [1.0, 0.3, 1e3, "1/3"])
def test_flat_conductivity_is_exact(value):
    # gamma = c on any partition: lambda_k = c k / R, rounded once
    for R, bp in ((1.0, (0.0, 1.0)), (2.5, (0.0, 0.5, 1.25, 2.0, 2.5))):
        with mp.workprec(300):
            c = mpf(1) / 3 if value == "1/3" else value
        g = PiecewiseProfile(ProfileKind.CONDUCTIVITY, R, bp, (c,) * (len(bp) - 1))
        spec = conductivity_spectrum(g, 150, 256)
        with mp.workprec(256):
            for k, lam in enumerate(spec.lambdas):
                assert lam == mp.fdiv(mp.fmul(c, k, exact=True), R)


def _exact_lambdas(breaks, values, kmax):
    """lambda_k as exact fractions for dyadic breakpoints and values: u and gamma u'
    continuous, u = A r^k + B r^{-(k+1)} on each piece."""
    out = []
    for k in range(kmax + 1):
        A, B = Fraction(1), Fraction(0)
        for j in range(1, len(values)):
            r, g0, g1 = Fraction(breaks[j]), Fraction(values[j - 1]), Fraction(values[j])
            u = A * r ** k + B * r ** -(k + 1)
            flux = g0 * (k * A * r ** k - (k + 1) * B * r ** -(k + 1))  # r gamma u'
            # A' r^k + B' r^-(k+1) = u and g1 (k A' r^k - (k+1) B' r^-(k+1)) = flux
            A = ((k + 1) * u + flux / g1) / ((2 * k + 1) * r ** k)
            B = (k * u - flux / g1) * r ** (k + 1) / (2 * k + 1)
        R, g = Fraction(breaks[-1]), Fraction(values[-1])
        out.append(g * (k * A * R ** k - (k + 1) * B * R ** -(k + 1))
                   / (R * (A * R ** k + B * R ** -(k + 1))))
    return out


@pytest.mark.parametrize("breaks, values", [((0.0, 0.5, 1.0), (1.0, 2.0 ** 40)),
                                            ((0.0, 0.25, 0.75, 1.0), (2.0 ** -30, 3.0, 0.5)),
                                            ((0.0, 0.5, 1.0), (2.0 ** 100, 1.0))])
def test_dyadic_contrasts_round_the_exact_value_once(breaks, values):
    # t = (a/b)^{2k+1} and every gamma_j are exact here, so nothing but the
    # final division may round
    g = PiecewiseProfile(ProfileKind.CONDUCTIVITY, 1.0, breaks, values)
    ours = conductivity_spectrum(g, 5, 64).lambdas
    with mp.workprec(64):
        assert list(ours) == [mp.fdiv(x.numerator, x.denominator)
                              for x in _exact_lambdas(breaks, values, 5)]


@pytest.mark.parametrize("exponent", (40, 100))
def test_high_contrast_keeps_every_bit(exponent):
    # V / U reaches about k 2^exponent; the state keeps F bits of U regardless
    g = PiecewiseProfile(ProfileKind.CONDUCTIVITY, 1.0, (0.0, 0.3, 0.7, 1.0),
                         (1.0, 2.0 ** exponent, 3.0))
    g_outer = PiecewiseProfile(ProfileKind.CONDUCTIVITY, 1.0, (0.0, 0.3, 1.0),
                               (1.0, 1.7 * 2.0 ** exponent))
    for profile in (g, g_outer):
        ours = conductivity_spectrum(profile, 150, 64).lambdas
        ref = mpf_conductivity_spectrum(profile, 150, 64)
        with mp.workprec(128):
            for k, (a, b) in enumerate(zip(ours, ref)):
                assert abs(a - b) <= max(abs(b), 1) * mpf(2) ** -62, (exponent, k, a, b)


def _benchmark_shapes(rng):
    """The conductivity shapes of the forward benchmark: (profile, prec) at K = 150."""
    kind = ProfileKind.CONDUCTIVITY
    r1 = rng.uniform(0.3, 0.7)
    step = PiecewiseProfile(kind, 1.0, (0.0, r1, 1.0), (rng.uniform(0.3, 3.0), 1.0))
    c = [rng.uniform(-0.25, 0.25) / j for j in range(1, 5)]
    smooth = AnalyticProfile(kind, 1.0, "cosine_series", {"c": c, "offset": 1.0})
    return [(step, 512), (project_midpoint(smooth, 120), 256)]


@pytest.mark.parametrize("seed", (1, 101))
def test_benchmark_shapes_are_bit_identical_to_the_mpf_transfer(seed):
    for g, prec in _benchmark_shapes(random.Random(seed)):
        ours = conductivity_spectrum(g, 150, prec).lambdas
        ref = mpf_conductivity_spectrum(g, 150, prec)
        assert [x._mpf_ for x in ours] == [x._mpf_ for x in ref], g.piece_count
