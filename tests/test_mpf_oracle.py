"""The forward engine against the independent mpf oracle, to 1 ulp at 256 bits.

The potentials cover both signs, x past kmax + 1 on an outer piece, an outer
negative piece past its turning point and twelve pieces; the conductivities a
smooth profile and a contrast of 10^+-3.  ``tests/oracle_sweep.py`` runs a
seeded random set against the same oracle.
"""

import random

import mpmath
import pytest
from mpmath import mp

from mpf_oracle import oracle_spectrum, ulps
from radialborn.forward import spectrum_of
from radialborn.profiles import AnalyticProfile, PiecewiseProfile, ProfileKind, project_midpoint

PREC = 256


def _pot(breaks, values):
    return PiecewiseProfile(ProfileKind.POTENTIAL, 1.0, tuple(breaks), tuple(values))


def _cond(breaks, values):
    return PiecewiseProfile(ProfileKind.CONDUCTIVITY, 1.0, tuple(breaks), tuple(values))


def _twelve_pieces(seed):
    """12 pieces, |c| log-uniform in [1e-2, 1e3] with a random sign, one of them 0."""
    rng = random.Random(seed)
    values = [rng.choice((-1, 1)) * 10 ** rng.uniform(-2, 3) for _ in range(11)] + [0.0]
    rng.shuffle(values)
    cuts = sorted(rng.uniform(0.02, 0.98) for _ in range(11))
    return _pot((0.0, *cuts, 1.0), values)


CASES = {
    "pos_neg_pos": (_pot((0.0, 0.3, 0.7, 1.0), (5.0, -30.0, 2.0)), 40),
    # x = 1732 > kmax + 1 at r = 1
    "far_outer": (_pot((0.0, 0.5, 1.0), (5.0, 3e6)), 40),
    # outer negative pieces past the turning point: x = 155 at r = 1
    "neg_outer_oscillating": (_pot((0.0, 0.3, 1.0), (5.0, -2.4e4)), 40),
    "neg_three": (_pot((0.0, 0.3, 0.6, 1.0), (-5e3, 1e3, -2.4e4)), 40),
    "twelve_a": (_twelve_pieces(1), 30),
    "twelve_b": (_twelve_pieces(2), 30),
    "cond_smooth": (project_midpoint(AnalyticProfile(
        ProfileKind.CONDUCTIVITY, 1.0, "cosine_series",
        {"c": [0.2, -0.1, 0.05], "offset": 1.0}), 30), 60),
    "cond_contrast": (_cond((0.0, 0.2, 0.45, 0.7, 1.0), (1e3, 1e-3, 1e3, 2.0)), 60),
}


@pytest.mark.parametrize("name", CASES)
def test_engine_agrees_with_the_oracle_to_one_ulp(name):
    profile, K = CASES[name]
    ours = spectrum_of(profile, K, PREC).lambdas
    ref = oracle_spectrum(profile, K, PREC)
    worst = max(ulps(a, b, PREC) for a, b in zip(ours, ref))
    assert worst <= 1, (name, float(worst))


def test_oracle_reads_the_closed_form_of_a_constant_potential():
    # q = s^2 on the unit ball: lambda_k = k + s i_{k+1}(s) / i_k(s); at k = 0
    # that is s coth s - 1
    ref = oracle_spectrum(_pot((0.0, 0.4, 1.0), (9.0, 9.0)), 2, PREC)
    with mp.workprec(2 * PREC):
        exact = 3 * mpmath.coth(3) - 1
    assert ulps(ref[0], exact, PREC + 64) <= 1
