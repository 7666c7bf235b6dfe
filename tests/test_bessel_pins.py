"""Bit-exact pins of the forward engine on Bessel-heavy potentials.

Each pin is the sha256 of the raw ``_mpf_`` tuples of the lambdas of one
potential solve in which nearly every piece has c != 0: the midpoint
projections of the experiment bumps at K = 150 (positive, annular and
oscillatory, one with a tail that reaches c ~ 1e-87), and the two-piece
cases whose outer values 1e20 and -1e16 make the two solutions of a piece
grow apart by millions of bits.  One bit moved in one lambda changes a
digest.  A change meant to move values regenerates them with
``python tests/test_bessel_pins.py`` and says why.
"""

import hashlib

import pytest

from radialborn.experiments import experiment_profiles
from radialborn.forward import potential_spectrum
from radialborn.profiles import PiecewiseProfile, ProfileKind, project_midpoint


def _bump(exp_id, name, pieces):
    return project_midpoint(experiment_profiles(exp_id)[name], pieces)


def _two_piece(c):
    return PiecewiseProfile(ProfileKind.POTENTIAL, 1.0, (0.0, 0.5, 1.0), (1.0, c))


# name: (profile builder, K, prec)
CASES = {
    "exp9_q_300": (lambda: _bump(9, "q", 300), 150, 512),
    "exp8_q_200": (lambda: _bump(8, "q", 200), 150, 512),
    "exp10_q_neg_30_200": (lambda: _bump(10, "q_neg_30", 200), 150, 512),
    "exp6_q_smooth_1_200": (lambda: _bump(6, "q_smooth_1", 200), 150, 512),
    "two_piece_1e20": (lambda: _two_piece(1e20), 30, 128),
    "two_piece_-1e16": (lambda: _two_piece(-1e16), 30, 128),
}

PINS = {
    "exp9_q_300": "e97b6de315414a73",
    "exp8_q_200": "092e645f8e0c54cb",
    "exp10_q_neg_30_200": "4b200055df4e6095",
    "exp6_q_smooth_1_200": "64aac3398ef334c0",
    "two_piece_1e20": "0eb99652caba4a72",
    "two_piece_-1e16": "2ef7585b4255948c",
}


def lambda_digest(name):
    build, K, prec = CASES[name]
    lambdas = potential_spectrum(build(), K, prec).lambdas
    return hashlib.sha256(repr(tuple(x._mpf_ for x in lambdas)).encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", CASES)
def test_bessel_heavy_lambdas_are_pinned(name):
    assert lambda_digest(name) == PINS[name]


if __name__ == "__main__":
    print("PINS =", {name: lambda_digest(name) for name in CASES})
