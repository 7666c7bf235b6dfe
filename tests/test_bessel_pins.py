"""Bit-exact pins of the forward engine on Bessel-heavy potentials.

Each pin is the sha256 of the raw ``_mpf_`` tuples of the lambdas of one
potential solve in which nearly every piece has c != 0: the midpoint
projections of the experiment bumps at K = 150 (positive, annular and
oscillatory, one with a tail that reaches c ~ 1e-87), the first two members
of experiment 7's ensemble at its seed (400 pieces at 256 bits; the first is
positive throughout, the second has pieces of both signs), and the
two-piece cases: outer values 1e20 and -1e16 make the two solutions of a
piece grow apart by millions of bits, and 1e9 and -1e9 start the regular
ladder of the outer piece from mpmath values, the i ladder and the j ladder,
at K = 150 and 512 bits.  One bit moved in one lambda changes a
digest.  A change meant to move values regenerates them with
``python tests/test_bessel_pins.py`` and says why.
"""

import hashlib

import numpy as np
import pytest

from radialborn.experiments import experiment_profiles
from radialborn.forward import potential_spectrum
from radialborn.profiles import PiecewiseProfile, ProfileKind, project_midpoint
from radialborn.reconstruct import draw_cosine_potential


def _bump(exp_id, name, pieces):
    return project_midpoint(experiment_profiles(exp_id)[name], pieces)


def _ensemble_member(index):
    rng = np.random.default_rng(1234)
    for _ in range(index):
        draw_cosine_potential(rng)
    return project_midpoint(draw_cosine_potential(rng), 400)


def _two_piece(inner, outer):
    return PiecewiseProfile(ProfileKind.POTENTIAL, 1.0, (0.0, 0.5, 1.0), (inner, outer))


# name: (profile builder, K, prec)
CASES = {
    "exp9_q_300": (lambda: _bump(9, "q", 300), 150, 512),
    "exp8_q_200": (lambda: _bump(8, "q", 200), 150, 512),
    "exp10_q_neg_30_200": (lambda: _bump(10, "q_neg_30", 200), 150, 512),
    "exp6_q_smooth_1_200": (lambda: _bump(6, "q_smooth_1", 200), 150, 512),
    "exp7_member_0_400": (lambda: _ensemble_member(0), 150, 256),
    "exp7_member_1_400": (lambda: _ensemble_member(1), 150, 256),
    "two_piece_1e20": (lambda: _two_piece(1.0, 1e20), 30, 128),
    "two_piece_-1e16": (lambda: _two_piece(1.0, -1e16), 30, 128),
    "two_piece_5_3e6": (lambda: _two_piece(5.0, 3e6), 150, 512),
    "two_piece_5_-3e5": (lambda: _two_piece(5.0, -3e5), 150, 512),
    "two_piece_5_1e9": (lambda: _two_piece(5.0, 1e9), 150, 512),
    "two_piece_5_-1e9": (lambda: _two_piece(5.0, -1e9), 150, 512),
}

PINS = {
    "exp9_q_300": "e97b6de315414a73",
    "exp8_q_200": "092e645f8e0c54cb",
    "exp10_q_neg_30_200": "4b200055df4e6095",
    "exp6_q_smooth_1_200": "64aac3398ef334c0",
    "exp7_member_0_400": "0c8a0da27d2a6e8c",
    "exp7_member_1_400": "d28a9c538b8771f2",
    "two_piece_1e20": "0eb99652caba4a72",
    "two_piece_-1e16": "2ef7585b4255948c",
    "two_piece_5_3e6": "6a261b13e06be808",
    "two_piece_5_-3e5": "4b7d3927727da5ad",
    "two_piece_5_1e9": "43b5da2017f7babd",
    "two_piece_5_-1e9": "02c632518192ed82",
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
