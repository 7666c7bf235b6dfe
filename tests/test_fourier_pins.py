"""Bit-exact pins of the closed-form forward transform.

Each pin is the sha256 of the raw ``_mpf_`` tuples of the values of
``forward_radial_ft`` at 256 and 512 bits: experiment 1's step on the desk
grid, a 40-piece projection of experiment 6's bump, experiment 5's three-piece
step, a slice of a grid that does not start at 0 and a single node.  One bit
moved in one value changes a digest.  A change meant to move values
regenerates them with ``python tests/test_fourier_pins.py`` and says why.
"""

import hashlib

import pytest

from radialborn.experiments import experiment_profiles
from radialborn.fourier import default_xi_grid, forward_radial_ft
from radialborn.profiles import project_midpoint


def _profile(exp_id, name, pieces=None):
    p = experiment_profiles(exp_id)[name]
    return p if pieces is None else project_midpoint(p, pieces)


# name: (profile builder, xi-grid builder)
CASES = {
    "exp1_step_256": (lambda: _profile(1, "gamma_large"), lambda: default_xi_grid(256, 10.0)),
    "exp6_bump_40": (lambda: _profile(6, "q_smooth_5", 40), lambda: default_xi_grid(64, 10.0)),
    "exp5_step": (lambda: _profile(5, "q_step_10"), lambda: default_xi_grid(64, 10.0)),
    "slice_off_zero": (lambda: _profile(1, "gamma_small"),
                       lambda: default_xi_grid(64, 10.0)[5:40]),
    "single_node": (lambda: _profile(5, "q_annular"), lambda: default_xi_grid(64, 10.0)[7:8]),
}
PRECS = (256, 512)

PINS = {
    ("exp1_step_256", 256): "3258e0cfe83c710e",
    ("exp1_step_256", 512): "6b8a4241c0ac76f0",
    ("exp6_bump_40", 256): "6c10d940ee6db158",
    ("exp6_bump_40", 512): "3e1668aca38865fb",
    ("exp5_step", 256): "d50db13fed11d3ee",
    ("exp5_step", 512): "39d8407b73a0931f",
    ("slice_off_zero", 256): "d3c1bf65cd4211c7",
    ("slice_off_zero", 512): "089fa8a3179665a6",
    ("single_node", 256): "5cce31d7445bc5eb",
    ("single_node", 512): "75a2a5ab9b1eb509",
}


def value_digest(name, prec):
    profile, grid = CASES[name]
    F = forward_radial_ft(profile(), grid(), prec)
    return hashlib.sha256(repr(tuple(v._mpf_ for v in F.values)).encode()).hexdigest()[:16]


@pytest.mark.parametrize("name, prec", list(PINS))
def test_forward_transform_values_are_pinned(name, prec):
    assert value_digest(name, prec) == PINS[name, prec]


if __name__ == "__main__":
    print("PINS =", {(name, prec): value_digest(name, prec) for name in CASES for prec in PRECS})
