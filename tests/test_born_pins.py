"""Bit-exact pins of the Born layer: spectrum -> Born transform -> float samples.

Each pin is the sha256 of what a stage hands on: the raw ``_mpf_`` tuples of the
nodes and values of ``born_potential_fourier`` and ``born_conductivity_fourier``
(through ``born_fourier``, on the grids the benchmark uses), the float64 bytes of
``born_samples`` and of the iterates of ``iterate_born``, and the lambdas of
``transfer_radius``.  One bit moved in one value changes a digest.  A change
meant to move values regenerates them with ``python tests/test_born_pins.py``
and says why.
"""

import functools
import hashlib
import math

import mpmath
import pytest
from mpmath import mpf

from radialborn.born import born_potential_fourier
from radialborn.forward import DtnSpectrum, spectrum_of, transfer_radius
from radialborn.profiles import PiecewiseProfile, ProfileKind
from radialborn.reconstruct import SolverParams, born_fourier, born_samples, iterate_born

BREAKS = (0.0, 0.2, 0.35, 0.5, 0.7, 0.85, 1.0)
PROFILES = {
    "q": PiecewiseProfile(ProfileKind.POTENTIAL, 1.0, BREAKS, (12.5, -4.0, 21.0, 0.0, -6.5, 0.0)),
    "gamma": PiecewiseProfile(ProfileKind.CONDUCTIVITY, 1.0, BREAKS,
                              (1.7, 0.6, 1.35, 1.9, 0.8, 1.0)),
}
MODES = {"q": (("unit", None), ("finiteR", 5.0), ("scattering", None)),
         "gamma": (("unit", None), ("finiteR", 5.0), ("scattering", None), ("moment_form", None))}
# (terms, prec, grid_n): the benchmark's two grids at K = 150, and one high-precision case
SHAPES = ((150, 256, 256), (150, 256, 512), (40, 1024, 256))


@functools.lru_cache(maxsize=None)
def spectrum(which, terms, prec):
    return spectrum_of(PROFILES[which], terms, prec)


@functools.lru_cache(maxsize=None)
def transferred(which):
    return transfer_radius(spectrum(which, 150, 256), 2.5)


def raw_digest(F):
    raw = (tuple(x._mpf_ for x in F.xi_grid), tuple(v._mpf_ for v in F.values))
    return hashlib.sha256(repr(raw).encode()).hexdigest()[:16]


def float_digest(*samples):
    h = hashlib.sha256()
    for s in samples:
        h.update(s.r_grid.tobytes())
        h.update(s.values.tobytes())
    return h.hexdigest()[:16]


FOURIER_PINS = {
    ("q", "unit", (150, 256, 256)): "9fe00f6b84cff848",
    ("q", "finiteR", (150, 256, 256)): "f8a5607290274702",
    ("q", "scattering", (150, 256, 256)): "ae1668d6f2c52e80",
    ("gamma", "unit", (150, 256, 256)): "985847b615e308ab",
    ("gamma", "finiteR", (150, 256, 256)): "df8a7a9163a6f7c3",
    ("gamma", "scattering", (150, 256, 256)): "9356564106a25b2d",
    ("gamma", "moment_form", (150, 256, 256)): "985847b615e308ab",
    ("q", "unit", (150, 256, 512)): "2f1a555fd9cd26e1",
    ("q", "finiteR", (150, 256, 512)): "22253fd38556c99b",
    ("q", "scattering", (150, 256, 512)): "727e87cd185e109e",
    ("gamma", "unit", (150, 256, 512)): "cf1af14e39e4b034",
    ("gamma", "finiteR", (150, 256, 512)): "306967c2c08734c2",
    ("gamma", "scattering", (150, 256, 512)): "cb58a4516cdd494c",
    ("gamma", "moment_form", (150, 256, 512)): "cf1af14e39e4b034",
    ("q", "unit", (40, 1024, 256)): "03c91fdd82221bf3",
    ("q", "finiteR", (40, 1024, 256)): "bdb2c4a9e0ba6b6a",
    ("q", "scattering", (40, 1024, 256)): "576ee16c6ccc7fee",
    ("gamma", "unit", (40, 1024, 256)): "c5cb3d5cb6eff1a3",
    ("gamma", "finiteR", (40, 1024, 256)): "46f3edc014c90d71",
    ("gamma", "scattering", (40, 1024, 256)): "984aa22289045e2c",
    ("gamma", "moment_form", (40, 1024, 256)): "c5cb3d5cb6eff1a3",
}

TRANSFER_PINS = {
    "q": {
        "lambdas": "73a867b1a6b00eb9",
        "unit": "3cf8ed649647df25",
        "unit samples": "3d5713d2168f74cc",
        "finiteR": "596947e6074c5273",
        "finiteR samples": "7075a46a6b53f300",
        "scattering": "28c27160fbbef132",
        "scattering samples": "e4c392c37b68bc63",
    },
    "gamma": {
        "lambdas": "4dfc8bb70f1e4b82",
        "unit": "8a9d9b5ff68e92ff",
        "unit samples": "d4c29836c8f557af",
        "finiteR": "ee7e55831cecd6b0",
        "finiteR samples": "5ae3fa49e3673273",
        "scattering": "62bf645bc90b1a38",
        "scattering samples": "ba1dfb2483025b61",
    },
}

SAMPLE_PINS = {
    ("q", "unit"): "37c2d0765ecc2185",
    ("gamma", "finiteR"): "5ae3fa49e3673273",
    "iterates": "4bbb2587bc9c203b",
}


def fourier_cases():
    return [(which, mode, R, shape) for shape in SHAPES
            for which in PROFILES for mode, R in MODES[which]]


def fourier_digest(which, mode, R, shape):
    terms, prec, n = shape
    params = SolverParams(terms=terms, prec=prec, grid_n=n)
    return raw_digest(born_fourier(spectrum(which, terms, prec), params, mode, R))


def transfer_digests(which):
    # a spectrum at radius 2.5 reads the radius map's a != 1 branches
    spec = transferred(which)
    params = SolverParams(terms=150, prec=256, grid_n=256)
    out = {"lambdas": hashlib.sha256(repr(tuple(x._mpf_ for x in spec.lambdas)).encode())
           .hexdigest()[:16]}
    for mode, R in (("unit", None), ("finiteR", 5.0), ("scattering", None)):
        out[mode] = raw_digest(born_fourier(spec, params, mode, R))
        out[mode + " samples"] = float_digest(born_samples(spec, params, mode, R))
    return out


def sample_digests():
    out = {}
    for which, mode, R in (("q", "unit", None), ("gamma", "finiteR", 5.0)):
        out[which, mode] = float_digest(born_samples(spectrum(which, 150, 256),
                                                     SolverParams(terms=150, prec=256), mode, R))
    g = PROFILES["gamma"]
    trace = iterate_born(g.kind, spectrum("gamma", 40, 128), g, 2,
                         SolverParams(terms=40, prec=128, grid_n=64))
    out["iterates"] = float_digest(*trace.iterates)
    return out


@pytest.mark.parametrize("which, mode, R, shape", fourier_cases(),
                         ids=lambda x: str(x).replace(" ", ""))
def test_born_fourier_values_are_pinned(which, mode, R, shape):
    assert fourier_digest(which, mode, R, shape) == FOURIER_PINS[which, mode, shape]


@pytest.mark.parametrize("which", PROFILES)
def test_transfer_radius_and_its_born_transforms_are_pinned(which):
    assert transfer_digests(which) == TRANSFER_PINS[which]


def test_born_samples_and_iterates_are_pinned():
    assert sample_digests() == SAMPLE_PINS


@pytest.mark.parametrize("bad", (math.nan, math.inf, mpmath.nan, mpmath.inf), ids=repr)
@pytest.mark.parametrize("which", PROFILES)
def test_a_non_finite_lambda_raises_in_every_mode(which, bad):
    spec = spectrum(which, 40, 128)
    lambdas = list(spec.lambdas)
    lambdas[2] = bad
    bad_spec = DtnSpectrum(spec.kind, spec.radius, lambdas, spec.prec)
    params = SolverParams(terms=40, prec=128, grid_n=16)
    for mode, R in MODES[which]:
        with pytest.raises(ValueError, match="non-finite series term"):
            born_fourier(bad_spec, params, mode, R)


def test_a_non_finite_lambda_raises_at_a_radius_other_than_1():
    spec = transferred("q")
    lambdas = list(spec.lambdas)
    lambdas[2] = mpmath.nan
    bad_spec = DtnSpectrum(spec.kind, spec.radius, lambdas, spec.prec)
    for mode, R in MODES["q"]:
        with pytest.raises(ValueError, match="non-finite series term"):
            born_potential_fourier(bad_spec, [mpf(0), mpf(1)], mode, R, prec=128)


def _regenerate():
    print("FOURIER_PINS =", {(which, mode, shape): fourier_digest(which, mode, R, shape)
                             for which, mode, R, shape in fourier_cases()})
    print("TRANSFER_PINS =", {which: transfer_digests(which) for which in PROFILES})
    print("SAMPLE_PINS =", sample_digests())


if __name__ == "__main__":
    _regenerate()
