import hashlib
import json
import os

import numpy as np
import pytest
from mpmath import mp, mpf

from radialborn.cache import (
    cached_spectrum_of,
    load_spectrum,
    spectrum_key,
    store_spectrum,
)
from radialborn.forward import DtnSpectrum, spectrum_of
from radialborn.highprec import decimal_digits
from radialborn.profiles import AnalyticProfile, PiecewiseProfile, ProfileKind


def gamma():
    return PiecewiseProfile(ProfileKind.CONDUCTIVITY, 1.0, (0.0, 0.5, 1.0), (2.0, 1.0))


def test_decimal_digits_covers_precision():
    assert decimal_digits(256) >= int(256 * 0.302)
    assert decimal_digits(1024) >= int(1024 * 0.302)


def test_store_load_round_trip_one_ulp(tmp_path):
    spec = spectrum_of(gamma(), 10, 256)
    store_spectrum(spec, gamma(), cache_dir=tmp_path)
    back = load_spectrum(gamma(), 10, 256, cache_dir=tmp_path)
    assert back is not None
    assert back.kind is spec.kind
    with mp.workprec(300):
        for a, b in zip(spec.lambdas, back.lambdas):
            assert abs(mpf(a) - mpf(b)) <= (abs(mpf(a)) + mpf(2) ** -256) * mpf(2) ** -255


# (prec, entry file name, sha256 of its bytes): entries written before must still
# hit, and a store must write them again byte for byte
STORED_ENTRIES = [
    (96, "e21224cd2f8b0274486b0c1927c2bccaaefceabf66fab2e647749bac188a1f47",
     "4325dabaac51f7985316ef7fd017673c0d2ea2cb7c89583bf85c0a4c6d017f65"),
    (512, "40b2555fc63cfa5d62a83f553cb296cd2d3785070e9fa3ec50501fed6fd27a67",
     "43562b389eb84cfe4046efe764cdae4b1c297af6c774c4d08a8df0ba05e2eef0"),
    (1024, "69729b6eee2309e28a41a35d0a2f6be37dbdad91faeb67346163aba5663d94c9",
     "6eb64c6f0fa2da63866f650882018925c5f280aa1645f04e7e48c8bba3c94ddd"),
]


@pytest.mark.parametrize("prec, key, digest", STORED_ENTRIES)
def test_a_stored_entry_keeps_its_name_and_bytes(tmp_path, prec, key, digest):
    with mp.workprec(prec):
        lambdas = (mpf(0), mpf(1) / 3, -mpf(5) / 7 * mpf(2) ** -700, mpf(10) ** 40 / 7)
    path = store_spectrum(DtnSpectrum(ProfileKind.CONDUCTIVITY, 1.0, lambdas, prec), gamma(),
                          cache_dir=tmp_path)
    assert path.name == f"{key}.json"
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    assert load_spectrum(gamma(), 3, prec, cache_dir=tmp_path).lambdas == lambdas


def test_key_depends_on_every_input():
    base = spectrum_key(gamma(), 10, 256)
    assert spectrum_key(gamma(), 11, 256) != base
    assert spectrum_key(gamma(), 10, 512) != base
    other = PiecewiseProfile(ProfileKind.CONDUCTIVITY, 1.0, (0.0, 0.5, 1.0), (2.0, 1.0 + 1e-12))
    assert spectrum_key(other, 10, 256) != base
    assert spectrum_key(gamma(), 10, 256) == base


def test_key_separates_values_closer_than_any_decimal_rendering(tmp_path):
    # 2 and 2 + 1e-40 agree to 40 digits but give lambda_1 values 7.5e-42 apart
    with mp.workprec(256):
        near = PiecewiseProfile(ProfileKind.CONDUCTIVITY, 1.0, (0.0, 0.5, 1.0),
                                (mpf(2) + mpf(10) ** -40, 1.0))
    assert spectrum_key(near, 10, 256) != spectrum_key(gamma(), 10, 256)
    cached_spectrum_of(gamma(), 10, 256, cache_dir=tmp_path)
    served = cached_spectrum_of(near, 10, 256, cache_dir=tmp_path)
    assert served.lambdas == spectrum_of(near, 10, 256).lambdas
    assert served.lambdas[1] != spectrum_of(gamma(), 10, 256).lambdas[1]


def test_key_is_the_same_for_equal_values_of_any_type():
    with mp.workprec(256):
        as_mpf = PiecewiseProfile(ProfileKind.CONDUCTIVITY, mpf(1), (0, mpf("0.5"), 1),
                                  (mpf(2), 1))
    assert spectrum_key(as_mpf, 10, 256) == spectrum_key(gamma(), 10, 256)


def test_analytic_profiles_have_no_key(tmp_path):
    # an analytic profile is solved through a projection whose piece count its
    # parameters do not name, so a key of them would serve one spectrum for all
    analytic = AnalyticProfile(ProfileKind.CONDUCTIVITY, 1.0, "bump",
                               {"height": 1.0, "offset": 1.0})
    with pytest.raises(TypeError):
        spectrum_key(analytic, 10, 256)
    with pytest.raises(TypeError):
        store_spectrum(spectrum_of(gamma(), 10, 256), analytic, cache_dir=tmp_path)
    with pytest.raises(TypeError):
        cached_spectrum_of(analytic, 10, 256, cache_dir=tmp_path)
    assert not any(tmp_path.iterdir())


def test_miss_and_corruption_return_none(tmp_path):
    assert load_spectrum(gamma(), 10, 256, cache_dir=tmp_path) is None
    spec = spectrum_of(gamma(), 10, 256)
    path = store_spectrum(spec, gamma(), cache_dir=tmp_path)
    path.write_text("{ not json")
    assert load_spectrum(gamma(), 10, 256, cache_dir=tmp_path) is None
    path.write_text(json.dumps({"version": 99}))
    assert load_spectrum(gamma(), 10, 256, cache_dir=tmp_path) is None


def test_entry_that_does_not_fit_the_request_is_a_miss(tmp_path):
    # an entry holding 3 potential lambdas under the key of a K = 10 conductivity
    path = store_spectrum(spectrum_of(gamma(), 10, 256), gamma(), cache_dir=tmp_path)
    good = json.loads(path.read_text())
    # a non-finite lambda would pass every field check
    for edit in ({"kind": "potential"}, {"lambdas": good["lambdas"][:3]},
                 {"lambdas": good["lambdas"][:4] + ["nan"] + good["lambdas"][5:]},
                 {"lambdas": good["lambdas"][:10] + ["-inf"]}):
        path.write_text(json.dumps({**good, **edit}))
        assert load_spectrum(gamma(), 10, 256, cache_dir=tmp_path) is None
    path.write_text(json.dumps({**good, "kind": "potential", "lambdas": good["lambdas"][:3]}))
    spec = cached_spectrum_of(gamma(), 10, 256, cache_dir=tmp_path)
    assert spec.kind is ProfileKind.CONDUCTIVITY and spec.kmax == 10
    assert json.loads(path.read_text()) == good


def test_a_hit_returns_what_a_solve_returns(tmp_path):
    # 0.7 is no short decimal in binary: an entry's rendering of it reads back as
    # mpf('0.69999999999999996'), the key's exact radius as the profile's float
    profile = PiecewiseProfile(ProfileKind.POTENTIAL, 0.7, (0.0, 0.3, 0.7), (2.0, -1.0))
    miss = cached_spectrum_of(profile, 10, 256, cache_dir=tmp_path)
    hit = cached_spectrum_of(profile, 10, 256, cache_dir=tmp_path)
    assert hit == miss
    assert type(hit.radius) is type(miss.radius) is float
    # a hit is labelled with the checked precision, as a solve is
    assert type(cached_spectrum_of(profile, 10, np.int64(256), cache_dir=tmp_path).prec) is int


def test_cached_spectrum_of_hits_without_recompute(tmp_path, monkeypatch):
    calls = []

    def counting_solver(profile, kmax, prec):
        calls.append(1)
        return spectrum_of(profile, kmax, prec)

    monkeypatch.setattr("radialborn.cache.spectrum_of", counting_solver)
    a = cached_spectrum_of(gamma(), 10, 256, cache_dir=tmp_path)
    b = cached_spectrum_of(gamma(), 10, 256, cache_dir=tmp_path)
    assert len(calls) == 1
    assert [float(x) for x in a.lambdas] == [float(x) for x in b.lambdas]


def test_no_temp_files_left_behind(tmp_path):
    spec = spectrum_of(gamma(), 5, 128)
    store_spectrum(spec, gamma(), cache_dir=tmp_path)
    leftovers = [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
    assert leftovers == []
