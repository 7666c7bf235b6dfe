import csv
import json
import math

import numpy as np
import pytest
from mpmath import mp, mpf

from radialborn import experiments
from radialborn.experiments import (
    EXPERIMENT_IDS,
    experiment_config,
    experiment_profiles,
    read_spectrum_csv,
    run_experiment,
    write_spectrum_csv,
)
from radialborn.forward import spectrum_of, transfer_radius
from radialborn.profiles import PiecewiseProfile, ProfileKind
from radialborn.reconstruct import SCALES

from experiment_digests import SMALL, experiment_digests, recorded_digests


def _column(path, j=0):
    with open(path, newline="") as fh:
        return [row[j] for row in list(csv.reader(fh))[1:]]


@pytest.fixture
def cache_dir(tmp_path):
    d = tmp_path / "cache"
    d.mkdir()
    return d


def test_catalog_covers_all_ids():
    for exp_id in EXPERIMENT_IDS:
        assert experiment_config(exp_id) == SCALES["desk"]
        if exp_id != 7:
            assert experiment_profiles(exp_id)


def test_every_experiment_uses_its_scale_grid():
    for scale, paper_scale in (("desk", False), ("paper", True)):
        for exp_id in EXPERIMENT_IDS:
            cfg = experiment_config(exp_id, paper_scale=paper_scale)
            assert cfg.grid_n == SCALES[scale].grid_n, (scale, exp_id)


def test_paper_scale_overrides():
    cfg = experiment_config(1, paper_scale=True)
    assert cfg.terms == 400
    assert cfg.prec == 1024
    assert cfg.pieces == 10000


def test_unknown_experiment_rejected():
    # experiment_profiles used to return {} for an id outside the catalogue
    for lookup in (experiment_config, experiment_profiles):
        for exp_id in (13, 99, 0):
            with pytest.raises(ValueError, match=f"experiment id must be 1..12, got {exp_id}"):
                lookup(exp_id)


@pytest.mark.parametrize("exp_id", EXPERIMENT_IDS)
def test_manifest_records_config(exp_id, tmp_path, cache_dir):
    files = run_experiment(exp_id, tmp_path, cache_dir=cache_dir, **SMALL)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["experiment"] == exp_id
    assert manifest["config"]["terms"] == 40
    assert manifest["config"]["prec"] == 128
    assert set(manifest["profiles"]) == set(experiment_profiles(exp_id))
    names = set(manifest["files"])
    assert names == {p.name for p in tmp_path.glob("*.csv")}
    assert names
    # every output as checked in; `python tests/experiment_digests.py` rewrites them
    assert experiment_digests(exp_id, files) == recorded_digests(exp_id)


@pytest.mark.parametrize("exp_id, bundles", [(3, 2), (9, 3)])
def test_each_profile_is_solved_once(exp_id, bundles, tmp_path, cache_dir, monkeypatch):
    # one projection and one spectrum lookup per profile, however many modes it
    # writes, and one truth transform and truth pair per grid: unit and
    # scattering share one
    calls = []

    def record(f):
        def counted(*args, **kwargs):
            calls.append(f.__name__)
            return f(*args, **kwargs)
        return counted

    for name in ("cached_spectrum_of", "project_midpoint", "forward_radial_ft"):
        monkeypatch.setattr(experiments, name, record(getattr(experiments, name)))
    files = run_experiment(exp_id, tmp_path, cache_dir=cache_dir, **SMALL)
    assert sorted(calls) == (["cached_spectrum_of"] + ["forward_radial_ft"] * (bundles - 1)
                             + ["project_midpoint"])
    assert len(files) == 4 * bundles - 1
    name = next(iter(experiment_profiles(exp_id)))
    assert (tmp_path / f"{name}_truth.csv").exists()
    assert (tmp_path / f"{name}_fourier_truth.csv").exists()
    assert not (tmp_path / f"{name}_scattering_truth.csv").exists()
    assert not (tmp_path / f"{name}_scattering_fourier_truth.csv").exists()


def test_rerun_is_byte_identical(tmp_path, cache_dir):
    run_experiment(1, tmp_path / "a", cache_dir=cache_dir, **SMALL)
    run_experiment(1, tmp_path / "b", cache_dir=cache_dir, **SMALL)
    files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    files_b = sorted(p.name for p in (tmp_path / "b").iterdir())
    assert files_a == files_b
    for name in files_a:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_exp9_emits_all_modes(tmp_path, cache_dir):
    run_experiment(9, tmp_path, cache_dir=cache_dir, **SMALL)
    names = {p.name for p in tmp_path.glob("*.csv")}
    assert any("finiteR" in n for n in names)
    assert any("scattering" in n for n in names)
    assert "q_born.csv" in names
    # both finite-R transforms sit on the grid whose inverse is q_finiteR_born.csv
    r_max = float(_column(tmp_path / "q_finiteR_born.csv")[-1])
    for name in ("q_finiteR_fourier_born.csv", "q_finiteR_fourier_truth.csv"):
        xi = _column(tmp_path / name)
        assert float(xi[1]) == pytest.approx(math.pi / r_max, rel=1e-12)


def test_exp11_emits_iterates(tmp_path, cache_dir):
    run_experiment(11, tmp_path, cache_dir=cache_dir, **SMALL)
    names = {p.name for p in tmp_path.glob("*.csv")}
    assert any("iterate_0" in n for n in names)
    assert any("errors_log10" in n for n in names)


def test_exp7_emits_depth_curves(tmp_path, cache_dir):
    run_experiment(7, tmp_path, cache_dir=cache_dir, **SMALL)
    names = {p.name for p in tmp_path.glob("*.csv")}
    assert {"depth_error_alpha_1.csv", "depth_error_alpha_2.csv",
            "depth_error_alpha_3.csv"} <= names


def _spectra():
    gamma = PiecewiseProfile(ProfileKind.CONDUCTIVITY, 2.5, (0.0, 0.7, 1.9, 2.5), (3.0, 0.2, 1.0))
    q = PiecewiseProfile(ProfileKind.POTENTIAL, 1.0, (0.0, 0.4, 1.0), (-6.0, 2.0))
    return [spectrum_of(gamma, 40, 256), spectrum_of(q, 25, 128)]


def test_spectrum_csv_round_trip_is_bitwise(tmp_path):
    for spec in _spectra():
        path = write_spectrum_csv(tmp_path / "s.csv", spec)
        back = read_spectrum_csv(path, spec.kind.value, spec.radius, spec.prec)
        assert [x._mpf_ for x in back.lambdas] == [x._mpf_ for x in spec.lambdas]
        # blank rows, inside the table and at its end, are skipped
        rows = path.read_text().splitlines()
        path.write_text("\n".join(rows[:3] + [""] + rows[3:] + ["", ""]) + "\n")
        back = read_spectrum_csv(path, spec.kind.value, spec.radius, spec.prec)
        assert [x._mpf_ for x in back.lambdas] == [x._mpf_ for x in spec.lambdas]


def test_spectrum_csv_keeps_the_radius_it_checked(tmp_path):
    # the label used to be mpf(radius) at 53 bits: a 288-bit radius read back unequal
    q = PiecewiseProfile(ProfileKind.POTENTIAL, 1.0, (0.0, 0.4, 1.0), (-6.0, 2.0))
    with mp.workprec(300):
        R = mpf(7) / 3
    spec = transfer_radius(spectrum_of(q, 20, 256), R)
    path = write_spectrum_csv(tmp_path / "s.csv", spec)
    for radius in (spec.radius, R):
        back = read_spectrum_csv(path, spec.kind.value, radius, np.int64(spec.prec))
        assert back.radius == spec.radius and back.lambdas == spec.lambdas
        assert type(back.prec) is int


def test_spectrum_csv_without_rows_is_rejected(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("k,lambda,shift\n")
    with pytest.raises(ValueError, match="empty.csv: no spectrum rows"):
        read_spectrum_csv(empty, "potential", 1.0, 128)
    empty.write_text("")
    with pytest.raises(ValueError, match="expected header"):
        read_spectrum_csv(empty, "potential", 1.0, 128)


def test_spectrum_csv_rejects_bad_k_and_shift(tmp_path):
    spec = _spectra()[0]
    rows = write_spectrum_csv(tmp_path / "s.csv", spec).read_text().splitlines()
    bad = tmp_path / "bad.csv"
    gap = rows[:5] + rows[6:]  # drops k = 4, so line 6 holds k = 5
    bad.write_text("\n".join(gap) + "\n")
    with pytest.raises(ValueError, match="line 6: expected k = 4"):
        read_spectrum_csv(bad, "conductivity", 2.5, 256)
    k, lam, shift = rows[3].split(",")
    digit = "1" if shift[40] != "1" else "2"  # an error of about 1e-37 in the shift
    changed = rows[:3] + [f"{k},{lam},{shift[:40]}{digit}{shift[41:]}"] + rows[4:]
    bad.write_text("\n".join(changed) + "\n")
    with pytest.raises(ValueError, match="line 4: shift"):
        read_spectrum_csv(bad, "conductivity", 2.5, 256)
    # the shift column ties the file to its radius
    with pytest.raises(ValueError, match="line 3: shift"):
        read_spectrum_csv(tmp_path / "s.csv", "conductivity", 1.0, 256)
    # radius 0 used to divide by zero in the shift check
    for radius in (0.0, -2.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="s.csv: radius must be positive and finite"):
            read_spectrum_csv(tmp_path / "s.csv", "conductivity", radius, 256)


def test_a_finite_radius_inside_the_support_fails_before_any_solve(tmp_path, monkeypatch):
    def solve(*args, **kwargs):
        raise AssertionError("solved a spectrum")

    # the first profile is zero, so only the bump's support can refuse R = 0.5
    row = experiments._Experiment({"q_zero": experiments._step_q((0.0,), (0.0, 1.0)),
                                   "q": experiments._bump_q(2.0)},
                                  born=(("unit", None), ("finiteR", 0.5)))
    monkeypatch.setitem(experiments._CATALOGUE, 9, row)
    monkeypatch.setattr(experiments, "cached_spectrum_of", solve)
    with pytest.raises(ValueError, match="inside the support"):
        run_experiment(9, tmp_path, **SMALL)
    assert not any(tmp_path.iterdir())
