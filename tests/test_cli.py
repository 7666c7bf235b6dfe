import csv
import os

import pytest

from radialborn.cli import main

GAMMA_ONE = "kind conductivity\nradius 1\nbreakpoints 0 1\nvalues 1\n"
Q_ONE = "kind potential\nradius 1\nbreakpoints 0 1\nvalues 1\n"
GAMMA_STEP = "kind conductivity\nradius 1\nbreakpoints 0 0.5 1\nvalues 2 1\n"


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.setenv("RADIALBORN_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write(path, text):
    path.write_text(text)
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return list(reader)


def test_dtn_unit_conductivity(workdir, capsys):
    prof = write(workdir / "g.txt", GAMMA_ONE)
    rc = main(["dtn", "--profile", prof, "--terms", "5", "--precision", "128",
               "--out", "run"])
    assert rc == 0
    rows = read_rows(workdir / "run" / "spectrum.csv")
    assert len(rows) == 6
    for k, row in enumerate(rows):
        assert int(row[0]) == k
        assert float(row[1]) == float(k)
        assert float(row[2]) == 0.0


def test_dtn_constant_potential_value(workdir):
    prof = write(workdir / "q.txt", Q_ONE)
    rc = main(["dtn", "--profile", prof, "--terms", "0", "--precision", "128",
               "--out", "run"])
    assert rc == 0
    rows = read_rows(workdir / "run" / "spectrum.csv")
    assert float(rows[0][1]) == pytest.approx(0.3130352855, abs=1e-10)


def test_dtn_repeat_hits_cache(workdir):
    prof = write(workdir / "g.txt", GAMMA_STEP)
    assert main(["dtn", "--profile", prof, "--terms", "8", "--precision", "128",
                 "--out", "a"]) == 0
    cache = workdir / "cache"
    entries = list(cache.glob("*.json"))
    assert len(entries) == 1
    before = entries[0].stat().st_mtime_ns
    assert main(["dtn", "--profile", prof, "--terms", "8", "--precision", "128",
                 "--out", "b"]) == 0
    assert entries[0].stat().st_mtime_ns == before
    assert (workdir / "a" / "spectrum.csv").read_bytes() == \
        (workdir / "b" / "spectrum.csv").read_bytes()


def test_born_zero_spectrum_gives_zero(workdir):
    spath = workdir / "flat.csv"
    with open(spath, "w") as fh:
        fh.write("k,lambda,shift\n")
        for k in range(30):
            fh.write(f"{k},{k},0\n")
    rc = main(["born", "--spectrum", str(spath), "--kind", "potential",
               "--precision", "128", "--terms", "29", "--grid", "32",
               "--out", "run"])
    assert rc == 0
    for row in read_rows(workdir / "run" / "reconstruction.csv"):
        assert abs(float(row[1])) < 1e-25
    assert {row[2] for row in read_rows(workdir / "run" / "reconstruction.csv")} == {"0", "1"}


def test_born_unit_and_finiteR1_identical_files(workdir):
    prof = write(workdir / "g.txt", GAMMA_STEP)
    for mode, out in (("unit", "u"), ("finiteR", "f")):
        rc = main(["born", "--profile", prof, "--terms", "40",
                   "--precision", "128", "--grid", "64", "--mode", mode,
                   "--radius", "1.0", "--out", out])
        assert rc == 0
    assert (workdir / "u" / "fourier.csv").read_bytes() == \
        (workdir / "f" / "fourier.csv").read_bytes()
    assert (workdir / "u" / "reconstruction.csv").read_bytes() == \
        (workdir / "f" / "reconstruction.csv").read_bytes()


def test_born_step_support_estimate(workdir):
    from radialborn.fourier import RadialSamples
    from radialborn.reconstruct import support_radius_estimate
    prof = write(workdir / "g.txt", GAMMA_STEP)
    rc = main(["born", "--profile", prof, "--terms", "120", "--precision", "256",
               "--grid", "512", "--out", "run"])
    assert rc == 0
    rows = read_rows(workdir / "run" / "reconstruction.csv")
    s = RadialSamples([float(r[0]) for r in rows], [float(r[1]) for r in rows])
    assert support_radius_estimate(s, 1.0) <= 0.55


def test_invert_fourier_round_trip(workdir):
    import numpy as np
    from radialborn.fourier import default_xi_grid, forward_radial_ft
    from radialborn.profiles import PiecewiseProfile, ProfileKind
    q = PiecewiseProfile(ProfileKind.POTENTIAL, 1.0, (0.0, 0.5, 1.0), (1.0, 0.0))
    F = forward_radial_ft(q, default_xi_grid(128, 10.0), prec=128)
    fpath = workdir / "F.csv"
    with open(fpath, "w") as fh:
        fh.write("xi,value\n")
        for x, v in zip(F.xi_grid, F.values):
            fh.write(f"{float(x)!r},{float(v)!r}\n")
    rc = main(["invert-fourier", "--input", str(fpath), "--out", "run"])
    assert rc == 0
    rows = read_rows(workdir / "run" / "inverse.csv")
    mid = [float(v) for r, v in rows if 0.1 < float(r) < 0.4]
    assert all(abs(v - 1.0) < 0.1 for v in mid)


def test_born_xi_column_is_the_default_grid(workdir):
    import numpy as np
    from radialborn.experiments import _fmt
    from radialborn.fourier import default_xi_grid
    prof = write(workdir / "g.txt", GAMMA_STEP)
    for out, extra, L in (("a", [], 10.0), ("b", ["--xi-max", "40"], np.pi * 64 / 40)):
        rc = main(["born", "--profile", prof, "--terms", "20", "--precision", "128",
                   "--grid", "64", *extra, "--out", out])
        assert rc == 0
        xi = [row[0] for row in read_rows(workdir / out / "fourier.csv")]
        assert xi == [_fmt(x) for x in default_xi_grid(64, L)]


def test_invert_fourier_without_the_origin_row_is_an_input_error(workdir, capsys):
    from radialborn.fourier import default_xi_grid, forward_radial_ft
    from radialborn.profiles import PiecewiseProfile, ProfileKind
    q = PiecewiseProfile(ProfileKind.POTENTIAL, 1.0, (0.0, 0.5, 1.0), (1.0, 0.0))
    F = forward_radial_ft(q, default_xi_grid(64, 10.0)[1:], prec=128)
    fpath = workdir / "F.csv"
    with open(fpath, "w") as fh:
        fh.write("xi,value\n")
        for x, v in zip(F.xi_grid, F.values):
            fh.write(f"{float(x)!r},{float(v)!r}\n")
    assert main(["invert-fourier", "--input", str(fpath), "--out", "run"]) == 2
    assert "not at 0" in capsys.readouterr().err


def test_moments_output(workdir):
    prof = write(workdir / "g.txt", GAMMA_STEP)
    rc = main(["moments", "--profile", prof, "--terms", "3",
               "--precision", "128", "--out", "run"])
    assert rc == 0
    rows = read_rows(workdir / "run" / "moments.csv")
    assert float(rows[0][1]) == pytest.approx(0.5**3 / 3, rel=1e-12)


def test_experiment_subcommand_writes_manifest(workdir):
    rc = main(["experiment", "5", "--terms", "40", "--precision", "128",
               "--grid", "48", "--out", "runs"])
    assert rc == 0
    out = workdir / "runs" / "experiment_5"
    assert (out / "manifest.json").exists()
    assert (out / "q_annular_born.csv").exists()


def test_exit_code_input_error(workdir):
    bad = write(workdir / "bad.txt", "kind sideways\n")
    assert main(["dtn", "--profile", bad]) == 2
    assert main(["dtn", "--profile", str(workdir / "missing.txt")]) == 2
    assert main(["born", "--precision", "128"]) == 2


def test_exit_code_solver_error(workdir):
    import mpmath
    from mpmath import mp
    with mp.workprec(200):
        qval = mp.nstr(-mpmath.pi ** 2, 40)
    prof = write(workdir / "q.txt",
                 f"kind potential\nradius 1\nbreakpoints 0 1\nvalues {qval}\n")
    rc = main(["dtn", "--profile", prof, "--terms", "2", "--precision", "128"])
    assert rc == 3


def test_env_precision_default(workdir, monkeypatch):
    monkeypatch.setenv("RADIALBORN_PRECISION", "128")
    prof = write(workdir / "g.txt", GAMMA_ONE)
    assert main(["dtn", "--profile", prof, "--terms", "2", "--out", "run"]) == 0
    monkeypatch.setenv("RADIALBORN_PRECISION", "junk")
    assert main(["dtn", "--profile", prof, "--terms", "2", "--out", "run2"]) == 2
