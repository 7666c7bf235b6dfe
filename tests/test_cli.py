import csv
import json

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


def test_dtn_radius_rescales_to_the_exact_radius(workdir):
    # 3 * 0.7 / 3 is 0.6999999999999998: the last breakpoint must be the radius itself
    prof = write(workdir / "g.txt", "kind conductivity\nradius 3\nbreakpoints 0 1 3\nvalues 2 1\n")
    assert main(["dtn", "--profile", prof, "--radius", "0.7", "--terms", "3",
                 "--precision", "128", "--out", "run"]) == 0
    assert len(read_rows(workdir / "run" / "spectrum.csv")) == 4


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
        assert abs(float(row[1])) < 1e-25 and row[1] != "-0.0"
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
    from mpmath import mp, mpf
    from radialborn.fourier import default_xi_grid
    prof = write(workdir / "g.txt", GAMMA_STEP)
    for out, extra, L in (("a", [], 10.0), ("b", ["--xi-max", "40"], np.pi * 64 / 40)):
        rc = main(["born", "--profile", prof, "--terms", "20", "--precision", "128",
                   "--grid", "64", *extra, "--out", out])
        assert rc == 0
        # each node is exact at 53 + bit_length(64) bits and written to round-trip there
        with mp.workprec(53 + (64).bit_length()):
            xi = [mpf(row[0]) for row in read_rows(workdir / out / "fourier.csv")]
        assert xi == list(default_xi_grid(64, L))


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
    err = capsys.readouterr().err
    assert f"{fpath}: xi-grid starts at" in err and "not at 0" in err


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


def test_experiment_honours_the_precision_flag(workdir):
    argv = ["experiment", "1", "--terms", "20", "--grid", "32"]

    def manifest_prec(out):
        path = workdir / out / "experiment_1" / "manifest.json"
        return json.loads(path.read_text())["config"]["prec"]

    assert main([*argv, "--out", "desk"]) == 0
    assert manifest_prec("desk") == 512
    assert main([*argv, "--precision", "96", "--out", "flag"]) == 0
    assert manifest_prec("flag") == 96


@pytest.mark.parametrize("mode", ["unit", "scattering"])
def test_born_mode_writes_the_transform_and_its_inverse(workdir, mode):
    from radialborn.experiments import fourier_rows, value_rows
    from radialborn.forward import spectrum_of
    from radialborn.profiles import parse_profile
    from radialborn.reconstruct import SolverParams, born_fourier, born_inverse
    prof = write(workdir / "g.txt", GAMMA_STEP)
    assert main(["born", "--profile", prof, "--mode", mode, "--terms", "30",
                 "--precision", "128", "--grid", "64", "--out", "run"]) == 0
    spec = spectrum_of(parse_profile(GAMMA_STEP), 30, 128)
    F = born_fourier(spec, SolverParams(terms=30, prec=128, grid_n=64), mode)
    assert read_rows(workdir / "run" / "fourier.csv") == \
        [list(row) for row in fourier_rows(F, 128)]
    recon = born_inverse(F, spec.kind)
    assert read_rows(workdir / "run" / "reconstruction.csv") == \
        [[r, v, str(int(float(r) <= 1.0))] for r, v in value_rows(recon.r_grid, recon.values)]


def test_exit_code_input_error(workdir):
    bad = write(workdir / "bad.txt", "kind sideways\n")
    assert main(["dtn", "--profile", bad]) == 2
    assert main(["dtn", "--profile", str(workdir / "missing.txt")]) == 2
    assert main(["born", "--precision", "128"]) == 2
    q = write(workdir / "q.txt", Q_ONE)
    assert main(["born", "--profile", q, "--mode", "moment-form", "--terms", "5",
                 "--precision", "128", "--grid", "32"]) == 2
    nan = write(workdir / "nan.txt", GAMMA_STEP.replace("values 2 1", "values nan 1"))
    assert main(["dtn", "--profile", nan, "--terms", "5", "--precision", "128"]) == 2
    inf = write(workdir / "inf.txt", Q_ONE.replace("values 1", "values inf"))
    assert main(["dtn", "--profile", inf, "--terms", "5", "--precision", "128"]) == 2
    step = write(workdir / "step.txt", "kind potential\nradius 1\nanalytic annular_bump height=2\n")
    assert main(["dtn", "--profile", step, "--terms", "5", "--precision", "128"]) == 2
    # a negative term count and a non-positive ensemble scale used to exit 0
    assert main(["dtn", "--profile", q, "--terms", "-1", "--precision", "128",
                 "--out", "run"]) == 2
    for scale in ("0", "-2"):
        assert main(["ensemble", "--scale", scale, "--samples", "1", "--terms", "5",
                     "--precision", "64", "--grid", "16", "--out", "run"]) == 2
    for text in ("k,lambda,shift\n", "", "k,lambda,shift\n0,nan,nan\n",
                 "k,lambda,shift\n0,0.5,0.5\n1,inf,inf\n"):
        spec = write(workdir / "s.csv", text)
        assert main(["born", "--spectrum", spec, "--kind", "potential",
                     "--precision", "128", "--grid", "32", "--out", "run"]) == 2
    assert not (workdir / "run").exists()


def test_spectrum_csv_errors_name_the_file_once(workdir, capsys):
    empty = write(workdir / "empty.csv", "k,lambda,shift\n")
    bad = write(workdir / "bad.csv", "k,lambda,shift\n0,0.5,0.5\n1,1.2x,0.2\n")
    nan = write(workdir / "nan.csv", "k,lambda,shift\n0,0.5,0.5\n1,nan,nan\n")
    for path, where, what in ((empty, f"{empty}: ", "no spectrum rows"),
                              (bad, f"{bad}, line 3: ", "1.2x"),
                              (nan, f"{nan}, line 3: ", "must be finite")):
        assert main(["born", "--spectrum", path, "--kind", "potential",
                     "--precision", "128", "--grid", "32", "--out", "run"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {where}") and what in err and err.count(path) == 1


def test_bad_finite_radius_or_xi_max_is_an_input_error(workdir, capsys):
    # radius 0 and xi-max 0 or inf used to exit 3 on a division by zero, and a
    # negative value exit 2 with a message about the xi-grid
    q = write(workdir / "q.txt", "kind potential\nradius 1\nbreakpoints 0 0.5 1\nvalues 2 0\n")
    small = ["--profile", q, "--terms", "5", "--precision", "64", "--grid", "16"]
    cases = [(["--mode", "finiteR", "--radius", r], "needs a target radius R > 0")
             for r in ("0", "-2", "nan")]
    cases += [(["--xi-max", x], "--xi-max must be positive and finite")
              for x in ("0", "inf", "-5", "nan")]
    for flags, message in cases:
        assert main(["born", *small, *flags, "--out", "run"]) == 2, flags
        assert message in capsys.readouterr().err, flags
    write(workdir / "s.csv", "k,lambda,shift\n0,0.5,0.5\n")
    for radius in ("0", "nan"):
        assert main(["born", "--spectrum", str(workdir / "s.csv"), "--kind", "potential",
                     "--radius", radius, *small[2:], "--out", "run"]) == 2
        assert "radius must be positive and finite" in capsys.readouterr().err
    assert not (workdir / "run").exists()


def test_bad_finite_radius_is_rejected_before_the_profile_is_solved(workdir, capsys):
    # --radius inf used to exit 0 and write the scattering transform as finiteR's
    q = write(workdir / "q.txt", "kind potential\nradius 1\nbreakpoints 0 0.5 1\nvalues 2 0\n")
    for radius in ("0", "inf"):
        assert main(["born", "--profile", q, "--mode", "finiteR", "--radius", radius,
                     "--out", "run"]) == 2
        assert "needs a target radius R > 0" in capsys.readouterr().err
        cache = workdir / "cache"
        assert not cache.exists() or not any(cache.iterdir())
        assert not (workdir / "run").exists()


def test_a_finite_radius_inside_the_profile_support_is_an_input_error(workdir, capsys):
    q = write(workdir / "q.txt", "kind potential\nradius 1\nbreakpoints 0 0.5 1\nvalues 2 1\n")
    small = ["--terms", "10", "--precision", "64", "--grid", "16"]
    assert main(["born", "--profile", q, "--mode", "finiteR", "--radius", "0.5", *small,
                 "--out", "run"]) == 2
    assert "inside the support of the profile, which reaches r = 1" in capsys.readouterr().err
    cache = workdir / "cache"
    assert not cache.exists() or not any(cache.iterdir())
    assert not (workdir / "run").exists()
    assert main(["born", "--profile", q, "--mode", "finiteR", "--radius", "2", *small,
                 "--out", "run"]) == 0


@pytest.mark.parametrize("argv, message", [
    # the library's moment_form mode is the unit series, so the CLI does not offer it
    (["born", "--profile", "q.txt", "--mode", "moment-form"], "invalid choice: 'moment-form'"),
    (["born", "--profile", "q.txt", "--grid", "1"], "grid_n must be at least 2, got 1"),
    (["born", "--profile", "q.txt", "--grid", "-3"], "grid_n must be at least 2, got -3"),
    (["reconstruct", "--profile", "q.txt", "--iterations", "-1"],
     "iterations must be at least 0, got -1"),
    (["ensemble", "--samples", "0"], "samples must be at least 1, got 0"),
    (["born", "--spectrum", "s.csv"], "--spectrum requires --kind"),
], ids=["moment-form", "grid-1", "grid-minus-3", "iterations-minus-1", "samples-0",
        "spectrum-without-kind"])
def test_a_mode_or_setting_the_run_cannot_take_fails_before_any_solve(workdir, capsys, argv,
                                                                       message):
    # at desk scale a solve of this bump takes seconds; each case used to run it,
    # store the spectrum and only then fail (or, for --iterations -1, exit 0)
    write(workdir / "q.txt", "kind potential\nradius 1\nanalytic bump height=2\n")
    assert main([*argv, "--out", "run"]) == 2
    assert message in capsys.readouterr().err
    cache = workdir / "cache"
    assert not cache.exists() or not any(cache.iterdir())
    assert not (workdir / "run").exists()


@pytest.mark.parametrize("row", ["0.5,nan", "0.5,inf", "nan,1.0"])
def test_invert_fourier_rejects_a_value_or_node_that_is_not_finite(workdir, capsys, row):
    # each used to exit 0 with an inverse.csv of nan or inf values
    fpath = write(workdir / "F.csv", f"xi,value\n0,1.0\n{row}\n1.0,1.0\n1.5,1.0\n")
    assert main(["invert-fourier", "--input", fpath, "--out", "run"]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not (workdir / "run").exists()


def test_invert_fourier_skips_blank_rows_and_names_a_short_one(workdir, capsys):
    # a blank row, such as a trailing empty line, used to exit 2 with "not enough
    # values to unpack"
    rows = "xi,value\n0,1.0\n0.5,1.0\n\n1.0,1.0\n1.5,1.0\n"
    write(workdir / "F.csv", rows)
    write(workdir / "G.csv", rows.replace("\n\n", "\n") + "\n")
    assert main(["invert-fourier", "--input", "F.csv", "--out", "f"]) == 0
    assert main(["invert-fourier", "--input", "G.csv", "--out", "g"]) == 0
    assert (workdir / "f" / "inverse.csv").read_bytes() == \
        (workdir / "g" / "inverse.csv").read_bytes()
    fpath = write(workdir / "H.csv", "xi,value\n0,1.0\n0.5\n1.0,1.0\n")
    assert main(["invert-fourier", "--input", fpath, "--out", "h"]) == 2
    assert f"{fpath}: line 3: expected xi and value columns" in capsys.readouterr().err


def test_misspelt_analytic_parameter_is_an_input_error(workdir, capsys):
    prof = write(workdir / "q.txt", "kind potential\nradius 1\nanalytic bump hieght=2\n")
    assert main(["dtn", "--profile", prof, "--terms", "5", "--precision", "64"]) == 2
    assert "line 3: bump has no parameter 'hieght'" in capsys.readouterr().err


def test_exit_code_solver_error(workdir):
    import mpmath
    from mpmath import mp
    with mp.workprec(200):
        qval = mp.nstr(-mpmath.pi ** 2, 40)
    prof = write(workdir / "q.txt",
                 f"kind potential\nradius 1\nbreakpoints 0 1\nvalues {qval}\n")
    rc = main(["dtn", "--profile", prof, "--terms", "2", "--precision", "128"])
    assert rc == 3


def test_no_flag_repeats_a_scale_table_default():
    # a flag that sets a SolverParams field defaults to None, so the SCALES row
    # is the one place each of those settings is decided
    import argparse
    from dataclasses import fields
    from radialborn.cli import _build_parser
    from radialborn.reconstruct import SolverParams
    settings = {f.name for f in fields(SolverParams)}
    assert {"iterations", "seed", "samples"} <= settings
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    flagged = set()
    for command, parser in sub.choices.items():
        for action in parser._actions:
            if action.dest in settings:
                assert action.default is None, (command, action.dest)
                flagged.add(action.dest)
    assert {"iterations", "seed", "samples"} <= flagged


Q_BUMP = "kind potential\nradius 1\nanalytic bump height=2\n"


class _Requested(Exception):
    pass


@pytest.fixture
def solver_calls(monkeypatch):
    """Record what the commands ask the solvers for, without solving anything."""
    import radialborn.cli as cli
    seen = []

    def record(name):
        def fake(*args, **kwargs):
            seen.append((name, args, kwargs))
            raise _Requested
        return fake

    for name in ("cached_spectrum_of", "moment_sequence_exact", "ensemble_depth_profile"):
        monkeypatch.setattr(cli, name, record(name))
    return seen


def test_paper_scale_reaches_every_command(workdir, solver_calls):
    prof = write(workdir / "q.txt", Q_BUMP)
    for argv in (["dtn", "--profile", prof], ["moments", "--profile", prof],
                 ["reconstruct", "--profile", prof], ["born", "--profile", prof]):
        with pytest.raises(_Requested):
            main([*argv, "--paper-scale"])
        name, args, kwargs = solver_calls.pop()
        profile, terms = args[:2]
        prec = args[2] if len(args) > 2 else kwargs["prec"]
        assert (profile.piece_count, terms, prec) == (10_000, 400, 1024), argv[0]


def test_explicit_flags_win_over_paper_scale(workdir, solver_calls):
    prof = write(workdir / "q.txt", Q_BUMP)
    with pytest.raises(_Requested):
        main(["born", "--profile", prof, "--paper-scale", "--terms", "150"])
    _, (profile, terms, prec), _ = solver_calls.pop()
    assert (profile.piece_count, terms, prec) == (10_000, 150, 1024)


def test_ensemble_paper_scale_matches_experiment_7(workdir, solver_calls):
    # at either scale ensemble hands the solver experiment 7's settings, seed and
    # sample count included; explicit flags replace them
    from dataclasses import replace
    from radialborn.experiments import experiment_config
    for flags, paper_scale, given in (([], False, {}), (["--paper-scale"], True, {}),
                                      (["--seed", "7", "--samples", "3"], False,
                                       {"seed": 7, "samples": 3})):
        with pytest.raises(_Requested):
            main(["ensemble", *flags])
        scale, params = solver_calls.pop()[1]
        assert scale == 1.0
        assert params == replace(experiment_config(7, paper_scale=paper_scale), **given), flags


def test_born_finiteR_from_spectrum_and_profile_agree(workdir):
    from radialborn.experiments import read_spectrum_csv, value_rows
    from radialborn.reconstruct import SolverParams, born_samples
    prof = write(workdir / "q.txt", "kind potential\nradius 1\nbreakpoints 0 0.5 1\nvalues 2 0\n")
    flags = ["--terms", "30", "--precision", "128", "--grid", "64"]
    assert main(["dtn", "--profile", prof, *flags[:4], "--out", "unit"]) == 0
    finite = ["--mode", "finiteR", "--radius", "5", *flags]
    assert main(["born", "--profile", prof, *finite, "--out", "p"]) == 0
    assert main(["born", "--spectrum", str(workdir / "unit" / "spectrum.csv"),
                 "--kind", "potential", *finite, "--out", "s"]) == 0
    for name in ("fourier.csv", "reconstruction.csv"):
        assert (workdir / "p" / name).read_bytes() == (workdir / "s" / name).read_bytes()
    spec = read_spectrum_csv(workdir / "unit" / "spectrum.csv", "potential", 1.0, 128)
    expected = born_samples(spec, SolverParams(terms=30, prec=128, grid_n=64), "finiteR", 5.0)
    assert [row[:2] for row in read_rows(workdir / "p" / "reconstruction.csv")] == \
        [list(row) for row in value_rows(expected.r_grid, expected.values)]
    assert float(read_rows(workdir / "p" / "reconstruction.csv")[-1][0]) == pytest.approx(50.0)


def test_invert_fourier_of_born_output_reproduces_the_reconstruction(workdir):
    prof = write(workdir / "q.txt", "kind potential\nradius 1\nbreakpoints 0 0.5 1\nvalues 2 0\n")
    assert main(["born", "--profile", prof, "--terms", "30", "--precision", "128",
                 "--grid", "64", "--out", "run"]) == 0
    assert main(["invert-fourier", "--input", str(workdir / "run" / "fourier.csv"),
                 "--out", "run"]) == 0
    assert read_rows(workdir / "run" / "inverse.csv") == \
        [row[:2] for row in read_rows(workdir / "run" / "reconstruction.csv")]


# every subcommand's flags: dest -> (option strings, default, required, choices,
# metavar, type); help text and argument order are not part of the surface
_SETTING_FLAGS = {
    "terms": (("--terms",), None, False, None, "K", int),
    "prec": (("--precision",), None, False, None, "BITS", int),
    "grid_n": (("--grid",), None, False, None, "N", int),
    "iterations": (("--iterations",), None, False, None, "N", int),
    "seed": (("--seed",), None, False, None, "S", int),
    "samples": (("--samples",), None, False, None, None, int),
}
_OUT = {"out": (("--out",), ".", False, None, "DIR", None)}
_SCALED = {**_OUT, "paper_scale": (("--paper-scale",), False, False, None, None, None)}
_PROFILE = {"profile": (("--profile",), None, True, None, None, None)}


def _settings(*names):
    return {n: _SETTING_FLAGS[n] for n in names}


CLI_SURFACE = {
    "dtn": {**_PROFILE, **_SCALED, **_settings("terms", "prec"),
            "radius": (("--radius",), None, False, None, None, float)},
    "born": {**_SCALED, **_settings("terms", "prec", "grid_n"),
             "profile": (("--profile",), None, False, None, None, None),
             "spectrum": (("--spectrum",), None, False, None, None, None),
             "kind": (("--kind",), None, False, ("conductivity", "potential"), None, None),
             "radius": (("--radius",), 1.0, False, None, None, float),
             "mode": (("--mode",), "unit", False,
                      ("unit", "finiteR", "scattering"), None, None),
             "xi_max": (("--xi-max",), None, False, None, None, float)},
    "invert-fourier": {**_OUT, "input": (("--input",), None, True, None, None, None)},
    "moments": {**_PROFILE, **_SCALED, **_settings("terms", "prec")},
    "reconstruct": {**_PROFILE, **_SCALED,
                    **_settings("terms", "prec", "grid_n", "iterations")},
    "ensemble": {**_SCALED, **_settings("terms", "prec", "grid_n", "seed", "samples"),
                 "scale": (("--scale",), 1.0, False, None, None, float)},
    "experiment": {**_SCALED, **_settings("terms", "prec", "grid_n", "iterations", "seed"),
                   "id": ((), None, True, tuple(range(1, 13)), None, int)},
}


def test_every_subcommand_keeps_its_flags():
    import argparse
    from radialborn.cli import _build_parser
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(CLI_SURFACE)
    for command, parser in sub.choices.items():
        flags = {a.dest: (tuple(a.option_strings), a.default, a.required,
                          tuple(a.choices) if a.choices else None, a.metavar, a.type)
                 for a in parser._actions if not isinstance(a, argparse._HelpAction)}
        assert flags == CLI_SURFACE[command], command


@pytest.mark.parametrize("command", sorted(CLI_SURFACE))
def test_every_subcommand_has_help(command, capsys):
    assert main([command, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: radialborn {command}")


def test_stdout_is_the_written_paths_in_order(workdir, capsys):
    prof = write(workdir / "g.txt", GAMMA_STEP)
    small = ["--terms", "10", "--precision", "64", "--grid", "16"]
    assert main(["born", "--profile", prof, *small, "--out", "b"]) == 0
    assert capsys.readouterr().out.splitlines() == ["b/fourier.csv", "b/reconstruction.csv"]
    assert main(["reconstruct", "--profile", prof, *small, "--iterations", "1",
                 "--out", "r"]) == 0
    assert capsys.readouterr().out.splitlines() == \
        [f"r/{n}" for n in ("iterate_0.csv", "iterate_1.csv", "errors.csv")]
    assert main(["ensemble", "--samples", "1", *small, "--out", "e"]) == 0
    assert capsys.readouterr().out.splitlines() == ["e/depth_error_seed1234.csv"]
    assert len(read_rows(workdir / "e" / "depth_error_seed1234.csv")) > 0
