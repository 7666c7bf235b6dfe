"""Command-line front end.

Exit codes: 0 success, 2 input error, 3 solver error, 4 cache I/O error.
The cache directory and default precision can come from the environment
(RADIALBORN_CACHE_DIR, RADIALBORN_PRECISION); explicit flags win.
"""

import argparse
import csv
import os
import sys
from pathlib import Path

import numpy as np

from .born import FourierSamples, born_conductivity_fourier, born_potential_fourier
from .cache import cached_spectrum_of, default_cache_dir
from .experiments import (
    EXPERIMENT_IDS,
    fourier_rows,
    read_spectrum_csv,
    run_experiment,
    samples_rows,
    write_csv,
    write_spectrum_csv,
)
from .fourier import default_xi_grid, inverse_radial_ft
from .born import moment_sequence_exact
from .forward import spectrum_of
from .profiles import (
    DEFAULT_PROJECTION_PIECES,
    PiecewiseProfile,
    ProfileFormatError,
    ProfileKind,
    parse_profile,
    project_midpoint,
)
from .reconstruct import SolverParams, born_samples, ensemble_depth_profile, iterate_born

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3
EXIT_CACHE = 4

PRECISION_ENV = "RADIALBORN_PRECISION"


class InputError(Exception):
    pass


def _default_precision():
    env = os.environ.get(PRECISION_ENV)
    if env:
        try:
            return int(env)
        except ValueError:
            raise InputError(f"{PRECISION_ENV} must be an integer, got {env!r}")
    return 512


def _build_parser():
    p = argparse.ArgumentParser(prog="radialborn",
                                description="DtN spectra and Born reconstructions "
                                            "for radial coefficients.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, profile=True):
        if profile:
            sp.add_argument("--profile", required=True, help="profile file")
        sp.add_argument("--terms", type=int, default=150, metavar="K")
        sp.add_argument("--precision", type=int, default=None, metavar="BITS")
        sp.add_argument("--out", default=".", metavar="DIR")
        sp.add_argument("--paper-scale", action="store_true")
        return sp

    sp = common(sub.add_parser("dtn", help="compute a DtN spectrum"))
    sp.add_argument("--radius", type=float, default=None,
                    help="solve on this ball instead of the profile's")

    sp = common(sub.add_parser("born", help="Born approximation of a spectrum"),
                profile=False)
    sp.add_argument("--profile", help="profile file (solved, then inverted)")
    sp.add_argument("--spectrum", help="spectrum CSV (k,lambda,shift)")
    sp.add_argument("--kind", choices=["conductivity", "potential"],
                    help="required with --spectrum")
    sp.add_argument("--radius", type=float, default=1.0,
                    help="spectrum ball radius (with --spectrum) or finiteR target")
    sp.add_argument("--mode", default="unit",
                    choices=["unit", "finiteR", "scattering", "moment-form"])
    sp.add_argument("--xi-max", type=float, default=None)
    sp.add_argument("--grid", type=int, default=512, metavar="N")

    sp = sub.add_parser("invert-fourier", help="discrete inverse radial transform")
    sp.add_argument("--input", required=True, help="CSV of xi,value rows")
    sp.add_argument("--out", default=".", metavar="DIR")

    sp = common(sub.add_parser("moments", help="exact moment sequence"))

    sp = common(sub.add_parser("reconstruct", help="fixed-point Born iteration"))
    sp.add_argument("--grid", type=int, default=512, metavar="N")
    sp.add_argument("--iterations", type=int, default=8, metavar="N")

    sp = sub.add_parser("ensemble", help="depth-error statistics over random potentials")
    sp.add_argument("--terms", type=int, default=150, metavar="K")
    sp.add_argument("--precision", type=int, default=None, metavar="BITS")
    sp.add_argument("--grid", type=int, default=192, metavar="N")
    sp.add_argument("--seed", type=int, default=1234, metavar="S")
    sp.add_argument("--samples", type=int, default=20)
    sp.add_argument("--scale", type=float, default=1.0)
    sp.add_argument("--out", default=".", metavar="DIR")
    sp.add_argument("--paper-scale", action="store_true")

    sp = sub.add_parser("experiment", help="run a canned experiment")
    sp.add_argument("id", type=int, choices=EXPERIMENT_IDS)
    sp.add_argument("--terms", type=int, default=None, metavar="K")
    sp.add_argument("--precision", type=int, default=None, metavar="BITS")
    sp.add_argument("--grid", type=int, default=None, metavar="N")
    sp.add_argument("--iterations", type=int, default=None, metavar="N")
    sp.add_argument("--seed", type=int, default=None, metavar="S")
    sp.add_argument("--out", default=".", metavar="DIR")
    sp.add_argument("--paper-scale", action="store_true")
    return p


def _load_profile(path):
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise InputError(f"cannot read profile {path}: {e}")
    try:
        return parse_profile(text)
    except ProfileFormatError as e:
        raise InputError(f"{path}: {e}")


def _resolve(args, attr, paper, desk):
    val = getattr(args, attr, None)
    if val is not None:
        return val
    return paper if getattr(args, "paper_scale", False) else desk


def _precision(args):
    if args.precision is not None:
        return args.precision
    if getattr(args, "paper_scale", False):
        return 1024
    return _default_precision()


def _as_piecewise(profile, paper_scale=False):
    if isinstance(profile, PiecewiseProfile):
        return profile
    m = DEFAULT_PROJECTION_PIECES if paper_scale else 2000
    return project_midpoint(profile, m)


def cmd_dtn(args):
    profile = _as_piecewise(_load_profile(args.profile), args.paper_scale)
    terms = _resolve(args, "terms", 400, args.terms)
    prec = _precision(args)
    if args.radius is not None and float(args.radius) != float(profile.radius):
        scaled = PiecewiseProfile(profile.kind, args.radius,
                                  tuple(b * args.radius / float(profile.radius)
                                        for b in profile.breakpoints),
                                  profile.values)
        profile = scaled
    spec = cached_spectrum_of(profile, terms, prec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = write_spectrum_csv(out / "spectrum.csv", spec)
    print(path)
    return EXIT_OK


def _spectrum_from_args(args, prec, terms):
    if args.spectrum:
        if not args.kind:
            raise InputError("--spectrum requires --kind")
        try:
            return read_spectrum_csv(args.spectrum, args.kind, args.radius, prec)
        except (OSError, ValueError) as e:
            raise InputError(f"{args.spectrum}: {e}")
    if not args.profile:
        raise InputError("born needs --profile or --spectrum")
    profile = _as_piecewise(_load_profile(args.profile), args.paper_scale)
    return cached_spectrum_of(profile, terms, prec)


def cmd_born(args):
    prec = _precision(args)
    terms = args.terms if not args.paper_scale else max(args.terms, 400)
    mode = args.mode.replace("-", "_")
    spec = _spectrum_from_args(args, prec, terms)
    R = args.radius if mode == "finiteR" else None
    params = SolverParams(terms=terms, prec=prec, grid_n=args.grid)
    radius = float(spec.radius)
    if args.xi_max is not None:
        L = np.pi * args.grid / args.xi_max
    else:
        L = params.length_factor * radius
    xi = default_xi_grid(args.grid, L)
    if spec.kind is ProfileKind.POTENTIAL:
        if mode == "moment_form":
            raise InputError("moment-form mode applies to conductivity spectra")
        F = born_potential_fourier(spec, xi, mode=mode, R=R, prec=prec)
        recon = inverse_radial_ft(F, label="born_q")
    else:
        F = born_conductivity_fourier(spec, xi, mode=mode, R=R, prec=prec)
        base = inverse_radial_ft(F, label="born_gamma")
        recon = type(base)(base.r_grid, base.values + 1.0, base.label)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fpath = write_csv(out / "fourier.csv", ("xi", "value"), fourier_rows(F, prec))
    rpath = write_csv(out / "reconstruction.csv", ("r", "value", "in_ball"),
                      samples_rows(recon, radius=radius))
    print(fpath)
    print(rpath)
    return EXIT_OK


def cmd_invert_fourier(args):
    try:
        with open(args.input, newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            rows = [(float(a), float(b)) for a, b, *_ in reader if a]
    except (OSError, ValueError, StopIteration) as e:
        raise InputError(f"{args.input}: {e}")
    F = FourierSamples(tuple(x for x, _ in rows), tuple(v for _, v in rows))
    s = inverse_radial_ft(F, label="inverse")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = write_csv(out / "inverse.csv", ("r", "value"), samples_rows(s))
    print(path)
    return EXIT_OK


def cmd_moments(args):
    profile = _as_piecewise(_load_profile(args.profile), args.paper_scale)
    prec = _precision(args)
    sigma = moment_sequence_exact(profile, args.terms, prec=prec)
    from .experiments import _fmt
    rows = [(k, _fmt(s, prec)) for k, s in enumerate(sigma)]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = write_csv(out / "moments.csv", ("k", "sigma"), rows)
    print(path)
    return EXIT_OK


def cmd_reconstruct(args):
    profile = _load_profile(args.profile)
    prec = _precision(args)
    pieces = DEFAULT_PROJECTION_PIECES if args.paper_scale else 2000
    params = SolverParams(terms=args.terms, prec=prec, pieces=pieces,
                          grid_n=args.grid)
    pw = _as_piecewise(profile, args.paper_scale)
    spec = cached_spectrum_of(pw, args.terms, prec)
    trace = iterate_born(profile.kind, spec, profile, n_iter=args.iterations,
                         params=params)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for n, it in enumerate(trace.iterates):
        paths.append(write_csv(out / f"iterate_{n}.csv", ("r", "value"),
                               samples_rows(it)))
    err = [(n, repr(l2), repr(li))
           for n, (l2, li) in enumerate(zip(trace.l2_errors, trace.linf_errors))]
    paths.append(write_csv(out / "errors.csv", ("iteration", "l2", "linf"), err))
    for p in paths:
        print(p)
    return EXIT_OK


def cmd_ensemble(args):
    prec = _precision(args)
    params = SolverParams(terms=args.terms, prec=min(prec, 256),
                          pieces=400, grid_n=args.grid)
    if args.paper_scale:
        params = SolverParams(terms=400, prec=512, pieces=2000, grid_n=args.grid)
    curve = ensemble_depth_profile(args.seed, args.samples, scale=args.scale,
                                   params=params)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = [(repr(float(r)), repr(float(e)))
            for r, e in zip(curve.r_grid, curve.mean_abs_error)]
    path = write_csv(out / f"depth_error_seed{args.seed}.csv",
                     ("r", "mean_abs_error"), rows)
    print(path)
    return EXIT_OK


def cmd_experiment(args):
    overrides = {}
    for flag, key in (("terms", "terms"), ("precision", "prec"), ("grid", "grid_n"),
                      ("iterations", "iterations"), ("seed", "seed")):
        val = getattr(args, flag)
        if val is not None:
            overrides[key] = val
    files = run_experiment(args.id, Path(args.out) / f"experiment_{args.id}",
                           paper_scale=args.paper_scale, **overrides)
    for f in files:
        print(f)
    return EXIT_OK


_COMMANDS = {
    "dtn": cmd_dtn,
    "born": cmd_born,
    "invert-fourier": cmd_invert_fourier,
    "moments": cmd_moments,
    "reconstruct": cmd_reconstruct,
    "ensemble": cmd_ensemble,
    "experiment": cmd_experiment,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_INPUT if e.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except ArithmeticError as e:
        print(f"solver error: {e}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as e:
        print(f"cache/io error: {e}", file=sys.stderr)
        return EXIT_CACHE


if __name__ == "__main__":
    sys.exit(main())
