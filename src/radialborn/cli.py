"""Command-line front end.

Exit codes: 0 success, 2 input error, 3 solver error, 4 cache I/O error.
Each run setting (terms, precision, grid, iterations, seed, samples) is its flag
if given, else its value in the ``reconstruct.SCALES`` row: paper under
--paper-scale, desk otherwise; none of these flags has a default of its own.
RADIALBORN_CACHE_DIR relocates the spectrum cache.
"""

import argparse
import csv
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
from mpmath import mp, mpf

from .born import FourierSamples, moment_sequence_exact
from .cache import cached_spectrum_of
from .experiments import (
    EXPERIMENT_IDS,
    _fmt,
    _piecewise,
    depth_error_rows,
    fourier_rows,
    read_spectrum_csv,
    run_experiment,
    samples_rows,
    write_csv,
    write_spectrum_csv,
)
from .fourier import inverse_radial_ft, xi_node_bits
from .profiles import PiecewiseProfile, ProfileFormatError, parse_profile
from .reconstruct import (
    SCALES,
    born_fourier,
    born_inverse,
    ensemble_depth_profile,
    grid_radius,
    iterate_born,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3
EXIT_CACHE = 4

# the SolverParams fields a command may set by flag
SETTINGS = ("terms", "prec", "grid_n", "iterations", "seed", "samples")


class InputError(Exception):
    pass


def _build_parser():
    p = argparse.ArgumentParser(prog="radialborn",
                                description="DtN spectra and Born reconstructions "
                                            "for radial coefficients.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, profile=True):
        if profile:
            sp.add_argument("--profile", required=True, help="profile file")
        sp.add_argument("--terms", type=int, default=None, metavar="K")
        sp.add_argument("--precision", dest="prec", type=int, default=None, metavar="BITS")
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
                    help="finiteR target radius; otherwise the ball of a --spectrum CSV")
    sp.add_argument("--mode", default="unit",
                    choices=["unit", "finiteR", "scattering", "moment-form"])
    sp.add_argument("--xi-max", type=float, default=None)
    sp.add_argument("--grid", dest="grid_n", type=int, default=None, metavar="N")

    sp = sub.add_parser("invert-fourier", help="discrete inverse radial transform")
    sp.add_argument("--input", required=True, help="CSV of xi,value rows")
    sp.add_argument("--out", default=".", metavar="DIR")

    sp = common(sub.add_parser("moments", help="exact moment sequence"))

    sp = common(sub.add_parser("reconstruct", help="fixed-point Born iteration"))
    sp.add_argument("--grid", dest="grid_n", type=int, default=None, metavar="N")
    sp.add_argument("--iterations", type=int, default=None, metavar="N")

    sp = common(sub.add_parser("ensemble",
                               help="depth-error statistics over random potentials"),
                profile=False)
    sp.add_argument("--grid", dest="grid_n", type=int, default=None, metavar="N")
    sp.add_argument("--seed", type=int, default=None, metavar="S")
    sp.add_argument("--samples", type=int, default=None)
    sp.add_argument("--scale", type=float, default=1.0)

    sp = common(sub.add_parser("experiment", help="run a canned experiment"),
                profile=False)
    sp.add_argument("id", type=int, choices=EXPERIMENT_IDS)
    sp.add_argument("--grid", dest="grid_n", type=int, default=None, metavar="N")
    sp.add_argument("--iterations", type=int, default=None, metavar="N")
    sp.add_argument("--seed", type=int, default=None, metavar="S")
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


def _explicit(args):
    """The run settings the command line sets explicitly."""
    return {n: getattr(args, n) for n in SETTINGS if getattr(args, n, None) is not None}


def _params(args):
    """The command's SolverParams: its explicit flags over the chosen scale row."""
    return replace(SCALES["paper" if args.paper_scale else "desk"], **_explicit(args))


def cmd_dtn(args):
    params = _params(args)
    profile = _piecewise(_load_profile(args.profile), params.pieces)
    if args.radius is not None and float(args.radius) != float(profile.radius):
        profile = PiecewiseProfile(profile.kind, args.radius,
                                   tuple(b * args.radius / float(profile.radius)
                                         for b in profile.breakpoints[:-1]) + (args.radius,),
                                   profile.values)
    spec = cached_spectrum_of(profile, params.terms, params.prec)
    out = Path(args.out)
    path = write_spectrum_csv(out / "spectrum.csv", spec)
    print(path)
    return EXIT_OK


def _spectrum_from_args(args, params, mode):
    if args.spectrum:
        if not args.kind:
            raise InputError("--spectrum requires --kind")
        # finiteR mode transforms the unit-ball spectrum; --radius is then the target
        radius = 1.0 if mode == "finiteR" else args.radius
        try:
            return read_spectrum_csv(args.spectrum, args.kind, radius, params.prec)
        except (OSError, ValueError) as e:
            raise InputError(str(e))  # every message names the file
    if not args.profile:
        raise InputError("born needs --profile or --spectrum")
    profile = _piecewise(_load_profile(args.profile), params.pieces)
    return cached_spectrum_of(profile, params.terms, params.prec)


def cmd_born(args):
    params = _params(args)
    mode = args.mode.replace("-", "_")
    R = args.radius if mode == "finiteR" else None
    spec = _spectrum_from_args(args, params, mode)
    if args.xi_max is not None:
        rho = grid_radius(spec, mode, R)
        params = replace(params, length_factor=np.pi * params.grid_n / (args.xi_max * rho))
    F = born_fourier(spec, params, mode, R)
    recon = born_inverse(F, spec.kind)
    out = Path(args.out)
    fpath = write_csv(out / "fourier.csv", ("xi", "value"), fourier_rows(F, params.prec))
    rpath = write_csv(out / "reconstruction.csv", ("r", "value", "in_ball"),
                      samples_rows(recon, radius=float(spec.radius)))
    print(fpath)
    print(rpath)
    return EXIT_OK


def cmd_invert_fourier(args):
    try:
        with open(args.input, newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            rows = [(a, float(b)) for a, b, *_ in reader if a]
        # read each node at the bits fourier_rows writes it with, so a node that
        # lies halfway between two floats rounds as it did when it was computed
        with mp.workprec(xi_node_bits(len(rows) - 1)):
            xi = tuple(mpf(a) for a, _ in rows)
    except (OSError, ValueError, StopIteration) as e:
        raise InputError(f"{args.input}: {e}")
    F = FourierSamples(xi, tuple(v for _, v in rows))
    s = inverse_radial_ft(F)
    out = Path(args.out)
    path = write_csv(out / "inverse.csv", ("r", "value"), samples_rows(s))
    print(path)
    return EXIT_OK


def cmd_moments(args):
    params = _params(args)
    profile = _piecewise(_load_profile(args.profile), params.pieces)
    sigma = moment_sequence_exact(profile, params.terms, prec=params.prec)
    rows = [(k, _fmt(s, params.prec)) for k, s in enumerate(sigma)]
    out = Path(args.out)
    path = write_csv(out / "moments.csv", ("k", "sigma"), rows)
    print(path)
    return EXIT_OK


def cmd_reconstruct(args):
    params = _params(args)
    profile = _load_profile(args.profile)
    spec = cached_spectrum_of(_piecewise(profile, params.pieces), params.terms, params.prec)
    trace = iterate_born(profile.kind, spec, profile, n_iter=params.iterations,
                         params=params)
    out = Path(args.out)
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
    params = _params(args)
    curve = ensemble_depth_profile(args.scale, params)
    path = write_csv(Path(args.out) / f"depth_error_seed{params.seed}.csv",
                     ("r", "mean_abs_error"), depth_error_rows(curve))
    print(path)
    return EXIT_OK


def cmd_experiment(args):
    files = run_experiment(args.id, Path(args.out) / f"experiment_{args.id}",
                           paper_scale=args.paper_scale, **_explicit(args))
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
    except (InputError, ValueError) as e:
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
