"""Command-line front end.

Exit codes: 0 success, 2 input error, 3 solver error, 4 cache I/O error.
Each run setting (terms, precision, grid, iterations, seed, samples) is its flag
if given, else its value in the ``reconstruct.SCALES`` row: paper under
--paper-scale, desk otherwise; none of these flags has a default of its own.
RADIALBORN_CACHE_DIR relocates the spectrum cache.
"""

import argparse
import csv
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .born import FourierSamples, moment_sequence_exact, target_radius
from .cache import cached_spectrum_of
from .experiments import (
    EXPERIMENT_IDS,
    fourier_rows,
    read_spectrum_csv,
    run_experiment,
    value_rows,
    write_files,
    write_spectrum_csv,
)
from .fourier import inverse_radial_ft, xi_node_bits
from .highprec import read_decimal, to_decimal
from .profiles import PiecewiseProfile, ProfileFormatError, parse_profile, project_midpoint
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

# the SolverParams fields a command may set by flag: {field: (flag, metavar)}
SETTINGS = {"terms": ("--terms", "K"), "prec": ("--precision", "BITS"), "grid_n": ("--grid", "N"),
            "iterations": ("--iterations", "N"), "seed": ("--seed", "S"),
            "samples": ("--samples", None)}


def _build_parser():
    p = argparse.ArgumentParser(prog="radialborn",
                                description="DtN spectra and Born reconstructions "
                                            "for radial coefficients.")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, run, help, *settings):
        """A subcommand that runs ``run`` and takes --out and the given settings."""
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(run=run)
        for field in settings:
            flag, metavar = SETTINGS[field]
            sp.add_argument(flag, dest=field, type=int, default=None, metavar=metavar)
        sp.add_argument("--out", default=".", metavar="DIR")
        if settings:
            sp.add_argument("--paper-scale", action="store_true")
        return sp

    sp = command("dtn", cmd_dtn, "compute a DtN spectrum", "terms", "prec")
    sp.add_argument("--profile", required=True, help="profile file")
    sp.add_argument("--radius", type=float, default=None,
                    help="solve on this ball instead of the profile's")

    sp = command("born", cmd_born, "Born approximation of a spectrum",
                 "terms", "prec", "grid_n")
    sp.add_argument("--profile", help="profile file (solved, then inverted)")
    sp.add_argument("--spectrum", help="spectrum CSV (k,lambda,shift)")
    sp.add_argument("--kind", choices=["conductivity", "potential"],
                    help="required with --spectrum")
    sp.add_argument("--radius", type=float, default=1.0,
                    help="finiteR target radius; otherwise the ball of a --spectrum CSV")
    sp.add_argument("--mode", default="unit",
                    choices=["unit", "finiteR", "scattering"])
    sp.add_argument("--xi-max", type=float, default=None)

    sp = command("invert-fourier", cmd_invert_fourier, "discrete inverse radial transform")
    sp.add_argument("--input", required=True, help="CSV of xi,value rows")

    sp = command("moments", cmd_moments, "exact moment sequence", "terms", "prec")
    sp.add_argument("--profile", required=True, help="profile file")

    sp = command("reconstruct", cmd_reconstruct, "fixed-point Born iteration",
                 "terms", "prec", "grid_n", "iterations")
    sp.add_argument("--profile", required=True, help="profile file")

    sp = command("ensemble", cmd_ensemble, "depth-error statistics over random potentials",
                 "terms", "prec", "grid_n", "seed", "samples")
    sp.add_argument("--scale", type=float, default=1.0)

    sp = command("experiment", cmd_experiment, "run a canned experiment",
                 "terms", "prec", "grid_n", "iterations", "seed")
    sp.add_argument("id", type=int, choices=EXPERIMENT_IDS)
    return p


def _load_profile(path):
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ValueError(f"cannot read profile {path}: {e}")
    try:
        return parse_profile(text)
    except ProfileFormatError as e:
        raise ValueError(f"{path}: {e}")


def _explicit(args):
    """The run settings the command line sets explicitly."""
    return {n: getattr(args, n) for n in SETTINGS if getattr(args, n, None) is not None}


def _params(args):
    """The command's SolverParams: its explicit flags over the chosen scale row."""
    return replace(SCALES["paper" if args.paper_scale else "desk"], **_explicit(args))


def cmd_dtn(args):
    params = _params(args)
    profile = project_midpoint(_load_profile(args.profile), params.pieces)
    if args.radius is not None and float(args.radius) != float(profile.radius):
        profile = PiecewiseProfile(profile.kind, args.radius,
                                   tuple(b * args.radius / float(profile.radius)
                                         for b in profile.breakpoints[:-1]) + (args.radius,),
                                   profile.values)
    spec = cached_spectrum_of(profile, params.terms, params.prec)
    return [write_spectrum_csv(Path(args.out) / "spectrum.csv", spec)]


def _spectrum_from_args(args, params, R):
    if args.spectrum:
        if not args.kind:
            raise ValueError("--spectrum requires --kind")
        # finiteR mode transforms the unit-ball spectrum; --radius is then the target
        radius = 1.0 if args.mode == "finiteR" else args.radius
        try:
            return read_spectrum_csv(args.spectrum, args.kind, radius, params.prec)
        except OSError as e:
            raise ValueError(str(e))  # every message names the file
    if not args.profile:
        raise ValueError("born needs --profile or --spectrum")
    profile = _load_profile(args.profile)
    target_radius(profile, args.mode, R)  # a mode the profile cannot take fails before the solve
    return cached_spectrum_of(project_midpoint(profile, params.pieces), params.terms, params.prec)


def cmd_born(args):
    params = _params(args)
    R = args.radius if args.mode == "finiteR" else None
    if args.xi_max is not None and not 0 < args.xi_max < math.inf:
        raise ValueError(f"--xi-max must be positive and finite, got {args.xi_max}")
    spec = _spectrum_from_args(args, params, R)
    if args.xi_max is not None:
        rho = grid_radius(spec, args.mode, R)
        params = replace(params, length_factor=np.pi * params.grid_n / (args.xi_max * rho))
    F = born_fourier(spec, params, args.mode, R)
    recon = born_inverse(F, spec.kind)
    rows = [(*row, int(r <= float(spec.radius)))
            for row, r in zip(value_rows(recon.r_grid, recon.values), recon.r_grid)]
    return write_files(args.out, {
        "fourier.csv": (("xi", "value"), fourier_rows(F, params.prec)),
        "reconstruction.csv": (("r", "value", "in_ball"), rows)})


def cmd_invert_fourier(args):
    try:
        with open(args.input, newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            rows = []
            for line, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) < 2:
                    raise ValueError(f"line {line}: expected xi and value columns, got {row!r}")
                rows.append(row)
        # nodes at the bits fourier_rows writes them with, so one halfway between two
        # floats rounds as when it was computed; values at the 53 bits of a float
        bits = xi_node_bits(len(rows) - 1)
        F = FourierSamples(tuple(read_decimal(a, bits) for a, *_ in rows),
                           tuple(float(read_decimal(b, 53)) for _, b, *_ in rows))
        s = inverse_radial_ft(F)
    except (OSError, ValueError, StopIteration) as e:
        raise ValueError(f"{args.input}: {e}")
    return write_files(args.out, {"inverse.csv": (("r", "value"), value_rows(s.r_grid, s.values))})


def cmd_moments(args):
    params = _params(args)
    profile = project_midpoint(_load_profile(args.profile), params.pieces)
    sigma = moment_sequence_exact(profile, params.terms, prec=params.prec)
    rows = [(k, to_decimal(s, params.prec)) for k, s in enumerate(sigma)]
    return write_files(args.out, {"moments.csv": (("k", "sigma"), rows)})


def cmd_reconstruct(args):
    params = _params(args)
    profile = _load_profile(args.profile)
    spec = cached_spectrum_of(project_midpoint(profile, params.pieces), params.terms, params.prec)
    trace = iterate_born(profile.kind, spec, profile, n_iter=params.iterations,
                         params=params)
    files = {f"iterate_{n}.csv": (("r", "value"), value_rows(it.r_grid, it.values))
             for n, it in enumerate(trace.iterates)}
    err = value_rows(trace.l2_errors, trace.linf_errors)
    files["errors.csv"] = (("iteration", "l2", "linf"), [(n, *e) for n, e in enumerate(err)])
    return write_files(args.out, files)


def cmd_ensemble(args):
    params = _params(args)
    curve = ensemble_depth_profile(args.scale, params)
    return write_files(args.out, {f"depth_error_seed{params.seed}.csv":
                                  (("r", "mean_abs_error"),
                                   value_rows(curve.r_grid, curve.mean_abs_error))})


def cmd_experiment(args):
    return run_experiment(args.id, Path(args.out) / f"experiment_{args.id}",
                          paper_scale=args.paper_scale, **_explicit(args))


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_INPUT if e.code not in (0, None) else 0
    try:
        for path in args.run(args):
            print(path)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except ArithmeticError as e:
        print(f"solver error: {e}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as e:
        print(f"cache/io error: {e}", file=sys.stderr)
        return EXIT_CACHE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
