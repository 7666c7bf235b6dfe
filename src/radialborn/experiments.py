"""Experiment harness: canonical configurations and CSV emission.

Each experiment id in 1..12 maps to a deterministic bundle of CSV files
(truth curves, Born reconstructions, Fourier transforms, error tables) plus
a manifest recording every parameter.  Numbers are written as decimal
strings, never timestamps, so identical configs give byte-identical output.
"""

import copy
import csv
import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import mpmath
import numpy as np
from mpmath import mp, mpf

from .cache import cached_spectrum_of
from .forward import DtnSpectrum
from .fourier import forward_radial_ft, xi_node_bits
from .highprec import GUARD_BITS, check_precision, read_decimal, to_decimal
from .profiles import (
    AnalyticProfile,
    PiecewiseProfile,
    ProfileKind,
    project_midpoint,
)
from .reconstruct import (
    SCALES,
    born_fourier,
    born_samples,
    ensemble_depth_profile,
    iterate_born,
    profile_on_grid,
)


def _experiment(exp_id):
    if exp_id not in _CATALOGUE:
        raise ValueError(f"experiment id must be 1..12, got {exp_id}")
    return _CATALOGUE[exp_id]


def experiment_config(exp_id, paper_scale=False, **overrides):
    """An experiment's settings: its scale's row with ``overrides`` replaced."""
    _experiment(exp_id)
    return replace(SCALES["paper" if paper_scale else "desk"], **overrides)


def write_csv(path, header, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return path


def write_files(out, files):
    """Write each ``{name: (header, rows)}`` entry to ``out/name``; the paths, in order."""
    return [write_csv(Path(out) / name, header, rows) for name, (header, rows) in files.items()]


def write_spectrum_csv(path, spec):
    """Spectrum file format: header k,lambda,shift with decimal strings."""
    with mp.workprec(spec.prec + GUARD_BITS):
        R = mpf(spec.radius)
        rows = [(k, to_decimal(lam, spec.prec), to_decimal(mpf(lam) - k / R, spec.prec))
                for k, lam in enumerate(spec.lambdas)]
    return write_csv(path, ("k", "lambda", "shift"), rows)


def read_spectrum_csv(path, kind, radius, prec):
    """Rebuild a DtnSpectrum from a k,lambda,shift CSV, each lambda rounded to prec.

    Raises ValueError naming the file (and the line) on a radius outside (0, inf), a
    bad header, a number ``read_decimal`` rejects, k not running 0, 1, 2, ..., a
    shift off lambda - k/R by more than 2^(2-prec) max(|lambda|, |shift|), or no rows.
    """
    prec = check_precision(prec)
    lambdas = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if [h.strip() for h in next(reader, [])] != ["k", "lambda", "shift"]:
            raise ValueError(f"{path}: expected header k,lambda,shift")
        with mp.workprec(prec + GUARD_BITS):
            R = mpf(radius)
        if not 0 < R < mpmath.inf:
            raise ValueError(f"{path}: radius must be positive and finite, got {radius}")
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3 or row[0].strip() != str(len(lambdas)):
                raise ValueError(f"{path}, line {line}: expected k = {len(lambdas)} "
                                 f"and three columns, got {row!r}")
            try:
                lam, shift = read_decimal(row[1], prec), read_decimal(row[2], prec + GUARD_BITS)
            except ValueError as e:
                raise ValueError(f"{path}, line {line}: {e}") from None
            with mp.workprec(prec + GUARD_BITS):
                tol = mpmath.ldexp(max(abs(lam), abs(shift)), 2 - prec)
                if abs(shift - (lam - len(lambdas) / R)) > tol:
                    raise ValueError(f"{path}, line {line}: shift {row[2]} differs from "
                                     f"lambda - k/R at {prec} bits")
            lambdas.append(lam)
    if not lambdas:
        raise ValueError(f"{path}: no spectrum rows; need at least k = 0")
    return DtnSpectrum(ProfileKind(kind), R, lambdas, prec)


def value_rows(xs, ys):
    """(x, y) rows of float64 values, each written as its shortest round-trip repr."""
    return [(repr(float(x)), repr(float(y))) for x, y in zip(xs, ys)]


def _node_column(xi_grid):
    # the nodes of default_xi_grid(n, L) are exact at xi_node_bits(n) bits
    bits = xi_node_bits(len(xi_grid) - 1)
    return [to_decimal(x, bits) for x in xi_grid]


def _rows(column, F, prec):
    return list(zip(column, [to_decimal(v, prec) for v in F.values]))


def fourier_rows(F, prec):
    return _rows(_node_column(F.xi_grid), F, prec)


# the experiment catalogue ----------------------------------------------------

@dataclass(frozen=True)
class _Experiment:
    profiles: dict                   # the named truth profiles
    born: tuple = (("unit", None),)  # the (mode, R) Born bundles of each profile
    iterate: bool = False            # the fixed-point iteration bundle of each profile
    depth_scales: tuple = ()         # the depth-error ensemble: one curve per scale alpha


def _step_gamma(values):
    return PiecewiseProfile(ProfileKind.CONDUCTIVITY, 1.0, (0.0, 0.5, 1.0), values)


def _step_q(values, breaks):
    return PiecewiseProfile(ProfileKind.POTENTIAL, 1.0, breaks, values)


def _bump_gamma(amp, **support):
    return AnalyticProfile(ProfileKind.CONDUCTIVITY, 1.0, "bump",
                           {"height": amp, **support, "offset": 1.0})


def _bump_q(amp):
    return AnalyticProfile(ProfileKind.POTENTIAL, 1.0, "bump", {"height": amp})


_EXP3_GAMMA = AnalyticProfile(ProfileKind.CONDUCTIVITY, 1.0, "exp3_profile", {})

_CATALOGUE = {
    1: _Experiment({"gamma_large": _step_gamma((2.0, 1.0)),
                    "gamma_small": _step_gamma((1.2, 1.0))}),
    # deviation from 1 supported in B_{1/3}, so gamma is exactly 1 on (1/3, 1)
    2: _Experiment({f"gamma_{i}": _bump_gamma(a, support=1.0 / 3.0)
                    for i, a in enumerate((0.2, 0.35, 0.5), start=1)}),
    3: _Experiment({"gamma": _EXP3_GAMMA}, born=(("unit", None), ("scattering", None))),
    4: _Experiment({"gamma_mild": _bump_gamma(0.3), "gamma_large": _bump_gamma(4.0),
                    "gamma_degenerate": _bump_gamma(-0.995)}),
    5: _Experiment({**{f"q_step_{a:g}": _step_q((a, a / 2, 0.0), (0.0, 0.3, 0.6, 1.0))
                       for a in (2.0, 10.0, 40.0)},
                    "q_annular": _step_q((0.0, 5.0, 0.0), (0.0, 0.3, 0.6, 1.0))}),
    6: _Experiment({f"q_smooth_{a:g}": _bump_q(a) for a in (1.0, 5.0, 20.0)}),
    7: _Experiment({}, born=(), depth_scales=(1.0, 2.0, 3.0)),
    8: _Experiment({"q": AnalyticProfile(ProfileKind.POTENTIAL, 1.0, "annular_bump",
                                         {"height": 3.0, "inner": 0.4, "outer": 1.0})}),
    9: _Experiment({"q": _bump_q(5.0)},
                   born=(("unit", None), ("finiteR", 5.0), ("scattering", None))),
    10: _Experiment({f"q_neg_{a:g}": _bump_q(-a) for a in (5.0, 15.0, 30.0)}),
    11: _Experiment({"gamma_step": _step_gamma((2.0, 1.0)), "gamma_lipschitz": _EXP3_GAMMA,
                     "gamma_smooth": _bump_gamma(0.3)}, born=(), iterate=True),
    12: _Experiment({"q_step": _step_q((2.0, 0.0), (0.0, 0.5, 1.0)), "q_smooth": _bump_q(2.0)},
                    born=(), iterate=True),
}

EXPERIMENT_IDS = tuple(_CATALOGUE)


def experiment_profiles(exp_id):
    """The named truth profiles of one experiment, a copy the caller may change."""
    return copy.deepcopy(_experiment(exp_id).profiles)


def _grid_entry(grids, grid):
    """(column, names) of ``grid`` in one run's list ``grids`` of (grid, column, names):
    the grid's ``_node_column``, formatted once per run for all of its Fourier files, and
    the profiles whose truth pair is on it.  A run has few grids, so the list is searched
    by equality rather than keyed by a hash of every node."""
    for g, column, names in grids:
        if g == grid:
            return column, names
    grids.append((grid, _node_column(grid), set()))
    return grids[-1][1:]


def _born_bundle(name, profile, pw, spec, cfg, mode, R, grids):
    """Born reconstruction and Born Fourier CSVs, with truth and Fourier-of-truth.

    Only the first bundle of a profile on an xi grid writes the truth pair, so
    bundles on one grid (unit and scattering on the unit ball) share one truth
    transform and one pair of truth files; ``grids`` is the run's, see ``_grid_entry``.
    """
    # born_samples repeats the transform Fb; the benchmark pins it (ROADMAP item 1)
    recon = born_samples(spec, cfg, mode=mode, R=R)
    Fb = born_fourier(spec, cfg, mode=mode, R=R)
    column, names = _grid_entry(grids, Fb.xi_grid)
    tag = name if mode == "unit" else f"{name}_{mode}"
    files = {f"{tag}_born.csv": (("r", "value"), value_rows(recon.r_grid, recon.values)),
             f"{tag}_fourier_born.csv": (("xi", "value"), _rows(column, Fb, cfg.prec))}
    if name not in names:
        names.add(name)
        Ft = forward_radial_ft(pw, Fb.xi_grid, prec=cfg.prec)
        truth = profile_on_grid(profile, recon.r_grid)
        files[f"{tag}_truth.csv"] = (("r", "value"), value_rows(recon.r_grid, truth))
        files[f"{tag}_fourier_truth.csv"] = (("xi", "value"), _rows(column, Ft, cfg.prec))
    return files


def _iteration_bundle(name, profile, spec, cfg):
    trace = iterate_born(profile.kind, spec, profile, n_iter=cfg.iterations, params=cfg)
    r_grid = trace.iterates[0].r_grid
    files = {f"{name}_truth.csv":
             (("r", "value"), value_rows(r_grid, profile_on_grid(profile, r_grid)))}
    for n, it in enumerate(trace.iterates):
        files[f"{name}_iterate_{n}.csv"] = (("r", "value"), value_rows(it.r_grid, it.values))
    log10 = value_rows(map(np.log10, trace.l2_errors), map(np.log10, trace.linf_errors))
    err = [(n, *row) for n, row in enumerate(log10)]
    files[f"{name}_errors_log10.csv"] = (("iteration", "log10_l2", "log10_linf"), err)
    return files


def run_experiment(exp_id, out_dir, paper_scale=False, cache_dir=None, **overrides):
    """Run one experiment; returns the list of files written."""
    cfg = experiment_config(exp_id, paper_scale, **overrides)
    row = _experiment(exp_id)
    files, grids = {}, []
    for name, p in row.profiles.items():
        pw = project_midpoint(p, cfg.pieces)
        spec = cached_spectrum_of(pw, cfg.terms, cfg.prec, cache_dir)
        for mode, R in row.born:
            files.update(_born_bundle(name, p, pw, spec, cfg, mode, R, grids))
        if row.iterate:
            files.update(_iteration_bundle(name, p, spec, cfg))
    for alpha in row.depth_scales:
        curve = ensemble_depth_profile(alpha, cfg)
        files[f"depth_error_alpha_{alpha:g}.csv"] = (
            ("r", "mean_abs_error"), value_rows(curve.r_grid, curve.mean_abs_error))

    written = write_files(out_dir, files)
    manifest = {
        "experiment": exp_id,
        "config": {**asdict(cfg), "id": exp_id, "paper_scale": paper_scale},
        "profiles": {k: _profile_summary(v) for k, v in row.profiles.items()},
        "files": sorted(p.name for p in written),
        "format_version": 1,
    }
    mpath = Path(out_dir) / "manifest.json"
    with open(mpath, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return written + [mpath]


def _profile_summary(p):
    if isinstance(p, PiecewiseProfile):
        return {"kind": p.kind.value, "radius": float(p.radius),
                "breakpoints": [float(b) for b in p.breakpoints],
                "values": [float(v) for v in p.values]}
    return {"kind": p.kind.value, "radius": float(p.radius),
            "name": p.name, "params": p.params}
