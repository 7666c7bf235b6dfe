"""The four seeded workloads of the radialborn benchmark.

Each workload builds its inputs from a seed, then exposes a list of
operations.  A timed pass runs every operation once; the same operation at
``prec + 64`` bits is its accuracy reference, and ``accuracy`` returns
(agreement in bits, cap, floor kind) for each of its outputs.  Shapes (piece counts, term
counts, precisions, branch mix) are fixed per workload and only the values
come from the seed, so the work per pass is the same at every seed.

Calls go through module attributes (``forward.spectrum_of``, not a name
imported from it), so the tracer's wrappers see the benchmark's own calls.
"""

import csv
import hashlib
import io
import math
import random
from dataclasses import replace
from pathlib import Path

from radialborn import cache, experiments, forward, profiles, reconstruct
from radialborn.profiles import AnalyticProfile, PiecewiseProfile, ProfileKind
from radialborn.reconstruct import SolverParams

import oracle

SIZES = ("full", "smoke")


def _digest(*parts):
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()


def _mpf_key(spec):
    return tuple(x._mpf_ for x in spec.lambdas)


def _branches(profile, pieces):
    """Piece count on each branch of the forward solver."""
    if isinstance(profile, AnalyticProfile):
        return {"pieces": pieces}
    if profile.kind is ProfileKind.CONDUCTIVITY:
        return {"pieces": profile.piece_count}
    vals = profile.values
    return {"pieces": len(vals), "c>0": sum(v > 0 for v in vals),
            "c<0": sum(v < 0 for v in vals), "c=0": sum(v == 0 for v in vals)}


class ForwardOp:
    """``spectrum_of`` on one profile; analytic profiles are projected first."""

    def __init__(self, name, profile, pieces, kmax, prec):
        self.name, self.profile, self.pieces = name, profile, pieces
        self.kmax, self.prec = kmax, prec

    def run(self, extra, scratch):
        p = self.profile
        if isinstance(p, AnalyticProfile):
            p = profiles.project_midpoint(p, self.pieces)
        return forward.spectrum_of(p, self.kmax, self.prec + extra)

    def collect(self, out):
        return out

    def digest(self, value):
        return _digest(_mpf_key(value))

    def accuracy(self, value, ref):
        return [(oracle.spectrum_bits(value, ref), self.prec, "exact")]

    def ode_error(self, value, degrees=(0, 1, 2)):
        """Largest relative gap to the independent ODE oracle (potentials only)."""
        if self.profile.kind is not ProfileKind.POTENTIAL:
            return None
        gaps = []
        for k in degrees:
            lam = float(value.lambdas[k])
            ode = forward.ode_log_derivative_oracle(self.profile, k)
            gaps.append(abs(lam - ode) / max(1.0, abs(lam)))
        return max(gaps)

    def summary(self):
        return {"op": self.name, "kind": self.profile.kind.value, "K": self.kmax,
                "prec": self.prec, **_branches(self.profile, self.pieces)}


class BornOp:
    """``born_samples`` of a precomputed spectrum in one mode on one grid."""

    def __init__(self, name, spectra, which, mode, R, params):
        self.name, self.spectra, self.which = name, spectra, which
        self.mode, self.R, self.params = mode, R, params

    def run(self, extra, scratch):
        spec = self.spectra.get(self.which, self.params.prec + extra)
        params = replace(self.params, prec=self.params.prec + extra)
        return reconstruct.born_samples(spec, params, mode=self.mode, R=self.R)

    def collect(self, out):
        return out.values

    def digest(self, value):
        return _digest(value.tobytes())

    def accuracy(self, value, ref):
        return [(oracle.samples_bits(value, ref), oracle.FLOAT_BITS, "samples")]

    def summary(self):
        return {"op": self.name, "spectrum": self.which, "mode": self.mode,
                "grid_n": self.params.grid_n, "K": self.params.terms, "prec": self.params.prec}


class Spectra:
    """Workload spectra by (name, precision), solved on first request."""

    def __init__(self, profiles_by_name, kmax):
        self.profiles, self.kmax, self._solved = profiles_by_name, kmax, {}

    def get(self, which, prec):
        key = (which, prec)
        if key not in self._solved:
            self._solved[key] = forward.spectrum_of(self.profiles[which], self.kmax, prec)
        return self._solved[key]


class ExperimentOp:
    """``run_experiment`` with overrides, on the warm cache or a fresh one.

    The prec+64 reference always uses a fresh cache, so it never writes into
    the warm cache the timed passes read.
    """

    def __init__(self, name, exp_id, overrides, warm, warm_dir):
        self.name, self.exp_id, self.overrides = name, exp_id, overrides
        self.warm, self.warm_dir = warm, warm_dir
        self.prec = experiments.experiment_config(exp_id, **overrides).prec
        self.profile_count = len(experiments.experiment_profiles(exp_id))

    def cache_dir(self, extra, scratch):
        if self.warm and extra == 0:
            return self.warm_dir
        return Path(scratch) / f"{self.name}-cache-{extra}"

    def run(self, extra, scratch):
        out = Path(scratch) / f"{self.name}-out-{extra}"
        overrides = dict(self.overrides, prec=self.prec + extra)
        return experiments.run_experiment(self.exp_id, out, cache_dir=self.cache_dir(extra, scratch),
                                          **overrides)

    def collect(self, out):
        return {Path(p).name: Path(p).read_bytes() for p in sorted(out)}

    def digest(self, value):
        return _digest(*(part for name in sorted(value) for part in (name, value[name])))

    def accuracy(self, value, ref):
        pairs = []
        for name, data in value.items():
            if not name.endswith(".csv"):
                continue
            if name not in ref:
                pairs.append((0.0, oracle.FLOAT_BITS, "samples"))
                continue
            cols = list(zip(*list(csv.reader(io.StringIO(data.decode())))[1:]))
            ref_cols = list(zip(*list(csv.reader(io.StringIO(ref[name].decode())))[1:]))
            for j, (col, ref_col) in enumerate(zip(cols, ref_cols)):
                # the value column of a Fourier CSV is written at cfg.prec:
                # the Born series' transform, or the closed-form one of the truth
                if "_fourier_" in name and j == 1:
                    cap = self.prec
                    kind = "series" if name.endswith("_fourier_born.csv") else "exact"
                else:
                    cap, kind = oracle.FLOAT_BITS, "samples"
                pairs.append((oracle.decimal_column_bits(col, ref_col, cap), cap, kind))
        return pairs

    def cache_ok(self, scratch, warm_snapshot):
        """Warm: the warm cache is untouched.  Cold: one new entry per profile."""
        if self.warm:
            return _snapshot(self.warm_dir) == warm_snapshot
        entries = list(self.cache_dir(0, scratch).glob("*.json"))
        return len(entries) == self.profile_count

    def summary(self):
        return {"op": self.name, "experiment": self.exp_id,
                "cache": "warm" if self.warm else "cold",
                "profiles": self.profile_count, **self.overrides}


def _snapshot(directory):
    return sorted((p.name, p.stat().st_size, p.stat().st_mtime_ns)
                  for p in Path(directory).iterdir())


class FixedPointOp:
    """Project the truth, solve its spectrum, then ``iterate_born`` against it."""

    def __init__(self, name, profile, params, n_iter):
        self.name, self.profile, self.params, self.n_iter = name, profile, params, n_iter

    def run(self, extra, scratch):
        params = replace(self.params, prec=self.params.prec + extra)
        p = self.profile
        if isinstance(p, AnalyticProfile):
            p = profiles.project_midpoint(p, params.pieces)
        target = forward.spectrum_of(p, params.terms, params.prec)
        trace = reconstruct.iterate_born(p.kind, target, self.profile,
                                         n_iter=self.n_iter, params=params)
        return target, trace

    def collect(self, out):
        target, trace = out
        return target, [it.values for it in trace.iterates]

    def digest(self, value):
        target, iterates = value
        return _digest(_mpf_key(target), *(v.tobytes() for v in iterates))

    def accuracy(self, value, ref):
        (target, iterates), (ref_target, ref_iterates) = value, ref
        pairs = [(oracle.spectrum_bits(target, ref_target), self.params.prec, "exact")]
        if len(iterates) != len(ref_iterates):
            return pairs + [(0.0, oracle.FLOAT_BITS, "samples")]
        return pairs + [(oracle.samples_bits(a, b), oracle.FLOAT_BITS, "samples")
                        for a, b in zip(iterates, ref_iterates)]

    def summary(self):
        p = self.params
        return {"op": self.name, "kind": self.profile.kind.value, "n_iter": self.n_iter,
                "K": p.terms, "prec": p.prec, "pieces": p.pieces, "grid_n": p.grid_n}


# -- seeded input generators --------------------------------------------------

# Potentials stay above -0.8 pi^2, below the first Dirichlet eigenvalue pi^2 of
# -Delta on the unit ball, so -Delta + q has no Dirichlet eigenvalue at 0 and
# no DirichletCollisionError is possible at any seed.
NEG_FLOOR = -0.8 * math.pi ** 2


def _pos(rng):
    return rng.uniform(1.0, 30.0)


def _neg(rng):
    return rng.uniform(NEG_FLOOR, -1.0)


def _pot(breaks, values):
    return PiecewiseProfile(ProfileKind.POTENTIAL, 1.0, tuple(breaks), tuple(values))


def _cond(breaks, values):
    return PiecewiseProfile(ProfileKind.CONDUCTIVITY, 1.0, tuple(breaks), tuple(values))


def _cosine_conductivity(rng, amplitude, n):
    # |sum| <= sqrt(2) * amplitude * H_n < 1 for the amplitudes used, so gamma > 0
    c = [rng.uniform(-amplitude, amplitude) / j for j in range(1, n + 1)]
    return AnalyticProfile(ProfileKind.CONDUCTIVITY, 1.0, "cosine_series",
                           {"c": c, "offset": 1.0})


def _uniform_breaks(m):
    return [j / m for j in range(m + 1)]


class Workload:
    """Inputs and operations of one workload; ``setup`` may run several times."""

    name = ""
    expected_trace = {}

    def __init__(self, seed, size, workdir):
        if size not in SIZES:
            raise ValueError(f"size must be one of {SIZES}")
        self.seed, self.size, self.workdir = seed, size, Path(workdir)
        self.ops = []

    @property
    def full(self):
        return self.size == "full"

    def setup(self):
        raise NotImplementedError

    def pass_failures(self, scratch):
        """Names of operations whose side effects in this pass were wrong."""
        return []

    def summary(self):
        return {"seed": self.seed, "size": self.size, "ops": [op.summary() for op in self.ops]}


class ForwardSweep(Workload):
    name = "forward_sweep"
    expected_trace = {"born.calls": 0, "cache.hits": 0, "cache.misses": 0}

    def setup(self):
        rng = random.Random(self.seed)
        hi, lo = (512, 256) if self.full else (128, 96)
        kmax = 150 if self.full else 20
        m_cond, m_pot = (120, 40) if self.full else (8, 6)
        r1, r2 = rng.uniform(0.3, 0.7), rng.uniform(0.2, 0.45)
        third = m_pot // 3
        layered = ([_pos(rng) for _ in range(third)] + [_neg(rng) for _ in range(third)]
                   + [0.0] * (m_pot - 2 * third))
        self.ops = [
            ForwardOp("cond_step2", _cond((0.0, r1, 1.0), (rng.uniform(0.3, 3.0), 1.0)), 2, kmax, hi),
            ForwardOp("pot_step2_pos", _pot((0.0, r1, 1.0), (_pos(rng), _pos(rng))), 2, kmax, hi),
            ForwardOp("pot_step2_neg", _pot((0.0, r1, 1.0), (_neg(rng), _neg(rng))), 2, kmax, hi),
            ForwardOp("pot_step3_mixed", _pot((0.0, r2, r2 + 0.3, 1.0), (_pos(rng), _neg(rng), 0.0)),
                      3, kmax, lo),
            ForwardOp("cond_smooth", _cosine_conductivity(rng, 0.25, 4), m_cond, kmax, lo),
            ForwardOp("pot_layered", _pot(_uniform_breaks(m_pot), layered), m_pot, kmax, hi),
        ]


class BornFromSpectra(Workload):
    name = "born_from_spectra"
    expected_trace = {"forward.solves": 0, "cache.hits": 0, "cache.misses": 0}

    def setup(self):
        rng = random.Random(self.seed)
        kmax, prec = (150, 256) if self.full else (20, 96)
        grids = (256, 512) if self.full else (32, 64)
        breaks = [0.0, 0.2, 0.35, 0.5, 0.7, 0.85, 1.0]
        q = _pot(breaks, [_pos(rng), _neg(rng), _pos(rng), 0.0, _neg(rng), 0.0])
        g = _cond(breaks, [rng.uniform(0.5, 2.0) for _ in range(5)] + [1.0])
        spectra = Spectra({"q": q, "gamma": g}, kmax)
        spectra.get("q", prec)
        spectra.get("gamma", prec)
        modes = [("q", "unit", None), ("q", "finiteR", 5.0), ("q", "scattering", None),
                 ("gamma", "unit", None), ("gamma", "scattering", None),
                 ("gamma", "moment_form", None)]
        self.ops = [BornOp(f"{which}_{mode}_{n}", spectra, which, mode, R,
                           SolverParams(terms=kmax, prec=prec, grid_n=n))
                    for n in grids for which, mode, R in modes]


class ExperimentRerun(Workload):
    name = "experiment_rerun"

    def setup(self):
        # The catalog's profiles are fixed, so the seed picks the analytic
        # experiment: 6 (bumps of height 1, 5, 20) or 10 (depths 5, 15, 30).
        # Both project three bump potentials and do the same work.
        bumps = random.Random(self.seed).choice((6, 10))
        if self.full:
            plans = [("exp1_warm", 1, dict(prec=256, grid_n=256), True),
                     ("bumps_warm", bumps, dict(pieces=40, grid_n=64, prec=256, terms=80), True),
                     ("exp5_cold", 5, dict(terms=40, prec=256, grid_n=64), False)]
        else:
            plans = [("exp1_warm", 1, dict(terms=20, prec=96, grid_n=32), True),
                     ("bumps_warm", bumps, dict(pieces=4, grid_n=16, prec=96, terms=20), True),
                     ("exp5_cold", 5, dict(terms=10, prec=96, grid_n=16), False)]
        warm_dir = self.workdir / "warm-cache"
        warm_dir.mkdir(parents=True, exist_ok=True)
        self.ops = [ExperimentOp(name, exp_id, overrides, warm, warm_dir)
                    for name, exp_id, overrides, warm in plans]
        for op in self.ops:
            if op.warm:
                # the spectra run_experiment will look up: piecewise profiles as
                # given, analytic ones projected onto cfg.pieces
                cfg = experiments.experiment_config(op.exp_id, **op.overrides)
                for p in experiments.experiment_profiles(op.exp_id).values():
                    if not isinstance(p, PiecewiseProfile):
                        p = profiles.project_midpoint(p, cfg.pieces)
                    cache.cached_spectrum_of(p, cfg.terms, cfg.prec, warm_dir)
        self.warm_snapshot = _snapshot(warm_dir)
        hits = sum(op.profile_count for op in self.ops if op.warm)
        misses = sum(op.profile_count for op in self.ops if not op.warm)
        self.expected_trace = {"cache.hits": hits, "cache.misses": misses}

    def pass_failures(self, scratch):
        return [op.name for op in self.ops if not op.cache_ok(scratch, self.warm_snapshot)]


class FixedPoint(Workload):
    name = "fixed_point"
    expected_trace = {"cache.hits": 0, "cache.misses": 0}

    def setup(self):
        rng = random.Random(self.seed)
        # iterate_born stops after the error grows twice in a row; with two
        # steps that stop coincides with the end, so every seed does the same work
        n_iter = 2
        if self.full:
            params = SolverParams(terms=100, prec=256, pieces=80, grid_n=128)
        else:
            params = SolverParams(terms=20, prec=96, pieces=6, grid_n=32)
        r1 = rng.uniform(0.35, 0.65)
        self.ops = [
            FixedPointOp("gamma_smooth", _cosine_conductivity(rng, 0.15, 3), params, n_iter),
            FixedPointOp("gamma_step", _cond((0.0, r1, 1.0), (rng.uniform(1.3, 2.0), 1.0)),
                         params, n_iter),
        ]


WORKLOADS = {w.name: w for w in (ForwardSweep, BornFromSpectra, ExperimentRerun, FixedPoint)}
