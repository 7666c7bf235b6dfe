"""Spans at the radialborn module boundaries, taken from outside the package.

A :class:`Tracer` replaces each layer's public functions, at every name a
caller looks them up by (``radialborn.reconstruct.spectrum_of``,
``radialborn.forward.mod_sph_i_ladder``, ``radialborn.experiments.cached_spectrum_of``
and so on), with a wrapper that records a span: name, start, end, parent span
and pass id, plus the exact work counts of that call.  Spans stay in memory
until the run writes them out.  Uninstalling puts every original function
back, so untraced runs execute the package exactly as shipped.
"""

import functools
import hashlib
import inspect
import json
import statistics
import time
from pathlib import Path

LAYER_FUNCTIONS = {
    "profiles": ("project_midpoint", "parse_profile", "serialize_profile"),
    "highprec": ("mod_sph_i_ladder", "mod_sph_k_ladder", "sph_j_ladder", "sph_y_ladder"),
    "forward": ("spectrum_of", "potential_spectrum", "conductivity_spectrum",
                "transfer_radius", "untransfer_radius"),
    "born": ("born_potential_fourier", "born_conductivity_fourier", "eval_series_L",
             "eval_series_L_grid", "series_coefficients", "moment_sequence_exact"),
    "fourier": ("forward_radial_ft", "inverse_radial_ft"),
    "reconstruct": ("born_samples", "samples_to_profile", "iterate_born",
                    "ensemble_depth_profile"),
    "cache": ("load_spectrum", "store_spectrum", "cached_spectrum_of"),
    "experiments": ("run_experiment",),
}

# name -> unit; BENCHMARK.json lists the same names under per_layer.
PER_LAYER_METRICS = {
    "forward.solve_self_s": "s",
    "forward.solves": "count",
    "forward.work_units": "count",
    "forward.units_per_s": "1/s",
    "forward.collisions": "count",
    "highprec.ladder_s": "s",
    "highprec.ladder_calls": "count",
    "born.series_s": "s",
    "born.calls": "count",
    "born.node_terms": "count",
    "born.unique_ratio": "ratio",
    "fourier.forward_ft_s": "s",
    "fourier.forward_ft_piece_nodes": "count",
    "fourier.inverse_s": "s",
    "fourier.inverse_calls": "count",
    "reconstruct.born_samples_self_s": "s",
    "reconstruct.project_s": "s",
    "reconstruct.iterate_step_s": "s",
    "reconstruct.iterations": "count",
    "profiles.project_s": "s",
    "profiles.project_calls": "count",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_ratio": "ratio",
    "cache.load_s": "s",
    "cache.store_s": "s",
    "experiments.self_s": "s",
    "experiments.files_written": "count",
    "experiments.bytes_written": "count",
    "trace.wall_ref_s": "s",
    "trace.overhead_ref_s": "s",
}

# Counts that must repeat exactly between passes and between runs.
EXACT_COUNTS = ("forward.solves", "forward.work_units", "forward.collisions",
                "highprec.ladder_calls", "born.calls", "born.node_terms",
                "fourier.forward_ft_piece_nodes", "fourier.inverse_calls",
                "reconstruct.iterations", "profiles.project_calls", "cache.hits",
                "cache.misses", "experiments.files_written", "experiments.bytes_written")

_SOLVES = ("forward.potential_spectrum", "forward.conductivity_spectrum")
_BORN_CALLS = ("born.born_potential_fourier", "born.born_conductivity_fourier")


def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _born_info(a, result):
    spec = a["spec"]
    key = (spec.kind.value, float(spec.radius), tuple(x._mpf_ for x in spec.lambdas),
           tuple(float(x) for x in a["xi_grid"]), a["mode"], a["R"], a["d"], a["prec"])
    return {"node_terms": len(a["xi_grid"]) * len(spec.lambdas), "key": _digest(key)}


def _experiment_info(a, result):
    return {"files": len(result), "bytes": sum(Path(p).stat().st_size for p in result)}


# span name -> info(bound arguments, result) with the exact counts of the call
_INFO = {
    "forward.potential_spectrum": lambda a, r: {"work_units": a["q"].piece_count * (a["kmax"] + 1)},
    "forward.conductivity_spectrum": lambda a, r: {"work_units": a["g"].piece_count * (a["kmax"] + 1)},
    "born.born_potential_fourier": _born_info,
    "born.born_conductivity_fourier": _born_info,
    "fourier.forward_radial_ft": lambda a, r: {"piece_nodes": a["f"].piece_count * len(a["xi_grid"])},
    "cache.load_spectrum": lambda a, r: {"hit": r is not None},
    "reconstruct.iterate_born": lambda a, r: {"iterations": len(r.iterates) - 1},
    "experiments.run_experiment": _experiment_info,
}


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "pass_id", "info", "error",
                 "duration")

    def __init__(self, name, layer, parent, pass_id):
        self.name, self.layer, self.parent, self.pass_id = name, layer, parent, pass_id
        self.start = self.end = self.duration = 0.0
        self.info = None
        self.error = None


class Tracer:
    """Records spans of the wrapped functions; ``pass_id`` tags each span.

    ``pauses`` holds (start, seconds) of calibration slices that ran inside
    spans; a span's duration excludes the pauses that started within it.
    """

    def __init__(self):
        self.spans = []
        self.pauses = []
        self.pass_id = None
        self._stack = []
        self.installed = []  # (module, attribute, original function)

    def _wrap(self, layer, fn):
        name = f"{layer}.{fn.__name__}"
        info = _INFO.get(name)
        signature = inspect.signature(fn) if info else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, layer, self._stack[-1] if self._stack else None, self.pass_id)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if info is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.info = info(bound.arguments, result)
            return result

        return traced

    def install(self, package):
        """Wrap every lookup of the layer functions in ``package`` and its modules."""
        if self.installed:
            raise RuntimeError("tracer already installed")
        modules = [package] + [getattr(package, layer) for layer in LAYER_FUNCTIONS]
        wrappers = {}
        for layer, names in LAYER_FUNCTIONS.items():
            for n in names:
                fn = getattr(getattr(package, layer), n)
                wrappers[id(fn)] = (fn, self._wrap(layer, fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                pair = wrappers.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(module, attr, pair[1])
                    self.installed.append((module, attr, value))

    def uninstall(self):
        """Put every original function back; returns the (module, name, original) list."""
        restored = list(self.installed)
        for module, attr, original in reversed(restored):
            setattr(module, attr, original)
        self.installed.clear()
        return restored

    def write(self, path):
        """Write all spans as JSON lines; start and end are seconds from the first span.

        ``duration`` is end - start less the calibration slices run inside.
        """
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start - t0,
                                     "end": s.end - t0, "duration": s.duration,
                                     "parent": s.parent,
                                     "pass": s.pass_id, "info": s.info,
                                     "error": s.error}) + "\n")

    def pass_metrics(self, pass_id):
        """Per-layer metrics of one pass (everything but the trace.* entries)."""
        index = [i for i, s in enumerate(self.spans) if s.pass_id == pass_id]
        for i in index:
            span = self.spans[i]
            span.duration = span.end - span.start - sum(
                d for start, d in self.pauses if span.start <= start < span.end)
        child = dict.fromkeys(index, 0.0)
        for i in index:
            parent = self.spans[i].parent
            if parent is not None and parent in child:
                child[parent] += self.spans[i].duration
        spans = [(self.spans[i], self.spans[i].duration - child[i]) for i in index]

        def self_time(pred):
            return sum(own for s, own in spans if pred(s))

        def total(names):
            return sum(s.duration for s, _ in spans if s.name in names)

        def count(names):
            return sum(1 for s, _ in spans if s.name in names)

        def info_sum(names, key):
            return sum(s.info[key] for s, _ in spans
                       if s.name in names and s.info is not None)

        m = {}
        m["forward.solve_self_s"] = self_time(lambda s: s.layer == "forward")
        m["forward.solves"] = count(_SOLVES)
        m["forward.work_units"] = info_sum(_SOLVES, "work_units")
        solve_s = sum(s.duration for s, _ in spans if s.name in _SOLVES
                      and (s.parent is None or self.spans[s.parent].name not in _SOLVES))
        m["forward.units_per_s"] = m["forward.work_units"] / solve_s if solve_s else 0.0
        m["forward.collisions"] = sum(1 for s, _ in spans
                                      if s.error == "DirichletCollisionError" and s.name in _SOLVES)
        m["highprec.ladder_s"] = self_time(lambda s: s.layer == "highprec")
        m["highprec.ladder_calls"] = sum(1 for s, _ in spans if s.layer == "highprec")
        m["born.series_s"] = self_time(lambda s: s.layer == "born")
        m["born.calls"] = count(_BORN_CALLS)
        m["born.node_terms"] = info_sum(_BORN_CALLS, "node_terms")
        keys = [s.info["key"] for s, _ in spans if s.name in _BORN_CALLS and s.info]
        m["born.unique_ratio"] = len(set(keys)) / len(keys) if keys else 0.0
        m["fourier.forward_ft_s"] = total(("fourier.forward_radial_ft",))
        m["fourier.forward_ft_piece_nodes"] = info_sum(("fourier.forward_radial_ft",), "piece_nodes")
        m["fourier.inverse_s"] = total(("fourier.inverse_radial_ft",))
        m["fourier.inverse_calls"] = count(("fourier.inverse_radial_ft",))
        m["reconstruct.born_samples_self_s"] = self_time(lambda s: s.name == "reconstruct.born_samples")
        m["reconstruct.project_s"] = total(("reconstruct.samples_to_profile",))
        m["reconstruct.iterations"] = info_sum(("reconstruct.iterate_born",), "iterations")
        iterate_s = total(("reconstruct.iterate_born",))
        m["reconstruct.iterate_step_s"] = (iterate_s / m["reconstruct.iterations"]
                                           if m["reconstruct.iterations"] else 0.0)
        m["profiles.project_s"] = total(("profiles.project_midpoint",))
        m["profiles.project_calls"] = count(("profiles.project_midpoint",))
        loads = [s.info["hit"] for s, _ in spans if s.name == "cache.load_spectrum" and s.info]
        m["cache.hits"] = sum(loads)
        m["cache.misses"] = len(loads) - m["cache.hits"]
        m["cache.hit_ratio"] = m["cache.hits"] / len(loads) if loads else 0.0
        m["cache.load_s"] = total(("cache.load_spectrum",))
        m["cache.store_s"] = total(("cache.store_spectrum",))
        m["experiments.self_s"] = self_time(lambda s: s.layer == "experiments")
        m["experiments.files_written"] = info_sum(("experiments.run_experiment",), "files")
        m["experiments.bytes_written"] = info_sum(("experiments.run_experiment",), "bytes")
        return m


def summarize(per_pass):
    """Median of each metric over passes; exact counts are taken from the first pass."""
    out = {}
    for name in per_pass[0]:
        values = [p[name] for p in per_pass]
        out[name] = values[0] if name in EXACT_COUNTS else statistics.median(values)
    return out
