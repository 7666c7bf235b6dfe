"""On-disk spectrum cache keyed by the exact problem content.

Spectra are expensive at high precision, so every solve can be memoized under
a sha256 key of the exact binary value of every profile input (kind, radius,
breakpoints and values), the term count and the precision.  Only a
piecewise-constant profile has a key: an analytic one names no projection.
Values are stored as decimal strings with enough digits to round-trip the
binary precision; writes go through a temporary file and an atomic rename so
a killed process never leaves a torn entry.
"""

import hashlib
import json
import math
import os
import tempfile
from pathlib import Path

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import from_float, from_int

from .forward import DtnSpectrum
from .highprec import GUARD_BITS, check_precision, to_prec
from .profiles import PiecewiseProfile

CACHE_DIR_ENV = "RADIALBORN_CACHE_DIR"
FORMAT_VERSION = 2


def default_cache_dir():
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "radialborn"


def decimal_digits(prec):
    """Digits needed to round-trip a binary precision: ceil(prec * log10 2) + 2."""
    return int(math.ceil(prec * math.log10(2))) + 2


def _exact(x):
    # exact binary value as a normalized (sign, mantissa, exponent, bits) tuple,
    # so 0.5, mpf(0.5) and mpf("0.5") key alike and no two values collide
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(_exact(v) for v in x) + "]"
    if isinstance(x, mpf):
        return str(x._mpf_)
    if isinstance(x, int):
        return str(from_int(x))
    return str(from_float(float(x)))


def spectrum_key(profile, kmax, prec):
    """sha256 content key of a piecewise-constant profile, stable across processes and paths."""
    if not isinstance(profile, PiecewiseProfile):
        raise TypeError("spectrum_key needs a piecewise-constant profile")
    fields = [f"v{FORMAT_VERSION}", profile.kind.value, _exact(profile.radius), "piecewise",
              _exact(profile.breakpoints), _exact(profile.values), str(kmax),
              str(check_precision(prec))]
    return hashlib.sha256("\n".join(fields).encode("utf-8")).hexdigest()


def _entry_path(cache_dir, key):
    return Path(cache_dir) / f"{key}.json"


def store_spectrum(spec, profile, cache_dir=None):
    """Write a spectrum to the cache; returns the entry path."""
    cache_dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    cache_dir.mkdir(parents=True, exist_ok=True)
    key = spectrum_key(profile, spec.kmax, spec.prec)
    digits = decimal_digits(spec.prec)
    with mp.workprec(spec.prec + GUARD_BITS):
        lambdas = [mp.nstr(mpf(v), digits, strip_zeros=False) for v in spec.lambdas]
        radius = mp.nstr(mpf(spec.radius), digits, strip_zeros=False)
    entry = {
        "version": FORMAT_VERSION,
        "kind": spec.kind.value,
        "radius": radius,
        "kmax": spec.kmax,
        "prec": spec.prec,
        "lambdas": lambdas,
    }
    path = _entry_path(cache_dir, key)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(entry, fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def load_spectrum(profile, kmax, prec, cache_dir=None):
    """Cached spectrum for this exact problem, or None on a miss, a corrupt entry, one
    holding a non-finite number, or one whose version, kind, kmax, prec or lambda
    count does not fit the request."""
    cache_dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    path = _entry_path(cache_dir, spectrum_key(profile, kmax, prec))
    try:
        with open(path) as fh:
            entry = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    try:
        if (entry["version"], entry["kind"], entry["kmax"], entry["prec"], len(entry["lambdas"])) \
                != (FORMAT_VERSION, profile.kind.value, kmax, prec, kmax + 1):
            return None
        with mp.workprec(prec + GUARD_BITS):
            lambdas = tuple(to_prec(mpf(s), prec) for s in entry["lambdas"])
            radius = to_prec(mpf(entry["radius"]), prec)
    except (KeyError, ValueError, TypeError):
        return None
    if not all(mpmath.isfinite(x) for x in (radius, *lambdas)):
        return None
    return DtnSpectrum(profile.kind, radius, lambdas, prec)


def cached_spectrum_of(profile, kmax, prec, cache_dir=None, solver=None):
    """Cache-through solve: load on hit, otherwise solve and store."""
    hit = load_spectrum(profile, kmax, prec, cache_dir)
    if hit is not None:
        return hit
    if solver is None:
        from .forward import spectrum_of as solver
    spec = solver(profile, kmax, prec)
    store_spectrum(spec, profile, cache_dir)
    return spec
