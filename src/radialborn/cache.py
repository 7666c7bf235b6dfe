"""On-disk spectrum cache keyed by the exact problem content.

Spectra are expensive at high precision, so every solve can be memoized under
a sha256 key of the exact binary value of every profile input (kind, radius,
breakpoints and values), the term count and the precision.  Only a
piecewise-constant profile has a key: an analytic one names no projection.
Values are stored in the decimal form of ``highprec.to_decimal``, which
round-trips the binary precision, and are read with ``highprec.read_decimal``,
which takes text only: an entry whose lambdas are anything else, such as JSON
numbers that would read at 53 bits, is a miss.  Writes go through a temporary
file and an atomic rename so a killed process never leaves a torn entry.
Entries live in the ``cache_dir`` a call passes, else in
``$RADIALBORN_CACHE_DIR``, else in ``~/.cache/radialborn``.
"""

import hashlib
import json
import os
import tempfile
from pathlib import Path

from mpmath import mpf
from mpmath.libmp import from_float, from_int

from .forward import DtnSpectrum, spectrum_of
from .highprec import check_precision, read_decimal, to_decimal
from .profiles import PiecewiseProfile

CACHE_DIR_ENV = "RADIALBORN_CACHE_DIR"
FORMAT_VERSION = 2


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
    if cache_dir is None:
        cache_dir = os.environ.get(CACHE_DIR_ENV) or Path.home() / ".cache" / "radialborn"
    return Path(cache_dir) / f"{key}.json"


def store_spectrum(spec, profile, cache_dir=None):
    """Write a spectrum to the cache; returns the entry path."""
    path = _entry_path(cache_dir, spectrum_key(profile, spec.kmax, spec.prec))
    path.parent.mkdir(parents=True, exist_ok=True)
    entry = {
        "version": FORMAT_VERSION,
        "kind": spec.kind.value,
        "kmax": spec.kmax,
        "prec": spec.prec,
        "lambdas": [to_decimal(v, spec.prec) for v in spec.lambdas],
    }
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
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
    holding a non-finite number or a lambda that is not text, or one whose version,
    kind, kmax, prec or lambda count does not fit the request."""
    prec = check_precision(prec)
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
        lambdas = tuple(read_decimal(s, prec) for s in entry["lambdas"])
    except (KeyError, ValueError, TypeError):
        return None
    # the key holds the exact radius, so a hit carries the profile's own, as a solve does
    return DtnSpectrum(profile.kind, profile.radius, lambdas, prec)


def cached_spectrum_of(profile, kmax, prec, cache_dir=None):
    """Cache-through solve: load on hit, otherwise solve and store."""
    hit = load_spectrum(profile, kmax, prec, cache_dir)
    if hit is not None:
        return hit
    spec = spectrum_of(profile, kmax, prec)
    store_spectrum(spec, profile, cache_dir)
    return spec
