"""Radial profile data model: piecewise-constant and analytic descriptors.

A profile is either a :class:`PiecewiseProfile` (breakpoints + per-piece
values on [0, R], pieces right-closed) or an :class:`AnalyticProfile`
(named formula with parameters).  Conductivities have background 1,
potentials background 0.  Midpoint projection turns a formula into the forward
solver's piecewise-constant form and passes a staircase through unchanged.  An
``AnalyticProfile`` rejects an unknown, misspelt or missing parameter when made.

Text format (one profile per file, UTF-8, line oriented)::

    kind potential|conductivity
    radius <decimal>
    breakpoints <r0> <r1> ... <rm>
    values <v1> ... <vm>

or, for a built-in analytic descriptor::

    kind conductivity
    radius 1
    analytic exp3_profile

Built-ins: bump, annular_bump, cosine_series, exp3_profile.  A staircase
(a constant or a step) is written with ``breakpoints``/``values``, which keep
its jumps exact; a formula would be midpoint-projected and move them.
Blank lines and lines starting with '#' are ignored.
"""

import math
import numbers
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum

from .highprec import read_decimal, to_decimal

PARSE_PREC = 64      # bits at which the text format's decimals are written and read


class ProfileKind(Enum):
    POTENTIAL = "potential"
    CONDUCTIVITY = "conductivity"

    @property
    def background(self):
        return 0.0 if self is ProfileKind.POTENTIAL else 1.0


class ProfileFormatError(ValueError):
    """Malformed profile text; carries the offending line number."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


@dataclass(frozen=True)
class PiecewiseProfile:
    """Radial piecewise-constant function: value j on (r_{j-1}, r_j].

    The value at r = 0 is the first piece's value.  Breakpoints are strictly
    increasing with first 0 and last R.
    """

    kind: ProfileKind
    radius: float
    breakpoints: tuple
    values: tuple

    def __post_init__(self):
        bp, vals = tuple(self.breakpoints), tuple(self.values)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)
        # x - x is 0 for every finite float or mpf and NaN otherwise, without
        # the float conversion that would overflow on a large mpf
        if any(x - x != 0 for x in (self.radius, *bp, *vals)):
            raise ValueError("radius, breakpoints and values must be finite")
        if len(bp) < 2:
            raise ValueError("need at least two breakpoints")
        if len(vals) != len(bp) - 1:
            raise ValueError(f"{len(bp)} breakpoints require {len(bp)-1} values, got {len(vals)}")
        if bp[0] != 0:
            raise ValueError("first breakpoint must be 0")
        if not all(b > a for a, b in zip(bp, bp[1:])):
            raise ValueError("breakpoints not increasing")
        if bp[-1] != self.radius:
            raise ValueError("last breakpoint must equal the radius")
        if self.kind is ProfileKind.CONDUCTIVITY and any(v <= 0 for v in vals):
            raise ValueError("conductivity values must be positive")

    @property
    def piece_count(self):
        return len(self.values)

    def __call__(self, r):
        if not 0 <= r <= float(self.radius):
            raise ValueError(f"r = {r} outside [0, {self.radius}]")
        # value j on (r_{j-1}, r_j], the first at r = 0; min() covers R < r <= float(R)
        return self.values[min(bisect_left(self.breakpoints, r, 1), len(self.values)) - 1]


@dataclass(frozen=True)
class AnalyticProfile:
    """Named radial formula, evaluable anywhere on [0, R]."""

    kind: ProfileKind
    radius: float
    name: str
    params: dict

    def __post_init__(self):
        if self.name not in _ANALYTIC_BUILTINS:
            raise ValueError(f"unknown analytic descriptor {self.name!r}")
        _, needs, optional = _ANALYTIC_BUILTINS[self.name]
        for key in self.params:
            if key not in needs + optional:
                raise ValueError(f"{self.name} has no parameter {key!r}")
        for key in needs:
            if key not in self.params:
                raise ValueError(f"analytic descriptor {self.name!r} needs parameter {key}")

    def __call__(self, r):
        if not 0 <= r <= float(self.radius):
            raise ValueError(f"r = {r} outside [0, {self.radius}]")
        return _ANALYTIC_BUILTINS[self.name][0](float(r), float(self.radius), self.params)


def _eval_bump(r, R, p):
    # smooth bump of height `height` supported in [0, support], plus `offset`
    a = p.get("support", R)
    h = p.get("height", 1.0)
    off = p.get("offset", 0.0)
    t = r / a
    if t >= 1.0:
        return off
    return off + h * math.exp(1.0 - 1.0 / (1.0 - t * t))


def _eval_annular_bump(r, R, p):
    # smooth bump supported in [inner, outer]; vanishes near r = 0
    a, b = p["inner"], p["outer"]
    h = p.get("height", 1.0)
    off = p.get("offset", 0.0)
    if r <= a or r >= b:
        return off
    t = (2.0 * r - a - b) / (b - a)  # in (-1, 1)
    return off + h * math.exp(1.0 - 1.0 / (1.0 - t * t))


def _eval_cosine_series(r, R, p):
    coeffs = p["c"]
    s = p.get("offset", 0.0)
    x = r / R
    for j, c in enumerate(coeffs, start=1):
        s += c * math.sqrt(2.0) * math.cos(math.pi * (j - 0.5) * x)
    return s


def _eval_exp3(r, R, p):
    # Lipschitz ramp 2.5 - r; slope -1 on [0, 1]
    return 2.5 - r


# each built-in's formula, the parameters it needs and those it may also take
_ANALYTIC_BUILTINS = {
    "bump": (_eval_bump, (), ("height", "support", "offset")),
    "annular_bump": (_eval_annular_bump, ("inner", "outer"), ("height", "offset")),
    "cosine_series": (_eval_cosine_series, ("c",), ("offset",)),
    "exp3_profile": (_eval_exp3, (), ()),
}

def project_midpoint(profile, m):
    """Midpoint projection of a formula onto m equal pieces; a staircase is returned as it is."""
    if not isinstance(m, numbers.Integral) or m < 1:
        raise ValueError(f"piece count must be an integer >= 1, got {m!r}")
    if isinstance(profile, PiecewiseProfile):
        return profile
    R = float(profile.radius)
    h = R / m
    breakpoints = tuple(j * h for j in range(m)) + (R,)
    values = tuple(profile((j + 0.5) * h) for j in range(m))
    return PiecewiseProfile(profile.kind, R, breakpoints, values)


# -- text serialization ------------------------------------------------------

def serialize_profile(p):
    """The text format of a profile, each number as ``to_decimal(x, PARSE_PREC)``, which
    ``parse_profile`` reads back exactly when x has at most ``PARSE_PREC`` bits."""
    lines = [f"kind {p.kind.value}", f"radius {to_decimal(p.radius, PARSE_PREC)}"]
    if isinstance(p, PiecewiseProfile):
        lines.append("breakpoints " + " ".join(to_decimal(b, PARSE_PREC) for b in p.breakpoints))
        lines.append("values " + " ".join(to_decimal(v, PARSE_PREC) for v in p.values))
    else:
        parts = [p.name]
        for key, val in p.params.items():
            if isinstance(val, (list, tuple)):
                parts.append(f"{key}=[{','.join(to_decimal(v, PARSE_PREC) for v in val)}]")
            else:
                parts.append(f"{key}={to_decimal(val, PARSE_PREC)}")
        lines.append("analytic " + " ".join(parts))
    return "\n".join(lines) + "\n"


def _parse_decimal(tok, lineno):
    try:
        return read_decimal(tok, PARSE_PREC)
    except ValueError as e:
        raise ProfileFormatError(str(e), lineno) from None


def _parse_param(tok, lineno):
    # one key=value or key=[v1,v2,...] token of an analytic line
    key, eq, val = tok.partition("=")
    if not eq:
        raise ProfileFormatError(f"expected key=value, got {tok!r}", lineno)
    if not val.startswith("["):
        return key, float(_parse_decimal(val, lineno))
    if not val.endswith("]"):
        raise ProfileFormatError(f"unterminated list in {tok!r}", lineno)
    return key, [float(_parse_decimal(v, lineno)) for v in val[1:-1].split(",") if v]


def parse_profile(text):
    """Parse the profile text format into a profile object.

    Decimals are read at ``PARSE_PREC`` bits.  Errors carry the line number.
    """
    kind = radius = breakpoints = values = analytic = analytic_line = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        word, _, rest = line.partition(" ")
        rest = rest.strip()
        if word == "kind":
            try:
                kind = ProfileKind(rest)
            except ValueError:
                raise ProfileFormatError(f"unknown kind {rest!r}", lineno) from None
        elif word == "radius":
            radius = _parse_decimal(rest, lineno)
        elif word == "breakpoints":
            breakpoints = [_parse_decimal(t, lineno) for t in rest.split()]
        elif word == "values":
            values = [_parse_decimal(t, lineno) for t in rest.split()]
        elif word == "analytic":
            name, *pairs = rest.split() or [""]
            analytic = (name, dict(_parse_param(tok, lineno) for tok in pairs))
            analytic_line = lineno
        else:
            raise ProfileFormatError(f"unknown directive {word!r}", lineno)
    if kind is None:
        raise ProfileFormatError("missing 'kind' line")
    if radius is None:
        raise ProfileFormatError("missing 'radius' line")
    if analytic is None and (breakpoints is None or values is None):
        raise ProfileFormatError("need breakpoints+values or an analytic line")
    try:
        if analytic is not None:
            return AnalyticProfile(kind, radius, *analytic)
        return PiecewiseProfile(kind, radius, tuple(breakpoints), tuple(values))
    except ValueError as exc:
        raise ProfileFormatError(str(exc), analytic_line) from None
