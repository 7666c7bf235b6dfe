"""Arbitrary-precision building blocks: precision checks, exact dyadic reads and
spherical Bessel ladders.

Callers evaluate with 32 guard bits (``GUARD_BITS``) on top of the requested
mantissa precision and round results with :func:`to_prec`; the ladders run at
the caller's working precision.  The mpmath big-float type plays the role of
the extended-precision real number; precision is carried by the caller, not
by the value.

Conventions for the spherical families (order ``k >= 0``, argument ``x > 0``):

* ``i_k(x) = sqrt(pi/(2x)) I_{k+1/2}(x)``   (modified, first kind, regular at 0)
* ``kk_k(x) = sqrt(pi/(2x)) K_{k+1/2}(x)``  (modified, second kind, singular at 0)
* ``j_k(x) = sqrt(pi/(2x)) J_{k+1/2}(x)``   (oscillatory, regular at 0)
* ``y_k(x) = sqrt(pi/(2x)) Y_{k+1/2}(x)``   (oscillatory, singular at 0)

Derivatives follow from the half-integer ladder relations; no numerical
differentiation is used anywhere.
"""

import mpmath
from mpmath import mp, mpf

GUARD_BITS = 32

MIN_PRECISION = 64


def check_precision(prec):
    if int(prec) != prec or prec < MIN_PRECISION:
        raise ValueError(f"precision must be an integer >= {MIN_PRECISION} bits, got {prec!r}")
    return int(prec)


def to_prec(x, prec):
    """Round ``x`` to ``prec`` bits."""
    with mp.workprec(prec):
        return +mpf(x)


def finite_dyadic(x, what):
    """Exact signed (man, exp) of a float or mpf; other types are read at the
    current working precision.  A non-finite x raises ``ValueError`` naming ``what``."""
    sign, man, exp, _ = x._mpf_ if isinstance(x, mpf) else mpf(x)._mpf_
    if not man and exp:
        raise ValueError(f"non-finite {what}: {x!r}")
    return (-man if sign else man), exp


def one_exponent(xi_grid):
    """(e, [(m_n, z_n)]) with xi_n = m_n 2^(e + z_n) exactly and z_n >= 0.

    e is the least exponent of a nonzero node, so N_n = m_n 2^z_n are the nodes
    as integers on one exponent; forming them is left to the caller, since
    nodes far apart in scale make them long.  A zero node reads (0, 0).
    Non-finite nodes raise ``ValueError``.
    """
    X = [finite_dyadic(x, "frequency") for x in xi_grid]
    e = min((xe for xm, xe in X if xm), default=0)
    return e, [(xm, xe - e if xm else 0) for xm, xe in X]


def _sph_from_cyl(kind, k, x):
    # sqrt(pi/(2x)) Z_{k+1/2}(x) at the current working precision
    factor = mpmath.sqrt(mpmath.pi / (2 * x))
    nu = mpf(2 * k + 1) / 2
    return factor * kind(nu, x)


# ---------------------------------------------------------------------------
# Whole-ladder evaluations used by the potential forward solver.  The
# regular family is seeded at the top orders with direct evaluations and
# propagated downward (stable: the regular solution dominates going down);
# the singular family starts from closed forms at orders 0, 1 and goes up.
# Each returns a list of length kmax + 2 so callers can form derivatives via
# the ladder relations.
# ---------------------------------------------------------------------------

def mod_sph_i_ladder(kmax, x):
    """[i_0(x), ..., i_{kmax+1}(x)] at the current working precision."""
    n = kmax + 1
    vals = [mpf(0)] * (n + 2)
    vals[n + 1] = _sph_from_cyl(mpmath.besseli, n + 1, x)
    vals[n] = _sph_from_cyl(mpmath.besseli, n, x)
    for m in range(n, 0, -1):
        # i_{m-1} = i_{m+1} + (2m+1)/x * i_m
        vals[m - 1] = vals[m + 1] + (2 * m + 1) * vals[m] / x
    return vals[: n + 1]


def mod_sph_k_ladder(kmax, x):
    """[kk_0(x), ..., kk_{kmax+1}(x)] at the current working precision."""
    n = kmax + 1
    vals = [mpf(0)] * (n + 1)
    e = mpmath.exp(-x) * mpmath.pi / 2
    vals[0] = e / x
    if n >= 1:
        vals[1] = e * (1 / x + 1 / x**2)
    for m in range(1, n):
        # kk_{m+1} = kk_{m-1} + (2m+1)/x * kk_m
        vals[m + 1] = vals[m - 1] + (2 * m + 1) * vals[m] / x
    return vals


def sph_j_ladder(kmax, x):
    """[j_0(x), ..., j_{kmax+1}(x)] at the current working precision."""
    n = kmax + 1
    vals = [mpf(0)] * (n + 2)
    vals[n + 1] = _sph_from_cyl(mpmath.besselj, n + 1, x)
    vals[n] = _sph_from_cyl(mpmath.besselj, n, x)
    for m in range(n, 0, -1):
        # j_{m-1} = (2m+1)/x * j_m - j_{m+1}
        vals[m - 1] = (2 * m + 1) * vals[m] / x - vals[m + 1]
    return vals[: n + 1]


def sph_y_ladder(kmax, x):
    """[y_0(x), ..., y_{kmax+1}(x)] at the current working precision."""
    n = kmax + 1
    vals = [mpf(0)] * (n + 1)
    c, s = mpmath.cos(x), mpmath.sin(x)
    vals[0] = -c / x
    if n >= 1:
        vals[1] = -c / x**2 - s / x
    for m in range(1, n):
        vals[m + 1] = (2 * m + 1) * vals[m] / x - vals[m - 1]
    return vals
