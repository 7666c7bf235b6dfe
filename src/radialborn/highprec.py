"""Arbitrary-precision building blocks: precision checks, exact dyadic reads and
spherical Bessel ladders.

Callers evaluate with 32 guard bits (``GUARD_BITS``) on top of the requested
mantissa precision and round results with :func:`to_prec`.  The ladders seed
with mpmath at the caller's working precision, run their three-term
recurrence in Python integers on F = working precision + 16 + bit_length(n)
bits, and round each value once, to the working precision.  The mpmath
big-float type plays the role of the extended-precision real number;
precision is carried by the caller, not by the value.

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
from mpmath.libmp import MPZ, normalize, round_nearest

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
# All four steps are f_next = sigma f_prev + (2m+1) f_m / x, run by
# _recurrence in integers on F = mp.prec + 16 + bit_length(n) bits; each
# value is rounded once, to the working precision.  Each ladder returns a list
# of length kmax + 2 so callers can form derivatives via the ladder relations.
# ---------------------------------------------------------------------------

def _recurrence(prev, cur, x, orders, sigma):
    """[f_next for m in orders] of f_next = sigma f_prev + (2m+1) f_m / x from the
    seeds (prev, cur), each an mpf rounded once to the working precision.

    x is read once as an exact dyadic and 1/x becomes one fixed-point integer
    W 2^-s with F + 1 bits.  The running pair (P, C) are ints on one exponent E;
    both shift right whenever the larger grows past F bits, so every step keeps
    F bits of the larger, and the bit_length(n) + 16 bits above mp.prec cover
    the few floors of each of the n steps.  A step's value is recorded as the
    exact (N, E) before that shift.  The seeds are the caller's and are not
    rounded again.
    """
    prec = mp.prec
    F = prec + 16 + len(orders).bit_length()
    xm, xe = finite_dyadic(x, "ladder argument")
    W = (1 << F + xm.bit_length()) // xm
    s = F + xm.bit_length() + xe
    if s < 0:  # x below 2^-(F+1): the left shift goes into W once
        W, s = W << -s, 0
    seeds = [finite_dyadic(v, "ladder seed") for v in (prev, cur)]
    # the larger seed at F bits: the smaller may lose bits here, which lie
    # below the F bits the pair carries
    E = max(se + sm.bit_length() for sm, se in seeds) - F
    P, C = (sm << se - E if se >= E else sm >> E - se for sm, se in seeds)
    out = []
    for m in orders:
        N = sigma * P + ((2 * m + 1) * C * W >> s)
        a = MPZ(abs(N))  # normalize is from_man_exp without its conversions
        out.append(mp.make_mpf(normalize(int(N < 0), a, E, a.bit_length(), prec, round_nearest)))
        b = max(C.bit_length(), N.bit_length()) - F
        if b > 0:
            C, N, E = C >> b, N >> b, E + b
        P, C = C, N
    return out


def mod_sph_i_ladder(kmax, x):
    """[i_0(x), ..., i_{kmax+1}(x)] at the current working precision."""
    n = kmax + 1
    top, below = (_sph_from_cyl(mpmath.besseli, m, x) for m in (n + 1, n))
    # i_{m-1} = i_{m+1} + (2m+1)/x * i_m
    return _recurrence(top, below, x, range(n, 0, -1), 1)[::-1] + [below]


def mod_sph_k_ladder(kmax, x):
    """[kk_0(x), ..., kk_{kmax+1}(x)] at the current working precision."""
    e = mpmath.exp(-x) * mpmath.pi / 2
    k0, k1 = e / x, e * (1 / x + 1 / x**2)
    # kk_{m+1} = kk_{m-1} + (2m+1)/x * kk_m
    return [k0, k1] + _recurrence(k0, k1, x, range(1, kmax + 1), 1)


def sph_j_ladder(kmax, x):
    """[j_0(x), ..., j_{kmax+1}(x)] at the current working precision."""
    n = kmax + 1
    top, below = (_sph_from_cyl(mpmath.besselj, m, x) for m in (n + 1, n))
    # j_{m-1} = (2m+1)/x * j_m - j_{m+1}
    return _recurrence(top, below, x, range(n, 0, -1), -1)[::-1] + [below]


def sph_y_ladder(kmax, x):
    """[y_0(x), ..., y_{kmax+1}(x)] at the current working precision."""
    c, s = mpmath.cos(x), mpmath.sin(x)
    y0, y1 = -c / x, -c / x**2 - s / x
    # y_{m+1} = (2m+1)/x * y_m - y_{m-1}
    return [y0, y1] + _recurrence(y0, y1, x, range(1, kmax + 1), -1)
