"""Arbitrary-precision building blocks: precision checks, exact dyadic reads, the
decimal form of a value in a file and spherical Bessel ladders.

Callers evaluate with 32 guard bits (``GUARD_BITS``) on top of the requested
mantissa precision and round results with :func:`to_prec`.  The Bessel
ladders run their three-term recurrence in Python integers on
F = working precision + 16 + bit_length(n) bits and return each value as the
exact pair (N, E), value = N 2^E, that the recurrence forms; nothing is
rounded to an mpf.  The regular ladders start by Miller's backward
recurrence and are scaled once to a closed form; only where x is so large
that this start needs more than ``MILLER_ORDERS`` extra orders do they start
from two mpmath Bessel values instead.  The mpmath big-float type plays the
role of the extended-precision real number; precision is carried by the
caller, not by the value.

Conventions for the spherical families (order ``k >= 0``, argument ``x > 0``):

* ``i_k(x) = sqrt(pi/(2x)) I_{k+1/2}(x)``   (modified, first kind, regular at 0)
* ``kk_k(x) = sqrt(pi/(2x)) K_{k+1/2}(x)``  (modified, second kind, singular at 0)
* ``j_k(x) = sqrt(pi/(2x)) J_{k+1/2}(x)``   (oscillatory, regular at 0)
* ``y_k(x) = sqrt(pi/(2x)) Y_{k+1/2}(x)``   (oscillatory, singular at 0)

Derivatives follow from the half-integer ladder relations; no numerical
differentiation is used anywhere.
"""

import math
import numbers

import mpmath
from mpmath import mp, mpf

GUARD_BITS = 32

MIN_PRECISION = 64


def check_precision(prec):
    if not isinstance(prec, numbers.Integral) or prec < MIN_PRECISION:
        raise ValueError(f"precision must be an integer >= {MIN_PRECISION} bits, got {prec!r}")
    return int(prec)


def to_prec(x, prec):
    """Round ``x`` to ``prec`` bits."""
    with mp.workprec(prec):
        return +mpf(x)


def decimal_digits(prec):
    """Digits needed to round-trip a binary precision: ceil(prec * log10 2) + 2."""
    return int(math.ceil(prec * math.log10(2))) + 2


def to_decimal(x, bits):
    """``x`` in ``decimal_digits(bits)`` digits, which ``read_decimal`` at ``bits`` reads
    back exactly when x has at most ``bits`` bits; a number that is not an mpf is
    taken at ``bits + GUARD_BITS`` bits."""
    x = x if isinstance(x, mpf) else to_prec(x, bits + GUARD_BITS)
    return mpmath.nstr(x, decimal_digits(bits), strip_zeros=False)


def read_decimal(text, bits):
    """The decimal ``text`` rounded once to ``bits`` bits.  Raises ``ValueError`` on
    text that is not a number and on NaN or an infinity."""
    with mp.workprec(bits):
        x = mpf(text)
    if not mpmath.isfinite(x):
        raise ValueError(f"value must be finite, got {text!r}")
    return x


def finite_dyadic(x, what):
    """Exact signed (man, exp) of a float or mpf; other types are read at the
    current working precision.  A non-finite x raises ``ValueError`` naming ``what``."""
    return raw_dyadic(x._mpf_ if isinstance(x, mpf) else mpf(x)._mpf_, what)


def raw_dyadic(t, what):
    """Exact signed (man, exp) of a raw mpf tuple; NaN or an infinity raises
    ``ValueError`` naming ``what``."""
    sign, man, exp, _ = t
    if not man and exp:
        raise ValueError(f"non-finite {what}: {mp.make_mpf(t)}")
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
# Whole-ladder evaluations used by the potential forward solver.  All four
# steps are f_next = sigma f_prev + (2m+1) f_m / x, run by _recurrence in
# integers on F = mp.prec + 16 + bit_length(n) bits, and every ladder value is
# the exact (N, E) that step forms, f = N 2^E.  The singular family starts from
# closed forms at orders 0, 1 and goes up.  The regular family goes down (stable:
# the regular solution dominates going down) from a Miller start f_{M+1}, f_M =
# 0, 1 and is scaled once to a closed form at order 0 or 1; where that start
# needs more than MILLER_ORDERS orders above the ladder, it goes down from
# mpmath values at the top two orders instead.  Each ladder returns a list of
# length kmax + 2 so callers can form derivatives via the ladder relations.
# ---------------------------------------------------------------------------

MILLER_ORDERS = 1000


def _recurrence(prev, cur, x, orders, sigma):
    """[(N, E) for m in orders]: f_next = N 2^E of f_next = sigma f_prev + (2m+1) f_m / x
    from the seeds (prev, cur), each an exact (man, exp).

    x is read once as an exact dyadic and 1/x becomes one fixed-point integer
    W 2^-s with F + 1 bits.  The running pair (P, C) are ints on one exponent E;
    both shift right whenever the larger grows past F bits, so every step keeps
    F bits of the larger, and the bit_length(n) + 16 bits above mp.prec cover
    the few floors of each of the n steps.  A step's value is recorded as the
    exact (N, E) before that shift.
    """
    F = mp.prec + 16 + len(orders).bit_length()
    xm, xe = finite_dyadic(x, "ladder argument")
    W = (1 << F + xm.bit_length()) // xm
    s = F + xm.bit_length() + xe
    if s < 0:  # x below 2^-(F+1): the left shift goes into W once
        W, s = W << -s, 0
    # the larger seed at F bits: the smaller may lose bits here, which lie
    # below the F bits the pair carries
    E = max(se + sm.bit_length() for sm, se in (prev, cur)) - F
    P, C = (sm << se - E if se >= E else sm >> E - se for sm, se in (prev, cur))
    out = []
    for m in orders:
        N = sigma * P + ((2 * m + 1) * C * W >> s)
        out.append((N, E))
        b = max(C.bit_length(), N.bit_length()) - F
        if b > 0:
            C, N, E = C >> b, N >> b, E + b
        P, C = C, N
    return out


def _start_order(kmax, x, sigma):
    """The Miller start order M >= kmax + 2 of the regular ladder, or None past
    kmax + 1 + MILLER_ORDERS.

    The start (0, 1) at orders (M + 1, M) is the regular solution plus a multiple
    of the singular one g (kk_k for sigma = 1, y_k for sigma = -1) whose share at
    orders 0..kmax+1 is at most (g_first / g_{M+1})^2, where g_first = g_{kmax+1}
    for kk_k, and for y_k the order past both kmax + 1 and x, below which y_k
    oscillates with j_k.  M is the first order at which that share falls below
    2^-(mp.prec + 16).  The ratios g_{m+1} / g_m run up in floats from g_1 / g_0.
    """
    need = mp.prec + 16
    xf = min(max(float(x), 2.0 ** -1000), 2.0 ** 1000)
    first = kmax + 1 if sigma > 0 else max(kmax + 1, math.ceil(xf))
    rho = 1 / xf + (1 if sigma > 0 else math.tan(xf))
    gain = 0.0
    for m in range(kmax + 2 + MILLER_ORDERS):
        if m >= first:
            gain += 2 * math.log2(abs(rho))
            if gain >= need and m > kmax + 1:
                return m
        rho = (2 * m + 3) / xf + sigma / (rho or 2.0 ** -1000)
    return None


def _regular_ladder(kmax, x, sigma, bessel, closed_form):
    """[f_0, ..., f_{kmax+1}] of the regular family as exact (N, E) pairs, going down.

    From a Miller start, scaled by one F-bit factor, F = mp.prec + 16, so that
    f_i reads the closed form: closed_form(vals) gives (i, f_i) at F bits from
    the unscaled pairs.  Past the start's reach, from the mpmath ``bessel`` at
    orders kmax + 2 and kmax + 1.
    """
    n = kmax + 1
    M = _start_order(kmax, x, sigma)
    if M is None:
        top, below = (finite_dyadic(_sph_from_cyl(bessel, m, x), "ladder seed")
                      for m in (n + 1, n))
        return _recurrence(top, below, x, range(n, 0, -1), sigma)[::-1] + [below]
    vals = _recurrence((0, 0), (1, 0), x, range(M, 0, -1), sigma)[::-1][:n + 1]
    F = mp.prec + 16
    with mp.workprec(F):
        i, exact = closed_form(vals)
        cm, ce = finite_dyadic(exact, "ladder scale")
    rm, re = vals[i]
    g = F + rm.bit_length() - cm.bit_length()
    S = (cm << g) // rm
    return [(N * S >> F, E + ce - re - g + F) for N, E in vals]


def mod_sph_i_ladder(kmax, x):
    """[i_0(x), ..., i_{kmax+1}(x)] as exact (N, E) pairs, i_k = N 2^E."""
    # i_{m-1} = i_{m+1} + (2m+1)/x * i_m, scaled to i_0 = sinh x / x
    return _regular_ladder(kmax, x, 1, mpmath.besseli, lambda vals: (0, mpmath.sinh(x) / x))


def mod_sph_k_ladder(kmax, x):
    """[kk_0(x), ..., kk_{kmax+1}(x)] as exact (N, E) pairs."""
    e = mpmath.exp(-x) * mpmath.pi / 2
    k0, k1 = (finite_dyadic(v, "ladder seed") for v in (e / x, e * (1 / x + 1 / x**2)))
    # kk_{m+1} = kk_{m-1} + (2m+1)/x * kk_m
    return [k0, k1] + _recurrence(k0, k1, x, range(1, kmax + 1), 1)


def sph_j_ladder(kmax, x):
    """[j_0(x), ..., j_{kmax+1}(x)] as exact (N, E) pairs."""
    def closed_form(vals):
        # j_0 = sin x / x, or j_1 = (j_0 - cos x) / x where j_0 is the smaller by
        # a bit or more: j_1 cancels to nothing as x -> 0, and j_0 = 0 at x = n pi
        (n0, e0), (n1, e1) = vals[:2]
        if n0.bit_length() + e0 >= n1.bit_length() + e1:
            return 0, mpmath.sin(x) / x
        return 1, (mpmath.sin(x) / x - mpmath.cos(x)) / x

    # j_{m-1} = (2m+1)/x * j_m - j_{m+1}
    return _regular_ladder(kmax, x, -1, mpmath.besselj, closed_form)


def sph_y_ladder(kmax, x):
    """[y_0(x), ..., y_{kmax+1}(x)] as exact (N, E) pairs."""
    c, s = mpmath.cos(x), mpmath.sin(x)
    y0, y1 = (finite_dyadic(v, "ladder seed") for v in (-c / x, -c / x**2 - s / x))
    # y_{m+1} = (2m+1)/x * y_m - y_{m-1}
    return [y0, y1] + _recurrence(y0, y1, x, range(1, kmax + 1), -1)
