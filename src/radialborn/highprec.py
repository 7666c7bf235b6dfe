"""Arbitrary-precision building blocks: precision checks, exact dyadic reads, the
frequency grid that keeps its reads, integer rounding to nearest, the decimal
form of a value in a file and spherical Bessel ladders.

Callers evaluate with 32 guard bits (``GUARD_BITS``) on top of the requested
mantissa precision and round results with :func:`to_prec`.  The Bessel
ladders run their three-term recurrence in Python integers on
F = working precision + 16 + bit_length(n) bits, on the exact square x^2 of
their argument, and return each value as an exact pair (N, E),
value = N 2^E; nothing is rounded to an mpf.  All four return one
coordinate: r_m = S sigma^m x^m f_m for the regular families (sigma = 1 for
i_k, -1 for j_k) and h_m = S x^m f_m for the singular ones, with one unknown
factor S per argument that the two families share.  A regular ladder picks
its start from x alone.  At x <= kmax + 1 it recurs downward on
g_m = f_m / x^m from Miller's backward start, which leaves S unknown, and
multiplies each g_m by (sigma x^2)^m.  Above the turning point x = kmax + 1 it
goes up from the closed forms of orders 0 and 1, with S = 1, like the
singular ladders; i_k then runs on guard bits that cover what it loses
against kk_k going up.  The singular ladders go up from closed forms at one
transcendental per argument, on the factor S of the regular ladder they are
handed.  The mpmath big-float type plays the role of the extended-precision
real number; precision is carried by the caller, not by the value.

Conventions for the spherical families (order ``k >= 0``, argument ``x > 0``):

* ``i_k(x) = sqrt(pi/(2x)) I_{k+1/2}(x)``   (modified, first kind, regular at 0)
* ``kk_k(x) = sqrt(pi/(2x)) K_{k+1/2}(x)``  (modified, second kind, singular at 0)
* ``j_k(x) = sqrt(pi/(2x)) J_{k+1/2}(x)``   (oscillatory, regular at 0)
* ``y_k(x) = sqrt(pi/(2x)) Y_{k+1/2}(x)``   (oscillatory, singular at 0)

Derivatives follow from the half-integer ladder relations; no numerical
differentiation is used anywhere.
"""

import itertools
import math
import numbers

from mpmath import mp, mpf
from mpmath.libmp import (
    MPZ,
    fone,
    from_man_exp,
    from_str,
    fzero,
    mpf_add,
    mpf_cos_sin,
    mpf_cosh_sinh,
    mpf_div,
    mpf_exp,
    mpf_mul,
    mpf_pi,
    mpf_shift,
    mpf_sqrt,
    mpf_sub,
    round_nearest,
    to_float,
    to_str,
)

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
    taken at ``bits + GUARD_BITS`` bits.  The text is ``mpmath.nstr``'s, from the
    libmp call that nstr makes."""
    x = x if isinstance(x, mpf) else to_prec(x, bits + GUARD_BITS)
    return to_str(x._mpf_, decimal_digits(bits), strip_zeros=False)


def read_decimal(text, bits):
    """The decimal ``text`` rounded once to ``bits`` bits, the value ``mpf(text)`` has at
    ``bits`` bits.  Raises ``TypeError`` on anything but a ``str`` and ``ValueError`` on
    text that is not a number and on NaN or an infinity."""
    if not isinstance(text, str):
        raise TypeError(f"a decimal must be given as text, got {type(text).__name__} {text!r}")
    t = from_str(text, bits, round_nearest)
    if not t[1] and t[2]:
        raise ValueError(f"value must be finite, got {text!r}")
    return mp.make_mpf(t)


def finite_dyadic(x, what):
    """Exact signed (man, exp) of a float or mpf, with man odd (0, 0 for zero), as
    mpf normalizes it; other types are read at the current working precision.  A
    non-finite x raises ``ValueError`` naming ``what``."""
    if isinstance(x, float) and math.isfinite(x):
        # n / d in lowest terms with d = 2^z: n is odd unless d = 1
        n, d = x.as_integer_ratio()
        if d > 1:
            return n, 1 - d.bit_length()
        z = (n & -n).bit_length() - 1 if n else 0
        return n >> z, z
    return raw_dyadic(x._mpf_ if isinstance(x, mpf) else mpf(x)._mpf_, what)


def raw_dyadic(t, what):
    """Exact signed (man, exp) of a raw mpf tuple; NaN or an infinity raises
    ``ValueError`` naming ``what``."""
    sign, man, exp, _ = t
    if not man and exp:
        raise ValueError(f"non-finite {what}: {mp.make_mpf(t)}")
    return (-man if sign else man), exp


def one_exponent(xi_grid):
    """(e, ((m_n, z_n), ...)) with xi_n = m_n 2^(e + z_n) exactly and z_n >= 0.

    e is the least exponent of a nonzero node, so N_n = m_n 2^z_n are the nodes
    as integers on one exponent; forming them is left to the caller, since
    nodes far apart in scale make them long.  A zero node reads (0, 0).
    Non-finite nodes raise ``ValueError``.
    """
    X = [finite_dyadic(x, "frequency") for x in xi_grid]
    e = min((xe for xm, xe in X if xm), default=0)
    return e, tuple((xm, xe - e if xm else 0) for xm, xe in X)


class XiGrid(tuple):
    """A tuple of frequency nodes that keeps what is read from them.

    ``grid.read(f)`` is ``f(grid)``, made on the first call with that ``f`` and
    kept for the grid's life, so each read is one function of the nodes alone:
    ``one_exponent``, the Born kernel's node plan, the inverse transform's
    float grid, the writers' decimal node column.  ``XiGrid(nodes)`` is
    ``nodes`` itself when it is an XiGrid, so a grid that many transforms
    share, such as every ``fourier.default_xi_grid``, reads its nodes once; any
    other sequence (a slice, a list, a single node, a grid read from a file)
    becomes a new XiGrid whose reads are made per call.  Reads of float and
    mpf nodes are exact; another number is read as an mpf at the working
    precision of its first read.
    """

    def __new__(cls, nodes):
        if type(nodes) is cls:
            return nodes
        grid = super().__new__(cls, nodes)
        grid._reads = {}
        return grid

    def read(self, f):
        """``f(self)``, kept from the first call."""
        reads = self._reads
        if f not in reads:
            reads[f] = f(self)
        return reads[f]


def round_half_even(n, e, prec):
    """n 2^e rounded to nearest at prec bits, ties to even, as a raw mpf: the tuple
    that ``from_man_exp(n, e, prec, round_nearest)`` returns, made in integers."""
    if not n:
        return fzero
    sign = 0
    if n < 0:
        sign, n = 1, -n
    drop = n.bit_length() - prec
    if drop > 0:
        t = n >> drop - 1  # the kept bits and the half bit
        # up when the half bit is set and the kept bits are odd or a lower bit is set
        if t & 1 and (t & 2 or (n & -n).bit_length() < drop):
            t += 2
        n, e = t >> 1, e + drop
    z = (n & -n).bit_length() - 1  # an mpf mantissa is odd
    return sign, MPZ(n >> z), e + z, n.bit_length() - z


# ---------------------------------------------------------------------------
# Whole-ladder evaluations used by the potential forward solver.  Each ladder
# runs on the exact square x^2 = X 2^e of its argument, given as the pair
# (X, e), not on a rounded x, and all four return x^m f_m on one factor S: the
# regular family as r_m = S sigma^m x^m f_m and the singular one as
# h_m = S x^m f_m, sigma = 1 for i_k and kk_k and -1 for j_k and y_k.  So at x
# the pair (f_k, x f_k' - k f_k) is sigma^k x^-k (r_k, r_{k+1}) / S for the
# regular family and x^-k (h_k, -h_{k+1}) / S for the singular one.  Each family
# recurs in a direction in which it does not decay against its partner.  The
# singular one goes up as h_m, h_{m+1} = (2m+1) h_m + sigma x^2 h_{m-1}.  The
# regular one, at x <= kmax + 1, goes down as g_m = f_m / x^m,
# g_{m-1} = (2m+1) g_m + sigma x^2 g_{m+1}: as x^m f_m it would shrink by 1/x a
# step going down, so it is multiplied by (sigma x^2)^m only after the
# recurrence.  At x > kmax + 1, above the turning point, it goes up as
# (-1)^m r_m, which obeys the singular recurrence.  A step multiplies by a short
# integer and by X, never by a reciprocal of x.  _recurrence runs both
# directions in integers on F = mp.prec + 16 + bit_length(n) bits.  Going down,
# the regular ladder starts from a Miller start f_{M+1}, f_M = 0, 1 and is not
# rescaled: its values carry one unknown factor S.  Going up, it starts from the
# closed forms r_0 = s/x and r_1 = c - s/x, with (c, s) = (cosh x, sinh x) for
# i_k and (cos x, sin x) for j_k, and S = 1.  The singular ladder of the same
# argument is handed the regular one and starts from closed forms at orders 0
# and 1 on the same scale S, at the cost of one transcendental per argument:
# expm1(2x) for kk_k, cos_sin(x) for y_k.  Every ladder value is an exact
# (N, E), value = N 2^E, and each ladder is a list of length kmax + 2, so that
# callers can form derivatives by the ladder relations.
# ---------------------------------------------------------------------------


def _recurrence(prev, cur, x2, orders, sigma):
    """[(N, E) for m in orders]: w_next = N 2^E of w_next = (2m+1) w_m + sigma x^2 w_prev
    from the seeds (prev, cur), each an exact (man, exp).

    ``orders`` runs down for the regular family (w_next = g_{m-1}) and up for the
    singular one (w_next = h_{m+1}).  x^2 = X 2^e is read exactly: X 2^e P is
    X P shifted by e, a floor when e < 0.  The running pair (P, C) shares one
    exponent E, and both shift right whenever the older value C has grown past
    F bits.  So P enters each step with F bits or more, and C with as many when
    it is the larger: the pair of a family that grows by x a step would
    otherwise keep F - log2 x bits of P, whose term x^2 P is as large as the
    step.  A step thus loses a few units of its last place, whose n-fold sum the
    bit_length(n) + 16 bits above mp.prec cover.  A value is recorded after the
    shift.
    """
    X, e = x2
    X, s = (sigma * X << e, 0) if e >= 0 else (sigma * X, -e)
    F = mp.prec + 16 + len(orders).bit_length()
    # both seeds keep F bits or more: P enters the first step like every later one
    E = min(se + sm.bit_length() for sm, se in (prev, cur) if sm) - F
    P, C = (sm << se - E if se >= E else sm >> E - se for sm, se in (prev, cur))
    out = []
    for m in orders:
        N = (2 * m + 1) * C + (X * P >> s)
        b = C.bit_length() - F
        if b > 0:
            N, C, E = N >> b, C >> b, E + b
        out.append((N, E))
        P, C = C, N
    return out


def _start_order(kmax, x, sigma):
    """The Miller start order M >= kmax + 2 of the regular ladder at a float
    x <= kmax + 1.

    The start (0, 1) at orders (M + 1, M) is the regular solution plus a multiple
    of the singular one g (kk_k for sigma = 1, y_k for sigma = -1) whose share at
    orders 0..kmax+1 is at most (g_{kmax+1} / g_{M+1})^2: at x <= kmax + 1 no
    order past kmax + 1 lies below the turning point, where y_k oscillates with
    j_k.  M is the first order at which that share falls below 2^-(mp.prec + 16).
    The ratios g_{m+1} / g_m run up in floats from g_1 / g_0.
    """
    need = mp.prec + 16
    x = max(x, 2.0 ** -1000)
    rho = 1 / x + (1 if sigma > 0 else math.tan(x))
    for m in range(kmax + 1):
        rho = (2 * m + 3) / x + sigma / (rho or 2.0 ** -1000)
    gain = 2 * math.log2(abs(rho))
    for m in itertools.count(kmax + 2):
        rho = (2 * m + 1) / x + sigma / (rho or 2.0 ** -1000)
        gain += 2 * math.log2(abs(rho))
        if gain >= need:
            return m


def _root(x2, prec):
    """x as a raw mpf at ``prec`` bits from its exact square x2 = (X, e)."""
    return mpf_sqrt(from_man_exp(*x2), prec, round_nearest)


def float_root(x2):
    """x from its exact square x2 = (X, e) as a float: x rounded to 53 bits, inf above
    the float range and 0 below it."""
    return to_float(_root(x2, 53))


def _seed_root(x2, prec):
    """x from x2 = (X, e) at prec + max(0, ceil(log2 x)) bits, for a transcendental
    of x at prec bits: rounded to prec bits, x would move it by up to x 2^-prec."""
    X, e = x2
    return _root(x2, prec + max(0, (X.bit_length() + e + 1) // 2))


def _regular_ladder(kmax, x2, sigma):
    """[r_0, ..., r_{kmax+1}], r_m = S sigma^m x^m f_m(x), as exact (N, E) pairs.

    At x <= kmax + 1, g_m = f_m / x^m goes down from a Miller start, with an
    unknown factor S != 0, and r_m = S (sigma x^2)^m g_m, the power and each
    product cut to F bits.  At x > kmax + 1, (-1)^m r_m goes up by the singular
    recurrence from the closed forms of orders 0 and 1, with S = 1.  Going up,
    i_k decays against kk_k: by the uniform expansions it loses
    2 nu (z - eta(z)) < nu^2 / x nats by order m, nu = m + 1/2 and z = x / nu,
    so for i_k that branch runs ceil((kmax + 1)(kmax + 2) / (x ln 2)) + 8 bits
    above mp.prec.  j_k oscillates with y_k below its turning point and needs
    no guard.  x rounded to 53 bits exceeds kmax + 1 only where x does.
    """
    n = kmax + 1
    x = float_root(x2)
    if x > n:
        guard = math.ceil(n * (n + 1) / (x * math.log(2))) + 8 if sigma > 0 else 0
        with mp.workprec(mp.prec + guard):
            w, rn = mp.prec + 16, round_nearest
            xw = _seed_root(x2, w)
            c, s = (mpf_cosh_sinh if sigma > 0 else mpf_cos_sin)(xw, w, rn)
            r0 = mpf_div(s, xw, w, rn)
            h = _singular_ladder(kmax, x2, sigma, (r0, mpf_sub(r0, c, w, rn)))
        return [(-N, E) if m % 2 else (N, E) for m, (N, E) in enumerate(h)]
    M = _start_order(kmax, x, sigma)
    g = _recurrence((0, 0), (1, 0), x2, range(M, 0, -1), sigma)[::-1][:n + 1]
    X, e = x2
    X *= sigma
    F = mp.prec + 16 + n.bit_length()
    out, P, pe = [], 1, 0  # (sigma x^2)^m = P 2^pe
    for N, E in g:
        N *= P
        d = N.bit_length() - F
        out.append((N >> d, E + pe + d) if d > 0 else (N, E + pe))
        P, pe = P * X, pe + e
        d = P.bit_length() - F
        if d > 0:
            P, pe = P >> d, pe + d
    return out


def _singular_ladder(kmax, x2, sigma, seeds):
    """[h_0, ..., h_{kmax+1}] as exact (N, E) pairs, going up from the raw mpfs (h_0, h_1)."""
    h0, h1 = (raw_dyadic(v, "ladder seed") for v in seeds)
    return [h0, h1] + _recurrence(h0, h1, x2, range(1, kmax + 1), sigma)


def mod_sph_i_ladder(kmax, x2):
    """[r_0, ..., r_{kmax+1}] as exact (N, E) pairs, r_m = S x^m i_m(x) for one S > 0,
    from x2 = (X, e), x^2 = X 2^e."""
    # g_{m-1} = (2m+1) g_m + x^2 g_{m+1}
    return _regular_ladder(kmax, x2, 1)


def mod_sph_k_ladder(kmax, x2, regular):
    """[h_0, ..., h_{kmax+1}] as exact (N, E) pairs, h_m = S x^m kk_m(x), with S the
    factor of the ``mod_sph_i_ladder`` output ``regular`` at the same x2."""
    w, rn = mp.prec + 16, round_nearest
    # S = r_0 / i_0 = x r_0 / sinh x, so h_0 = S kk_0 = pi r_0 / (e^(2x) - 1) and
    # h_1 = S x kk_1 = (1 + x) h_0.  e^(2x) takes the bits that e^(2x) - 1 cancels
    # when 2x < 1 on top of w.
    x = _seed_root(x2, w)
    t = mpf_shift(x, 1)
    em1 = mpf_sub(mpf_exp(t, w + max(0, -(t[2] + t[3])) + 8, rn), fone, w, rn)
    h0 = mpf_div(mpf_mul(mpf_pi(w, rn), from_man_exp(*regular[0]), w, rn), em1, w, rn)
    # h_{m+1} = (2m+1) h_m + x^2 h_{m-1}
    return _singular_ladder(kmax, x2, 1, (h0, mpf_mul(mpf_add(fone, x, w, rn), h0, w, rn)))


def sph_j_ladder(kmax, x2):
    """[r_0, ..., r_{kmax+1}] as exact (N, E) pairs, r_m = S (-x)^m j_m(x) for one S != 0,
    from x2 = (X, e), x^2 = X 2^e."""
    # g_{m-1} = (2m+1) g_m - x^2 g_{m+1}
    return _regular_ladder(kmax, x2, -1)


def sph_y_ladder(kmax, x2, regular):
    """[h_0, ..., h_{kmax+1}] as exact (N, E) pairs, h_m = S x^m y_m(x), with S the
    factor of the ``sph_j_ladder`` output ``regular`` at the same x2."""
    (n0, e0), (n1, e1) = regular[:2]
    X, e = x2
    w, rn = mp.prec + 16, round_nearest
    x = _seed_root(x2, w)
    c, s = mpf_cos_sin(x, w, rn)
    # S from j_0 = sin x / x = r_0 / S, or from j_1 = (sin x - x cos x) / x^2 = -r_1 / (x S)
    # where j_0 is the smaller by a bit or more: j_1 cancels to nothing as x -> 0,
    # and j_0 = 0 at x = n pi.  With K = -r_0 / sin x or r_1 / (sin x - x cos x),
    # h_0 = S y_0 = K cos x and h_1 = S x y_1 = K (cos x + x sin x).
    if 2 * (n0.bit_length() + e0) + X.bit_length() + e >= 2 * (n1.bit_length() + e1):
        K = mpf_div(from_man_exp(-n0, e0), s, w, rn)
    else:
        K = mpf_div(from_man_exp(n1, e1), mpf_sub(s, mpf_mul(x, c, w, rn), w, rn), w, rn)
    seeds = mpf_mul(K, c, w, rn), mpf_mul(K, mpf_add(c, mpf_mul(x, s, w, rn), w, rn), w, rn)
    # h_{m+1} = (2m+1) h_m - x^2 h_{m-1}
    return _singular_ladder(kmax, x2, -1, seeds)
