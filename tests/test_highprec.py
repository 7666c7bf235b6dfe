import math
import random
import sys

import mpmath
import numpy as np
import pytest
from mpmath import mp, mpf

from radialborn import highprec
from radialborn.highprec import (
    GUARD_BITS,
    check_precision,
    decimal_digits,
    finite_dyadic,
    mod_sph_i_ladder,
    mod_sph_k_ladder,
    read_decimal,
    sph_j_ladder,
    sph_y_ladder,
    to_decimal,
    to_prec,
)


# -- oracles: direct single-order evaluations, rounded to prec ---------------

def gamma_half_integer(k, d, prec):
    """Gamma(k + d/2) by upward recurrence from Gamma(1/2) or Gamma(1)."""
    n2 = 2 * k + d  # Gamma(n2 / 2)
    with mp.workprec(prec + GUARD_BITS):
        if n2 % 2 == 0:
            g = mpmath.factorial(n2 // 2 - 1)
        else:
            g = mpmath.sqrt(mpmath.pi)
            h = mpf(1) / 2
            while h < mpf(n2) / 2:
                g *= h
                h += 1
        return to_prec(g, prec)


def _sph(kind, k, x):
    # sqrt(pi/(2x)) Z_{k+1/2}(x) at the current working precision
    return mpmath.sqrt(mpmath.pi / (2 * x)) * kind(mpf(2 * k + 1) / 2, x)


def mod_sph_bessel_pair(k, x, prec):
    """(i_k(x), i_k'(x))."""
    with mp.workprec(prec + GUARD_BITS):
        x = mpf(x)
        ik = _sph(mpmath.besseli, k, x)
        dik = _sph(mpmath.besseli, k + 1, x) + k * ik / x
        return to_prec(ik, prec), to_prec(dik, prec)


def mod_sph_bessel_second_pair(k, x, prec):
    """(kk_k(x), kk_k'(x)), the singular partner of i_k."""
    with mp.workprec(prec + GUARD_BITS):
        x = mpf(x)
        kk = _sph(mpmath.besselk, k, x)
        dkk = -_sph(mpmath.besselk, k + 1, x) + k * kk / x
        return to_prec(kk, prec), to_prec(dkk, prec)


def sph_bessel_pair(k, x, prec):
    """(j_k(x), j_k'(x), y_k(x), y_k'(x))."""
    with mp.workprec(prec + GUARD_BITS):
        x = mpf(x)
        jk, yk = _sph(mpmath.besselj, k, x), _sph(mpmath.bessely, k, x)
        djk = -_sph(mpmath.besselj, k + 1, x) + k * jk / x
        dyk = -_sph(mpmath.bessely, k + 1, x) + k * yk / x
        return tuple(to_prec(v, prec) for v in (jk, djk, yk, dyk))


def ladder_square(x):
    """(X, e) with x^2 = X 2^e exactly, for a float or mpf x."""
    m, e = finite_dyadic(x, "ladder argument")
    return m * m, 2 * e


# sigma of each regular ladder: r_m = S sigma^m x^m f_m
SIGMA = {mod_sph_i_ladder: 1, sph_j_ladder: -1}


def ladder_values(pairs, x):
    """N 2^E / x^m for the exact (N, E) pairs of a ladder, each formed at the working
    precision: S f_m for a singular ladder h_m = S x^m f_m, and for a regular ladder
    r_m = S sigma^m x^m f_m when it is read at sigma x."""
    return [mpmath.ldexp(mpf(N), E) / x ** m for m, (N, E) in enumerate(pairs)]


def ladder_family(reg_ladder, sing_ladder, kmax, x):
    """(S f1_m, S f2_m) for m = 0..kmax+1 of the two ladders at x, which share one factor S."""
    x2 = ladder_square(x)
    regular = reg_ladder(kmax, x2)
    return (ladder_values(regular, SIGMA[reg_ladder] * x),
            ladder_values(sing_ladder(kmax, x2, regular), x))


def ladder_derivative(vals, k, x, sgn):
    """f_k'(x) = sgn f_{k+1}(x) + (k/x) f_k(x); sgn is +1 for i, -1 for j, y, kk."""
    return sgn * vals[k + 1] + k * vals[k] / x


def test_check_precision_rejects_small_and_fractional():
    with pytest.raises(ValueError):
        check_precision(32)
    # a float equal to an integer, inf, None and a string used to pass or raise
    # OverflowError or TypeError
    for prec in (128.5, 128.0, math.inf, None, "128"):
        with pytest.raises(ValueError, match="precision must be an integer"):
            check_precision(prec)
    assert check_precision(256) == 256
    assert type(check_precision(np.int64(256))) is int


def test_gamma_half_integer_matches_mpmath():
    with mp.workprec(300):
        for k in (0, 1, 5, 40):
            for d in (3, 4, 5):
                ours = gamma_half_integer(k, d, 256)
                ref = mpmath.gamma(mpf(k) + mpf(d) / 2)
                assert abs(ours - ref) <= abs(ref) * mpf(2) ** -250


def test_gamma_half_integer_identity():
    # k! Gamma(k + 1/2) = sqrt(pi) (2k)! 2^{-2k}
    with mp.workprec(300):
        for k in (0, 1, 3, 10, 25):
            lhs = mpmath.factorial(k) * gamma_half_integer(k, 1, 256)
            rhs = mpmath.sqrt(mpmath.pi) * mpmath.factorial(2 * k) * mpf(2) ** (-2 * k)
            assert abs(lhs - rhs) <= abs(rhs) * mpf(2) ** -250


def test_spherical_bessel_values():
    # i_0(x) = sinh(x)/x, k_0(x) = exp(-x) pi/(2x), j_0(x) = sin(x)/x
    with mp.workprec(300):
        x = mpf(3) / 2
        i0, _ = mod_sph_bessel_pair(0, x, 256)
        assert abs(i0 - mpmath.sinh(x) / x) <= mpf(2) ** -250
        k0, _ = mod_sph_bessel_second_pair(0, x, 256)
        assert abs(k0 - mpmath.pi / 2 * mpmath.exp(-x) / x) <= mpf(2) ** -250
        j0, _, y0, _ = sph_bessel_pair(0, x, 256)
        assert abs(j0 - mpmath.sin(x) / x) <= mpf(2) ** -250
        assert abs(y0 + mpmath.cos(x) / x) <= mpf(2) ** -250


def test_derivative_pairs_satisfy_wronskian():
    # i_k(x) kk_k'(x) - i_k'(x) kk_k(x) = -pi/(2 x^2)
    with mp.workprec(300):
        x = mpf(7) / 3
        for k in (0, 1, 4, 11):
            ik, ikp = mod_sph_bessel_pair(k, x, 256)
            kk, kkp = mod_sph_bessel_second_pair(k, x, 256)
            w = ik * kkp - ikp * kk
            ref = -mpmath.pi / (2 * x**2)
            assert abs(w - ref) <= abs(ref) * mpf(2) ** -240


def test_ladders_match_direct_evaluations():
    # at x = 5e-44 each step multiplies by about (2m+1)/x >= 2^144 in f, and
    # kk_1/kk_0 and y_1/y_0 are about 1/x, so a seed rounded onto its
    # partner's exponent would lose about 144 bits at k = 0.  Each ladder pair
    # is read on its regular ladder's scale, taken from i_0 or j_0.
    kmax = 30
    with mp.workprec(320):
        for x in (mpf(5) / 4, mpf("5e-44"), mpf("1e-20")):
            i0, _ = mod_sph_bessel_pair(0, x, 256)
            j0, _, _, _ = sph_bessel_pair(0, x, 256)
            il, kl = ladder_family(mod_sph_i_ladder, mod_sph_k_ladder, kmax, x)
            jl, yl = ladder_family(sph_j_ladder, sph_y_ladder, kmax, x)
            il, kl = ([v * i0 / il[0] for v in vals] for vals in (il, kl))
            jl, yl = ([v * j0 / jl[0] for v in vals] for vals in (jl, yl))
            for k in (0, 1, 7, 15, 30):
                ik, _ = mod_sph_bessel_pair(k, x, 256)
                kk, _ = mod_sph_bessel_second_pair(k, x, 256)
                j, _, y, _ = sph_bessel_pair(k, x, 256)
                assert abs(il[k] - ik) <= abs(ik) * mpf(2) ** -240, (x, k)
                assert abs(kl[k] - kk) <= abs(kk) * mpf(2) ** -240, (x, k)
                assert abs(jl[k] - j) <= abs(j) * mpf(2) ** -240, (x, k)
                assert abs(yl[k] - y) <= abs(y) * mpf(2) ** -240, (x, k)


def _ladder_bits(kinds, ladders, kmax, x, prec):
    """Bits each ladder keeps at prec: the least over k of -log2 |f_k / S - ref_k| /
    max(|ref_k|, |ref_{k+1}|), on every tenth order and the top one, against mpmath,
    with S the regular ladder's factor read at order 0 or at order 1, whichever
    reference value is the larger.

    ``kinds`` and ``ladders`` are the regular family's, or the regular and the
    singular family's, mpmath function and ladder.  Near a zero of j_k the next
    order carries the scale of the oscillation."""
    with mp.workprec(prec):
        x2 = ladder_square(mpf(x))
    return _ladder_bits_at(kinds, ladders, kmax, x2, prec, prec + GUARD_BITS)


def _ladder_bits_at(kinds, ladders, kmax, x2, prec, ref_prec):
    """_ladder_bits on the exact square x2 = (X, e), read against mpmath at ref_prec."""
    with mp.workprec(prec):
        regular = ladders[0](kmax, x2)
        pairs = [regular] + [ladder(kmax, x2, regular) for ladder in ladders[1:]]
    with mp.workprec(ref_prec):
        x = mpmath.sqrt(mpmath.ldexp(x2[0], x2[1]))
        ref0, ref1 = _sph(kinds[0], 0, x), _sph(kinds[0], 1, x)
        i = 0 if abs(ref0) >= abs(ref1) else 1
        sigma = SIGMA[ladders[0]]
        S = ladder_values(regular[:2], sigma * x)[i] / (ref0, ref1)[i]
        bits = []
        for kind, vals, at in zip(kinds, pairs, (sigma * x, x)):
            vals = ladder_values(vals, at)
            worst = mpf(0)
            for k in sorted(set(range(0, kmax + 1, max(1, kmax // 10))) | {kmax + 1}):
                ref, up = _sph(kind, k, x), _sph(kind, k + 1, x)
                worst = max(worst, abs(vals[k] / S - ref) / max(abs(ref), abs(up)))
            bits.append(-mpmath.log(worst, 2) if worst else mpmath.inf)
        return min(bits)


def _regular_ladder_bits(kind, ladder, kmax, x, prec):
    return _ladder_bits((kind,), (ladder,), kmax, x, prec)


@pytest.mark.parametrize("prec", (96, 544))
@pytest.mark.parametrize("kmax", (20, 150))
@pytest.mark.parametrize("x", ("2.8e-26", "5e-44", "40", "200", "turning"))
def test_miller_started_ladders_keep_every_bit(x, kmax, prec):
    # j_1 = sin x / x^2 - cos x / x cancels to 0 at x = 2.8e-26.  x = 40 and 200
    # lie past kmax + 1 for kmax = 20, and x = 200 for kmax = 150, so there the
    # ladders go up from closed forms.  "turning" is x = (kmax + 1)(1 - 2^-10),
    # just below the turning point, the last x the Miller start serves: a start
    # order that overcounts the bits gained per order near it loses bits
    if x == "turning":
        x = (kmax + 1) * (1 - 2.0 ** -10)
    for kind, ladder in ((mpmath.besseli, mod_sph_i_ladder), (mpmath.besselj, sph_j_ladder)):
        assert _regular_ladder_bits(kind, ladder, kmax, x, prec) >= prec - 4, ladder.__name__


@pytest.mark.parametrize("prec", (96, 544))
@pytest.mark.parametrize("kmax, x", ((20, "24.18453728793556962519"),
                                     (150, "156.5151000463708500961"),
                                     (20, "20.9794921875"), (150, "150.8525390625")))
def test_j_ladder_start_counts_no_growth_below_x(kmax, x, prec):
    # 24.18 and 156.5 are the first zeros of y_{kmax+1}; they lie past kmax + 1,
    # where the j ladder goes up from closed forms.  20.98 and 150.85 are
    # (kmax + 1)(1 - 2^-10), the last x below the turning point that the Miller
    # start serves: below x, y_k oscillates with j_k, so the start counts the
    # growth of y_k from order kmax + 1 only
    assert _regular_ladder_bits(mpmath.besselj, sph_j_ladder, kmax, x, prec) >= prec - 4


# (prec, kmax, x, M for sigma = 1, M for sigma = -1), all at x <= kmax + 1
START_ORDERS = (
    (96, 20, 1e-30, 22, 22), (96, 20, math.pi, 34, 34),
    (96, 20, 21 * (1 - 2.0 ** -10), 51, 55), (96, 20, 21.0, 51, 55),
    (96, 150, 1e-30, 152, 152), (96, 150, math.pi, 159, 159),
    (96, 150, 151 * (1 - 2.0 ** -10), 190, 215), (96, 150, 151.0, 190, 215),
    (544, 20, 1e-30, 23, 23), (544, 20, math.pi, 78, 78),
    (544, 20, 21 * (1 - 2.0 ** -10), 124, 128), (544, 20, 21.0, 124, 128),
    (544, 150, 1e-30, 153, 153), (544, 150, math.pi, 192, 192),
    (544, 150, 151 * (1 - 2.0 ** -10), 312, 343), (544, 150, 151.0, 312, 343),
)


@pytest.mark.parametrize("prec, kmax, x, m_i, m_j", START_ORDERS)
def test_miller_start_orders_are_pinned(prec, kmax, x, m_i, m_j):
    # the Miller start fixes every bit of the regular ladders below x = kmax + 1
    with mp.workprec(prec):
        assert (highprec._start_order(kmax, x, 1), highprec._start_order(kmax, x, -1)) == (m_i, m_j)


FAMILIES = (((mpmath.besseli, mpmath.besselk), (mod_sph_i_ladder, mod_sph_k_ladder)),
            ((mpmath.besselj, mpmath.bessely), (sph_j_ladder, sph_y_ladder)))


@pytest.mark.parametrize("prec", (96, 544))
@pytest.mark.parametrize("kmax", (0, 1, 20, 150))
@pytest.mark.parametrize("kind, ladder, singular_kind, singular_ladder", (
    (mpmath.besseli, mod_sph_i_ladder, mpmath.besselk, mod_sph_k_ladder),
    (mpmath.besselj, sph_j_ladder, mpmath.bessely, sph_y_ladder)),
    ids=("besseli-mod_sph_i_ladder", "besselj-sph_j_ladder"))
def test_ladders_keep_every_bit_on_both_sides_of_the_seed_switch(kind, ladder, singular_kind,
                                                                 singular_ladder, kmax, prec,
                                                                 monkeypatch):
    # below x = kmax + 1 the regular ladder goes down from a Miller start, above
    # it up from closed forms; neither start evaluates an mpmath Bessel function
    def refuse(*args, **kwargs):
        raise AssertionError("an mpmath Bessel function was evaluated")

    kinds, ladders = (kind, singular_kind), (ladder, singular_ladder)
    for x in ((kmax + 1) * (1 - 2.0 ** -10), (kmax + 1) * (1 + 2.0 ** -10)):
        with monkeypatch.context() as patch, mp.workprec(prec):
            for name in ("besseli", "besselj", "besselk", "bessely"):
                patch.setattr(mpmath, name, refuse)
            singular_ladder(kmax, ladder_square(mpf(x)), ladder(kmax, ladder_square(mpf(x))))
        assert _ladder_bits(kinds, ladders, kmax, x, prec) >= prec - 4, x


@pytest.mark.parametrize("prec", (96, 544))
@pytest.mark.parametrize("x", ("5e9", "1e10"))
def test_seeded_ladders_keep_every_bit_far_past_the_miller_reach(x, prec):
    # far past x = kmax + 1 the regular ladder goes up from closed forms, like
    # the singular one.  Each family must be carried in a direction in which it
    # does not shrink: as x^m f_m the regular one would shrink by 1/x a step
    # going down and lose about 66 bits a step at x = 5e9, and so would the
    # singular one as f_m / x^m going up
    for kinds, ladders in FAMILIES:
        assert _ladder_bits(kinds, ladders, 150, x, prec) >= prec - 4, ladders[0].__name__


@pytest.mark.parametrize("prec", (96, 544))
@pytest.mark.parametrize("log2x", (20, 40, 60))
def test_seeded_ladders_keep_every_bit_where_x_squared_is_not_a_square(log2x, prec):
    # x^2 = 1.5 4^log2x has no root at any precision.  The closed-form seeds take
    # x at log2 x bits more than the transcendental they feed: rounded to the
    # transcendental's own bits, x would move cos x or e^x by x 2^-(prec + 16),
    # prec - 4 bits at x = 2^20 and prec - 44 at 2^60.  Every other ladder test
    # squares a given x, whose root is then exact
    for kinds, ladders in FAMILIES:
        bits = _ladder_bits_at(kinds, ladders, 150, (3, 2 * log2x - 1), prec, prec + 400)
        assert bits >= prec - 4, ladders[0].__name__


@pytest.mark.parametrize("prec", (96, 544))
@pytest.mark.parametrize("n", (1, 2, 10))
def test_y_ladder_seeds_keep_every_bit_where_j0_vanishes(n, prec):
    # at x = n pi (1 + 2^-(prec/2)) j_0 = sin x / x nearly vanishes, so sph_y_ladder
    # takes its factor from j_1 = -r_1 / (x S), the branch that reads r_1 = -x^2 g_1
    with mp.workprec(prec):
        x = n * mpmath.pi * (1 + mpf(2) ** -(prec // 2))
    assert _ladder_bits((mpmath.besselj, mpmath.bessely), (sph_j_ladder, sph_y_ladder),
                        20, x, prec) >= prec - 4


def test_ladder_derivative_recovers_derivatives():
    kmax = 12
    with mp.workprec(320):
        x = mpf(9) / 5
        i0, _ = mod_sph_bessel_pair(0, x, 256)
        j0, _, _, _ = sph_bessel_pair(0, x, 256)
        il = ladder_values(mod_sph_i_ladder(kmax, ladder_square(x)), x)
        jl = ladder_values(sph_j_ladder(kmax, ladder_square(x)), -x)
        il, jl = [v * i0 / il[0] for v in il], [v * j0 / jl[0] for v in jl]
        for k in (0, 3, 8):
            _, ipd = mod_sph_bessel_pair(k, x, 256)
            _, jpd, _, _ = sph_bessel_pair(k, x, 256)
            assert abs(ladder_derivative(il, k, x, +1) - ipd) <= abs(ipd) * mpf(2) ** -235
            assert abs(ladder_derivative(jl, k, x, -1) - jpd) <= abs(jpd) * mpf(2) ** -235


def test_to_prec_rounds():
    with mp.workprec(300):
        x = mpmath.pi
        y = to_prec(x, 64)
        assert y != x
        assert abs(y - x) <= abs(x) * mpf(2) ** -64


@pytest.mark.parametrize("bits", [64, 96, 512, 1024])
def test_decimal_form_round_trips_every_bit(bits):
    with mp.workprec(bits):
        xs = [mpf(0), mpf(1) / 3, -mpf(2) / 7 * mpf(10) ** 300, mpf(5) ** -400,
              +mpmath.pi, -mpmath.e * mpf(2) ** -1074, 1 - mpmath.eps]
    for x in xs:
        assert read_decimal(to_decimal(x, bits), bits) == x
    # a float is written at its own value, with the digits of bits
    assert read_decimal(to_decimal(0.1, bits), bits) == mpf(0.1)


def test_a_node_halfway_between_two_floats_round_trips():
    from radialborn.fourier import default_xi_grid, xi_node_bits
    bits = xi_node_bits(64)
    # a normalized 54-bit mantissa: exactly halfway between two floats
    halfway = [x for x in default_xi_grid(64, 10.0) if x._mpf_[3] == 54]
    assert halfway
    for x in halfway:
        text = to_decimal(x, bits)
        assert read_decimal(text, bits) == x
        assert read_decimal(text, 53) != x


def _decimal_cases(bits):
    """Seeded mpfs: zero, halfway nodes of a grid and random mantissas of 2 ``bits`` bits,
    at small and at decimal exponents beyond +-400, and a few texts that no mpf wrote."""
    from radialborn.fourier import default_xi_grid
    rng = random.Random(bits)
    with mp.workprec(2 * bits):
        xs = [mpf(0)] + [x for x in default_xi_grid(64, 10.0) if x._mpf_[3] == 54][:4]
        for scale in (0, 3, 60, 420, 1500):
            for _ in range(6):
                man = rng.getrandbits(2 * bits) | 1 << (2 * bits - 1)
                e = rng.randint(-scale, scale) * 3 - 2 * bits
                xs.append(rng.choice((1, -1)) * mpf(man) * mpf(2) ** e)
    texts = ["0.1", "-0", "  2.5 ", "1e401", "-3.25e-450", "7/3", "1" * 400 + "e-3",
             "0." + "0" * 410 + "123"]
    return xs, texts


@pytest.mark.parametrize("bits", [64, 256, 1024])
def test_decimal_pair_is_what_mpmath_writes_and_reads(bits):
    xs, texts = _decimal_cases(bits)
    for x in xs:
        text = to_decimal(x, bits)
        assert text == mpmath.nstr(x, decimal_digits(bits), strip_zeros=False)
        # the text of 2 bits bits is read at bits, where the rounding shows
        texts += [text, to_decimal(x, 2 * bits)]
    # a number that is not an mpf is written at bits + GUARD_BITS
    assert to_decimal(0.1, bits) == mpmath.nstr(to_prec(0.1, bits + GUARD_BITS),
                                                decimal_digits(bits), strip_zeros=False)
    for text in texts:
        with mp.workprec(bits):
            assert read_decimal(text, bits)._mpf_ == mpf(text)._mpf_


@pytest.mark.parametrize("value", [0.5, 3, None, b"0.5", mpf(1) / 3])
def test_read_decimal_takes_text_only(value):
    with pytest.raises(TypeError, match="as text"):
        read_decimal(value, 128)


@pytest.mark.parametrize("text, message", [("nan", "must be finite"), ("inf", "must be finite"),
                                           ("-inf", "must be finite"), ("1.2x", "1.2x")])
def test_read_decimal_rejects_what_is_not_a_finite_number(text, message):
    with pytest.raises(ValueError, match=message):
        read_decimal(text, 128)


def test_a_shared_grid_keeps_its_exponent_read():
    from radialborn.fourier import default_xi_grid
    from radialborn.highprec import KeptGrid, one_exponent
    grid = default_xi_grid(64, 10.0)
    assert type(grid) is KeptGrid and grid is default_xi_grid(64, 10.0)
    # the same tuple returns the read it kept; an equal tuple or a slice is read
    assert one_exponent(grid) is grid.exponent_read
    fresh = one_exponent(tuple(grid))
    assert fresh == grid.exponent_read and fresh is not grid.exponent_read
    assert one_exponent(grid[3:]) == one_exponent(tuple(grid)[3:])


def _float_read_cases():
    rng = random.Random(20260)
    tiny, top = 5e-324, sys.float_info.max
    fixed = [0.0, -0.0, tiny, -tiny, 2 * tiny, 3 * tiny, sys.float_info.min / 2,
             -sys.float_info.min * 0.75, sys.float_info.min, top, -top, 2.0 ** 53,
             2.0 ** 53 + 2, -(2.0 ** 60) * 3, 1e300, 0.5, -1.0, 0.1, 1 / 3]
    # integral floats >= 2^53 have an even numerator in as_integer_ratio
    integral = [float(rng.getrandbits(rng.randint(54, 1000))) * rng.choice((-1, 1))
                for _ in range(2000)]
    subnormal = [rng.randint(1, 2 ** 52 - 1) * tiny * rng.choice((-1, 1)) for _ in range(500)]
    spread = [rng.uniform(1, 2) * 2.0 ** rng.randint(-1070, 1020) * rng.choice((-1, 1))
              for _ in range(2000)]
    return fixed + integral + subnormal + spread


def test_the_float_read_is_the_mpf_read():
    for x in _float_read_cases():
        assert finite_dyadic(x, "x") == highprec.raw_dyadic(mpf(x)._mpf_, "x"), x
    assert finite_dyadic(np.float64(0.75), "x") == (3, -2)


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_a_non_finite_float_read_names_what_it_reads(x):
    with pytest.raises(ValueError, match="non-finite breakpoint"):
        finite_dyadic(x, "breakpoint")
