import math

import mpmath
import numpy as np
import pytest
from mpmath import mp, mpf

from radialborn import highprec
from radialborn.highprec import (
    GUARD_BITS,
    check_precision,
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


def ladder_mpfs(pairs):
    """The exact (N, E) pairs of a ladder as mpfs N 2^E, each rounded to the working precision."""
    return [mpmath.ldexp(mpf(N), E) for N, E in pairs]


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
    # at x = 5e-44 each step multiplies by about (2m+1)/x >= 2^144, and
    # kk_1/kk_0 and y_1/y_0 are about 1/x, so a seed rounded onto its
    # partner's exponent would lose about 144 bits at k = 0
    kmax = 30
    with mp.workprec(320):
        for x in (mpf(5) / 4, mpf("5e-44"), mpf("1e-20")):
            il = ladder_mpfs(mod_sph_i_ladder(kmax, x))
            kl = ladder_mpfs(mod_sph_k_ladder(kmax, x))
            jl = ladder_mpfs(sph_j_ladder(kmax, x))
            yl = ladder_mpfs(sph_y_ladder(kmax, x))
            for k in (0, 1, 7, 15, 30):
                ik, _ = mod_sph_bessel_pair(k, x, 256)
                kk, _ = mod_sph_bessel_second_pair(k, x, 256)
                j, _, y, _ = sph_bessel_pair(k, x, 256)
                assert abs(il[k] - ik) <= abs(ik) * mpf(2) ** -240, (x, k)
                assert abs(kl[k] - kk) <= abs(kk) * mpf(2) ** -240, (x, k)
                assert abs(jl[k] - j) <= abs(j) * mpf(2) ** -240, (x, k)
                assert abs(yl[k] - y) <= abs(y) * mpf(2) ** -240, (x, k)


def _regular_ladder_bits(kind, ladder, kmax, x, prec):
    """Bits the regular ladder keeps at prec: the least over k of -log2 |f_k - ref_k| /
    max(|ref_k|, |ref_{k+1}|), on every tenth order and the top one, against mpmath.

    Near a zero of j_k the next order carries the scale of the oscillation."""
    with mp.workprec(prec):
        x = mpf(x)
        vals = ladder(kmax, x)
    with mp.workprec(prec + GUARD_BITS):
        vals = ladder_mpfs(vals)
        worst = mpf(0)
        for k in sorted(set(range(0, kmax + 1, max(1, kmax // 10))) | {kmax + 1}):
            ref, up = _sph(kind, k, x), _sph(kind, k + 1, x)
            worst = max(worst, abs(vals[k] - ref) / max(abs(ref), abs(up)))
        return -mpmath.log(worst, 2) if worst else mpmath.inf


@pytest.mark.parametrize("prec", (96, 544))
@pytest.mark.parametrize("kmax", (20, 150))
@pytest.mark.parametrize("x", ("2.8e-26", "5e-44", "40", "200"))
def test_miller_started_ladders_keep_every_bit(x, kmax, prec):
    # j_1 = sin x / x^2 - cos x / x cancels to 0 at x = 2.8e-26, and a start order
    # that overcounts the bits gained per order near the turning point k = x
    # loses bits at x = 200 and 544 bits
    for kind, ladder in ((mpmath.besseli, mod_sph_i_ladder), (mpmath.besselj, sph_j_ladder)):
        assert _regular_ladder_bits(kind, ladder, kmax, x, prec) >= prec - 4, ladder.__name__


@pytest.mark.parametrize("prec", (96, 544))
@pytest.mark.parametrize("kmax, x", ((20, "24.18453728793556962519"),
                                     (150, "156.5151000463708500961")))
def test_j_ladder_start_counts_no_growth_below_x(kmax, x, prec):
    # x is the first zero of y_{kmax+1}: below x, y_k oscillates with j_k, and a
    # start order counted from y_{kmax+1} = 0 would keep 8 of 96 bits
    assert _regular_ladder_bits(mpmath.besselj, sph_j_ladder, kmax, x, prec) >= prec - 4


def _seed_threshold(kmax, sigma, prec):
    """The least x, to 2^-20 relative, at which the ladder drops its Miller start."""
    with mp.workprec(prec):
        lo, hi = 1.0, 2.0 ** 40
        while hi / lo > 1 + 2.0 ** -20:
            mid = (lo * hi) ** 0.5
            lo, hi = (lo, mid) if highprec._start_order(kmax, mpf(mid), sigma) is None else (mid, hi)
        return hi


@pytest.mark.parametrize("kind, ladder, sigma, bessel", (
    (mpmath.besseli, mod_sph_i_ladder, 1, "besseli"),
    (mpmath.besselj, sph_j_ladder, -1, "besselj")))
def test_ladders_keep_every_bit_on_both_sides_of_the_seed_switch(kind, ladder, sigma, bessel,
                                                                 monkeypatch):
    kmax, prec = 20, 96
    edge = _seed_threshold(kmax, sigma, prec)
    for x, seeded in ((edge * (1 - 2.0 ** -10), False), (edge * (1 + 2.0 ** -10), True)):
        calls = []
        monkeypatch.setattr(mpmath, bessel, lambda *args: calls.append(args) or kind(*args))
        with mp.workprec(prec):
            ladder(kmax, mpf(x))
        monkeypatch.undo()
        assert bool(calls) is seeded, x
        assert _regular_ladder_bits(kind, ladder, kmax, x, prec) >= prec - 4, x


def test_ladder_derivative_recovers_derivatives():
    kmax = 12
    with mp.workprec(320):
        x = mpf(9) / 5
        il = ladder_mpfs(mod_sph_i_ladder(kmax, x))
        jl = ladder_mpfs(sph_j_ladder(kmax, x))
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


@pytest.mark.parametrize("text, message", [("nan", "must be finite"), ("inf", "must be finite"),
                                           ("-inf", "must be finite"), ("1.2x", "1.2x")])
def test_read_decimal_rejects_what_is_not_a_finite_number(text, message):
    with pytest.raises(ValueError, match=message):
        read_decimal(text, 128)
