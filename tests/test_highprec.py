import mpmath
import pytest
from mpmath import mp, mpf

from radialborn.highprec import (
    GUARD_BITS,
    check_precision,
    mod_sph_i_ladder,
    mod_sph_k_ladder,
    sph_j_ladder,
    sph_y_ladder,
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


def ladder_derivative(vals, k, x, sgn):
    """f_k'(x) = sgn f_{k+1}(x) + (k/x) f_k(x); sgn is +1 for i, -1 for j, y, kk."""
    return sgn * vals[k + 1] + k * vals[k] / x


def test_check_precision_rejects_small_and_fractional():
    with pytest.raises(ValueError):
        check_precision(32)
    with pytest.raises(ValueError):
        check_precision(128.5)
    assert check_precision(256) == 256


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
            il = mod_sph_i_ladder(kmax, x)
            kl = mod_sph_k_ladder(kmax, x)
            jl = sph_j_ladder(kmax, x)
            yl = sph_y_ladder(kmax, x)
            for k in (0, 1, 7, 15, 30):
                ik, _ = mod_sph_bessel_pair(k, x, 256)
                kk, _ = mod_sph_bessel_second_pair(k, x, 256)
                j, _, y, _ = sph_bessel_pair(k, x, 256)
                assert abs(il[k] - ik) <= abs(ik) * mpf(2) ** -240, (x, k)
                assert abs(kl[k] - kk) <= abs(kk) * mpf(2) ** -240, (x, k)
                assert abs(jl[k] - j) <= abs(j) * mpf(2) ** -240, (x, k)
                assert abs(yl[k] - y) <= abs(y) * mpf(2) ** -240, (x, k)


def test_ladder_derivative_recovers_derivatives():
    kmax = 12
    with mp.workprec(320):
        x = mpf(9) / 5
        il = mod_sph_i_ladder(kmax, x)
        jl = sph_j_ladder(kmax, x)
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
