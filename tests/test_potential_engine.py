"""The forward engine on potentials against an mpf transfer loop.

``mpf_potential_spectrum`` is the reference: per piece and degree it solves
for the coefficients of the two fundamental solutions from (w, w') in big
floats at prec + 32 bits and renormalizes.  It reads the same Bessel ladders
as the engine, turned back into values of f_m at prec + 32 bits, but shares
none of its integer arithmetic, so agreement between the two checks both.
The two ladders of one argument share one unknown factor, which cancels in
the coefficients of a piece.
"""

import itertools
import math
import random

import mpmath
import pytest
from mpmath import mp, mpf

from radialborn.experiments import experiment_profiles
from radialborn.forward import DirichletCollisionError, ode_log_derivative_oracle, potential_spectrum
from radialborn.highprec import (
    GUARD_BITS,
    check_precision,
    mod_sph_i_ladder,
    mod_sph_k_ladder,
    sph_j_ladder,
    sph_y_ladder,
    to_prec,
)
from radialborn.profiles import PiecewiseProfile, ProfileKind, project_midpoint
from test_highprec import ladder_values

KS = (0, 1, 20, 150)
PRECS = (64, 256, 512)
RADII = (1.0, 2.5)


def _renormalize(w, wp):
    # scale max(|w|, |w'|) into [1, 2) by a power of two; exact operation
    m = max(abs(w), abs(wp))
    _, e = mpmath.frexp(m)
    scale = mpmath.ldexp(mpf(1), int(e) - 1)
    return w / scale, wp / scale


def _ladder_square(c, r):
    """x^2 = |c| r^2 as the exact (X, e) the ladders take, and x at the working precision."""
    x2 = mpmath.fmul(abs(c), mpmath.fmul(r, r, exact=True), exact=True)
    _, X, e, _ = x2._mpf_
    return (X, e), mpmath.sqrt(x2)


def _piece_bases(c, a, b, kmax):
    """Fundamental-solution values and derivatives of w at a and b, k-indexed."""
    if c > 0:
        fam = (mod_sph_i_ladder, mod_sph_k_ladder, 1, -1)
    else:
        fam = (sph_j_ladder, sph_y_ladder, -1, -1)
    reg_ladder, sing_ladder, sgn1, sgn2 = fam
    out = []
    for r in (a, b):
        x2, x = _ladder_square(c, r)
        regular = reg_ladder(kmax, x2)
        # r_m = S sgn1^m x^m f1_m and h_m = S x^m f2_m
        f1 = ladder_values(regular, sgn1 * x)
        f2 = ladder_values(sing_ladder(kmax, x2, regular), x)
        W1 = [r * f1[k] for k in range(kmax + 1)]
        W2 = [r * f2[k] for k in range(kmax + 1)]
        dW1 = [f1[k] + x * (sgn1 * f1[k + 1] + k * f1[k] / x) for k in range(kmax + 1)]
        dW2 = [f2[k] + x * (sgn2 * f2[k + 1] + k * f2[k] / x) for k in range(kmax + 1)]
        out.extend([W1, dW1, W2, dW2])
    return out


def mpf_potential_spectrum(q, kmax, prec):
    """lambda_0..lambda_kmax by transferring (w, w') across pieces in mpf."""
    prec = check_precision(prec)
    with mp.workprec(prec + GUARD_BITS):
        bp = [mpf(x) for x in q.breakpoints]
        vals = [mpf(v) for v in q.values]
        R = bp[-1]
        nk = kmax + 1

        # innermost piece: regular branch only
        b = bp[1]
        c = vals[0]
        if c == 0:
            states = [(mpf(1), mpf(k + 1) / b) for k in range(nk)]
        else:
            ladder, sgn = (mod_sph_i_ladder, 1) if c > 0 else (sph_j_ladder, -1)
            x2, x = _ladder_square(c, b)
            lad = ladder_values(ladder(kmax, x2), sgn * x)
            states = []
            for k in range(nk):
                w = b * lad[k]
                wp = lad[k] + x * (sgn * lad[k + 1] + k * lad[k] / x)
                states.append(_renormalize(w, wp))

        for j in range(1, len(vals)):
            a, b, c = bp[j], bp[j + 1], vals[j]
            if c == 0:
                t = a / b
                tk = mpf(1)  # t^k
                new_states = []
                for k in range(nk):
                    w1a = tk * t            # (a/b)^{k+1}
                    dw1a = (k + 1) * w1a / a
                    w2a = 1 / tk            # (a/b)^{-k}
                    dw2a = -k * w2a / a
                    w, wp = states[k]
                    det = w1a * dw2a - w2a * dw1a
                    A = (w * dw2a - wp * w2a) / det
                    B = (wp * w1a - w * dw1a) / det
                    # at r = b the scaled bases are 1 with slopes (k+1)/b, -k/b
                    wb = A + B
                    wpb = (A * (k + 1) - B * k) / b
                    new_states.append(_renormalize(wb, wpb))
                    tk *= t
                states = new_states
            else:
                W1a, dW1a, W2a, dW2a, W1b, dW1b, W2b, dW2b = _piece_bases(c, a, b, kmax)
                new_states = []
                for k in range(nk):
                    w, wp = states[k]
                    det = W1a[k] * dW2a[k] - W2a[k] * dW1a[k]
                    A = (w * dW2a[k] - wp * W2a[k]) / det
                    B = (wp * W1a[k] - w * dW1a[k]) / det
                    wb = A * W1b[k] + B * W2b[k]
                    wpb = A * dW1b[k] + B * dW2b[k]
                    new_states.append(_renormalize(wb, wpb))
                states = new_states

        lambdas = []
        collision_floor = mpmath.ldexp(mpf(1), -prec // 2)
        negative = any(v < 0 for v in vals)
        for k, (w, wp) in enumerate(states):
            if negative and abs(w) < collision_floor * abs(wp):
                raise DirichletCollisionError(k)
            lambdas.append(to_prec(wp / w - 1 / R, prec))
    return lambdas


def _random_potential(rng, m, R, mp_values):
    """m pieces on [0, R] mixing c > 0, c < 0 and c = 0, all above -0.8 pi^2 / R^2."""
    floor = -0.8 * math.pi ** 2 / R ** 2
    values = []
    for _ in range(m):
        branch = rng.choice(("pos", "neg", "zero"))
        if branch == "pos":
            values.append(rng.uniform(0.05, 40.0))
        elif branch == "neg":
            values.append(rng.uniform(floor, -0.05))
        else:
            values.append(0.0)
    cuts = list(itertools.accumulate(rng.uniform(0.05, 1.0) for _ in range(m)))
    if mp_values:
        with mp.workprec(300):
            # perturb below float resolution so every value needs all 300 bits
            values = [mpf(v) * (1 + mpf(rng.random()) / 2 ** 60) if v else mpf(0) for v in values]
            inner = [mpf(R) * c / cuts[-1] for c in cuts[:-1]]
    else:
        inner = [R * c / cuts[-1] for c in cuts[:-1]]
    return PiecewiseProfile(ProfileKind.POTENTIAL, R, (0.0, *inner, R), tuple(values))


def _cases():
    rng = random.Random(20220601)
    combos = list(itertools.product(KS, PRECS, RADII, (False, True)))
    rng.shuffle(combos)
    # the two ends of the piece range, then 22 log-uniform piece counts
    sized = [(1, (20, 512, 2.5, False)), (60, (150, 256, 1.0, True))]
    sized += [(round(math.exp(rng.uniform(0, math.log(60)))), c) for c in combos[:22]]
    return [(_random_potential(rng, m, R, mp_values), K, prec)
            for m, (K, prec, R, mp_values) in sized]


def test_random_potentials_match_the_mpf_transfer():
    for q, K, prec in _cases():
        ours = potential_spectrum(q, K, prec).lambdas
        ref = mpf_potential_spectrum(q, K, prec)
        assert len(ours) == K + 1
        with mp.workprec(prec + 64):
            for k, (a, b) in enumerate(zip(ours, ref)):
                tol = max(abs(b), 1) * mpf(2) ** (2 - prec)
                assert abs(a - b) <= tol, (q.piece_count, K, prec, k, a, b)


def _benchmark_shapes(rng):
    """The potential shapes of the forward benchmark: (profile, prec) at K = 150."""
    def pos():
        return rng.uniform(1.0, 30.0)

    def neg():
        return rng.uniform(-0.8 * math.pi ** 2, -1.0)

    def pot(breaks, values):
        return PiecewiseProfile(ProfileKind.POTENTIAL, 1.0, tuple(breaks), tuple(values))

    r1, r2 = rng.uniform(0.3, 0.7), rng.uniform(0.2, 0.45)
    layered = [pos() for _ in range(13)] + [neg() for _ in range(13)] + [0.0] * 14
    return [(pot((0.0, r1, 1.0), (pos(), pos())), 512),
            (pot((0.0, r1, 1.0), (neg(), neg())), 512),
            (pot((0.0, r2, r2 + 0.3, 1.0), (pos(), neg(), 0.0)), 256),
            (pot([j / 40 for j in range(41)], layered), 512)]


def test_benchmark_shapes_are_bit_identical_to_the_mpf_transfer():
    for q, prec in _benchmark_shapes(random.Random(7)):
        ours = potential_spectrum(q, 150, prec).lambdas
        ref = mpf_potential_spectrum(q, 150, prec)
        assert [x._mpf_ for x in ours] == [x._mpf_ for x in ref], q.piece_count


def test_bump_tail_keeps_every_bit_at_paper_terms():
    # the 200-piece projection of experiment 6's bump reaches values of 2.9e-87
    # in its tail, so the ladders run at x down to about 5e-44
    q = project_midpoint(experiment_profiles(6)["q_smooth_1"], 200)
    ours = potential_spectrum(q, 150, 512).lambdas
    ref = potential_spectrum(q, 150, 640).lambdas
    with mp.workprec(700):
        for k, (a, b) in enumerate(zip(ours, ref)):
            assert abs(a - b) < abs(b) * mpf(2) ** -508, k


def test_solves_call_no_mpmath_bessel(monkeypatch):
    # the forward benchmark's potentials at K = 150 and a 40-piece bump at K = 80
    # of heights 20 and -30 reach x of at most sqrt(30), where every regular
    # ladder starts by Miller.  The two-piece outer values reach x = 274 to
    # 1e10, past K + 1, where the regular ladders go up from closed forms
    def refuse(*args, **kwargs):
        raise AssertionError("an mpmath Bessel function was evaluated")

    for name in ("besseli", "besselj", "besselk", "bessely"):
        monkeypatch.setattr(mpmath, name, refuse)
    for q, prec in _benchmark_shapes(random.Random(7)):
        potential_spectrum(q, 150, prec)
    for bump in (experiment_profiles(6)["q_smooth_20"], experiment_profiles(10)["q_neg_30"]):
        potential_spectrum(project_midpoint(bump, 40), 80, 256)
    for inner, outer, K, prec in ((5.0, 1e9, 150, 512), (5.0, -1e9, 150, 512),
                                  (1.0, 1e20, 30, 128), (1.0, -1e16, 30, 128),
                                  (5.0, 3e6, 150, 512), (5.0, -3e5, 150, 512)):
        q = PiecewiseProfile(ProfileKind.POTENTIAL, 1.0, (0.0, 0.5, 1.0), (inner, outer))
        potential_spectrum(q, K, prec)


@pytest.mark.parametrize("c", (1e20, -1e16))
def test_huge_outer_values_solve_quickly_and_right(c):
    # for c = 1e20 the columns i_k and kk_k of the outer piece grow apart by
    # e^(2 s (b - a)), s = sqrt(c): a shift of 1.4e10 bits the transfer must skip
    q = PiecewiseProfile(ProfileKind.POTENTIAL, 1.0, (0.0, 0.5, 1.0), (1.0, c))
    ours = potential_spectrum(q, 30, 128).lambdas
    ref = potential_spectrum(q, 30, 256).lambdas
    with mp.workprec(300):
        for k, (a, b) in enumerate(zip(ours, ref)):
            assert abs(a - b) <= abs(b) * mpf(2) ** (2 - 128), k
        if c > 0:
            # u is i_k(s r) to within e^(-s), s = sqrt(c): lambda_k = k + s i_{k+1}(s) / i_k(s)
            s = mpmath.sqrt(mpf(c))
            for k in (0, 1, 30):
                exact = k + s * mpmath.besseli(k + mpf(3) / 2, s) / mpmath.besseli(k + mpf(1) / 2, s)
                assert abs(ours[k] - exact) <= exact * mpf(2) ** (2 - 128), k


@pytest.mark.parametrize("c", (1e-80, -1e-80))
def test_tiny_outer_value_keeps_every_bit(c):
    # x = 1e-40 r on the outer piece: the singular solution's coefficient is tiny
    # and multiplies kk_k or y_k of order x^-(k+1), so its term in u and r u' is
    # not small; a transfer that rounds it relative to the regular one loses it
    q = PiecewiseProfile(ProfileKind.POTENTIAL, 1.0, (0.0, 0.5, 1.0), (5.0, c))
    ours = potential_spectrum(q, 20, 256).lambdas
    ref = potential_spectrum(q, 20, 320).lambdas
    with mp.workprec(400):
        for k, (a, b) in enumerate(zip(ours, ref)):
            assert abs(a - b) <= abs(b) * mpf(2) ** -254, k


@pytest.mark.parametrize("R", RADII)
def test_random_potentials_match_the_ode_oracle(R):
    rng = random.Random(int(R * 10))
    for m in (1, 3, 8):
        q = _random_potential(rng, m, R, False)
        spec = potential_spectrum(q, 5, 128)
        for k in (0, 2, 5):
            ref = ode_log_derivative_oracle(q, k)
            assert abs(float(spec.lambdas[k]) - ref) <= 1e-6 * max(1.0, abs(ref)), (m, k)


def _constant_q(R, m, q0):
    breaks = (0.0, 0.3 * R, 0.75 * R, R) if m == 3 else (0.0, R)
    return PiecewiseProfile(ProfileKind.POTENTIAL, R, breaks, (q0,) * m)


@pytest.mark.parametrize("m", (1, 3))
@pytest.mark.parametrize("R", (1.0, 2.0))
def test_collision_raised_at_the_oracle_degree(R, m):
    # q = -pi^2 / R^2 puts the first Dirichlet eigenvalue of -Delta + q at 0
    with mp.workprec(300):
        q = _constant_q(R, m, -mpmath.pi ** 2 / mpf(R) ** 2)
    with pytest.raises(DirichletCollisionError) as theirs:
        mpf_potential_spectrum(q, 3, 256)
    with pytest.raises(DirichletCollisionError) as ours:
        potential_spectrum(q, 3, 256)
    assert ours.value.k == theirs.value.k == 0


@pytest.mark.parametrize("breaks, values", (((0.0, 1.0), (1e20,)), ((0.0, 0.5, 1.0), (1.0, 1e20))))
def test_large_nonnegative_potentials_raise_no_collision(breaks, values):
    # -Delta + q is positive definite for q >= 0, so 0 is never a Dirichlet
    # eigenvalue; yet lambda_0 = x coth x - 1 ~ 1e10 for q = 1e20 puts |R u| below
    # the floor 2^(-prec/2) |u + R u'| at 64 bits
    q = PiecewiseProfile(ProfileKind.POTENTIAL, 1.0, breaks, values)
    ours = potential_spectrum(q, 5, 64).lambdas
    ref = potential_spectrum(q, 5, 512).lambdas
    with mp.workprec(600):
        for k, (a, b) in enumerate(zip(ours, ref)):
            assert abs(a - b) <= abs(b) * mpf(2) ** -62, k


@pytest.mark.parametrize("offset", (-4, 4))
@pytest.mark.parametrize("R", (1.0, 2.0))
def test_collision_floor_is_decided_like_the_oracle(R, offset):
    # q = -(s/R)^2 with s = pi (1 + 2^e) gives |w/w'| ~ R 2^e at R for k = 0:
    # e = -prec/2 -+ 4 puts it 3 to 5 bits below or above the floor 2^(-prec/2)
    prec = 256
    with mp.workprec(600):
        s = mpmath.pi * (1 + mpf(2) ** (offset - prec // 2))
        q = _constant_q(R, 3, -(s / R) ** 2)
    if offset < 0:
        with pytest.raises(DirichletCollisionError) as theirs:
            mpf_potential_spectrum(q, 3, prec)
        with pytest.raises(DirichletCollisionError) as ours:
            potential_spectrum(q, 3, prec)
        assert ours.value.k == theirs.value.k == 0
    else:
        # lambda_0 ~ 2^(prec/2) is conditioned so that either engine keeps
        # only about prec + 32 - prec/2 of its bits
        ours = potential_spectrum(q, 3, prec).lambdas
        theirs = mpf_potential_spectrum(q, 3, prec)
        assert abs(ours[0]) > 2 ** (prec // 2 - 8)
        for a, b in zip(ours, theirs):
            assert abs(a - b) <= abs(b) * mpf(2) ** -(prec // 2)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: precision lost near a Dirichlet "
                   "collision is neither raised nor recorded")
def test_lambda_near_the_collision_floor_keeps_every_bit():
    # lambda_0 ~ 2^124 is so conditioned that only about prec + 32 - 124 of its
    # bits survive; it agrees with a 1200-bit solve to 2^-194.5 relative
    with mp.workprec(256):
        q = _constant_q(1.0, 1, -(mpmath.pi * (1 + mpf(2) ** -124)) ** 2)
    ours = potential_spectrum(q, 3, 256).lambdas[0]
    ref = potential_spectrum(q, 3, 1200).lambdas[0]
    assert abs(ours) > 2 ** 120
    with mp.workprec(1300):
        assert abs(ours - ref) <= abs(ref) * mpf(2) ** -254


def test_no_collision_below_the_first_dirichlet_eigenvalue():
    with mp.workprec(300):
        q = _constant_q(1.0, 1, -mpf("0.9") * mpmath.pi ** 2)
    ours = potential_spectrum(q, 3, 256).lambdas
    assert [x._mpf_ for x in ours] == [x._mpf_ for x in mpf_potential_spectrum(q, 3, 256)]
