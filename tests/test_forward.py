import random

import mpmath
import numpy as np
import pytest
from mpmath import mp, mpf
from mpmath.libmp import from_int, from_man_exp, mpf_div, round_nearest

from radialborn.forward import (
    DirichletCollisionError,
    DtnSpectrum,
    TransferDenominatorError,
    ode_log_derivative_oracle,
    potential_spectrum,
    raw_scaled_shifts,
    spectrum_of,
    transfer_radius,
    untransfer_radius,
)
from radialborn.highprec import _quotient
from radialborn.profiles import AnalyticProfile, PiecewiseProfile, ProfileKind


def const_q(value, radius=1.0):
    return PiecewiseProfile(ProfileKind.POTENTIAL, radius, (0.0, radius), (value,))


def test_free_potential_eigenvalues_exact():
    spec = potential_spectrum(const_q(0.0), 30, 128)
    for k, lam in enumerate(spec.lambdas):
        assert lam == k


def test_analytic_profile_is_a_type_error():
    # the engine and the ODE oracle read breakpoints: an analytic profile must
    # be projected first
    for kind in ProfileKind:
        with pytest.raises(TypeError, match="project_midpoint"):
            spectrum_of(AnalyticProfile(kind, 1.0, "bump", {"height": 1.0}), 5, 128)
    with pytest.raises(TypeError, match="project_midpoint"):
        ode_log_derivative_oracle(AnalyticProfile(ProfileKind.POTENTIAL, 1.0, "bump",
                                                  {"height": 1.0}), 1)


def test_negative_term_count_is_a_value_error():
    # range(kmax + 1) would be empty and the spectrum () with kmax == -1
    for kind in ProfileKind:
        p = PiecewiseProfile(kind, 1.0, (0.0, 1.0), (1.0,))
        with pytest.raises(ValueError, match="kmax >= 0, got -1"):
            spectrum_of(p, -1, 128)


def test_non_integer_term_count_is_a_value_error():
    # 10.5 used to raise AttributeError on float.bit_length deep in the solve
    p = PiecewiseProfile(ProfileKind.POTENTIAL, 1.0, (0.0, 1.0), (1.0,))
    for kmax in (10.5, 10.0, "10"):
        with pytest.raises(ValueError, match=f"integer term count kmax >= 0, got {kmax!r}"):
            spectrum_of(p, kmax, 128)
    # a numpy integer passed the check, then raised AttributeError on bit_length
    assert spectrum_of(p, np.int64(10), np.int64(128)) == spectrum_of(p, 10, 128)


def test_unit_conductivity_eigenvalues():
    for R in (1.0, 2.0):
        g = PiecewiseProfile(ProfileKind.CONDUCTIVITY, R, (0.0, R), (1.0,))
        spec = spectrum_of(g, 20, 128)
        with mp.workprec(160):
            for k, lam in enumerate(spec.lambdas):
                target = mpf(k) / mpf(R)
                assert abs(lam - target) <= abs(target) * mpf(2) ** -126 or lam == target


def test_constant_potential_closed_form():
    # lambda_0[q=1] = coth(1) - 1; lambda_k[q=1] = i_{k+1}(1)/i_k(1) + k, via
    # sqrt(c) i_k'(sqrt(c) R)/i_k(sqrt(c) R) - 1/R at c = R = 1
    spec = potential_spectrum(const_q(1.0), 10, 256)
    with mp.workprec(300):
        ref0 = mpmath.coth(1) - 1
        assert abs(spec.lambdas[0] - ref0) <= mpf(2) ** -250
        for k in (1, 5, 10):
            ik = mpmath.sqrt(mpmath.pi / 2) * mpmath.besseli(k + mpf(1) / 2, 1)
            ik1 = mpmath.sqrt(mpmath.pi / 2) * mpmath.besseli(k + mpf(3) / 2, 1)
            ref = ik1 / ik + k
            assert abs(spec.lambdas[k] - ref) <= abs(ref) * mpf(2) ** -245


def test_step_conductivity_rational_eigenvalue():
    # two-piece gamma = (2, 1) split at 1/2: lambda_1 = 34/31 exactly
    g = PiecewiseProfile(ProfileKind.CONDUCTIVITY, 1.0, (0.0, 0.5, 1.0), (2.0, 1.0))
    spec = spectrum_of(g, 2, 256)
    with mp.workprec(300):
        assert spec.lambdas[0] == 0
        assert abs(spec.lambdas[1] - mpf(34) / 31) <= mpf(2) ** -250


def test_negative_potential_mixed_branches():
    # c < 0 pieces exercise the oscillatory branch; compare with the ODE oracle
    q = PiecewiseProfile(ProfileKind.POTENTIAL, 1.0, (0.0, 0.4, 1.0), (-6.0, 2.0))
    spec = potential_spectrum(q, 5, 256)
    for k in (0, 2, 5):
        ref = ode_log_derivative_oracle(q, k)
        assert abs(float(spec.lambdas[k]) - ref) < 1e-6


def test_dirichlet_collision_detected():
    # q = -pi^2 on the unit ball makes w(1) = sin(pi) = 0 for k = 0
    with mp.workprec(300):
        qval = -mpmath.pi ** 2
        q = PiecewiseProfile(ProfileKind.POTENTIAL, 1.0, (0.0, 1.0), (qval,))
        with pytest.raises(DirichletCollisionError) as exc:
            potential_spectrum(q, 3, 256)
        assert exc.value.k == 0


def test_transfer_matches_direct_solve():
    q = PiecewiseProfile(ProfileKind.POTENTIAL, 1.0, (0.0, 0.9, 1.0), (3.0, 0.0))
    spec = potential_spectrum(q, 20, 256)
    moved = transfer_radius(spec, 2.0)
    big = PiecewiseProfile(ProfileKind.POTENTIAL, 2.0, (0.0, 0.9, 2.0), (3.0, 0.0))
    direct = potential_spectrum(big, 20, 256)
    with mp.workprec(300):
        for k in range(21):
            assert abs(moved.lambdas[k] - direct.lambdas[k]) <= abs(direct.lambdas[k]) * mpf(10) ** -40 + mpf(10) ** -45


def test_transfer_labels_its_result_with_the_radius_it_computed_at():
    # the radius used to be float(R), so for R = 7/3 at 300 bits lambda_60 - 60/R
    # of the result read 1.6e-15 where the directly solved shift is 1.9e-80
    g = PiecewiseProfile(ProfileKind.CONDUCTIVITY, 1.0, (0.0, 0.5, 1.0), (2.0, 1.0))
    with mp.workprec(300):
        R = mpf(7) / 3
    moved = transfer_radius(spectrum_of(g, 60, 300), R)
    direct = spectrum_of(PiecewiseProfile(g.kind, R, (0.0, 0.5, R), g.values), 60, 300)
    assert moved.radius == R
    with mp.workprec(400):
        for k in (1, 30, 60):
            shift = moved.lambdas[k] - k / mpf(moved.radius)
            assert abs(shift - (direct.lambdas[k] - k / R)) <= mpf(2) ** -280, k


def test_transfer_round_trip():
    q = PiecewiseProfile(ProfileKind.POTENTIAL, 1.0, (0.0, 0.5, 1.0), (2.0, -1.0))
    spec = potential_spectrum(q, 15, 256)
    back = untransfer_radius(transfer_radius(spec, 3.0))
    with mp.workprec(300):
        for k, (a, b) in enumerate(zip(spec.lambdas, back.lambdas)):
            # recovering lambda_k - k from the radius-R spectrum amplifies
            # representation error by R^(2k+1)
            cond = mpf(3) ** (2 * k + 1)
            assert abs(a - b) <= (abs(a) + 1) * cond * mpf(2) ** -250


def test_transfer_works_from_any_radius():
    # inward from a directly solved radius-2 spectrum, and between two radii > 1,
    # for a potential and a conductivity supported in B_0.9
    for kind, vals in ((ProfileKind.POTENTIAL, (3.0, 0.0)), (ProfileKind.CONDUCTIVITY, (2.5, 1.0))):
        solve = {R: spectrum_of(PiecewiseProfile(kind, R, (0.0, 0.9, R), vals), 20, 256)
                 for R in (1.0, 2.0, 3.0)}
        for a, R in ((2.0, 1.0), (2.0, 3.0)):
            moved = transfer_radius(solve[a], R)
            assert moved.kind is kind and moved.radius == R
            with mp.workprec(300):
                for k, (x, y) in enumerate(zip(moved.lambdas, solve[R].lambdas)):
                    cond = max(a / R, 1.0) ** (2 * k + 1)  # inward amplifies the shift's error
                    assert abs(x - y) <= (abs(y) + 1) * cond * mpf(2) ** -240, (kind, a, R, k)


def mpf_scaled_shifts(spec, R, prec):
    """The radius map in mpf operators at prec + 32 bits: the reference that
    ``raw_scaled_shifts`` must equal bit for bit."""
    with mp.workprec(prec + 32):
        a, R = mpf(spec.radius), mpf(R)
        unit, far = a == 1, mpmath.isinf(R)
        out = []
        for k, lam in enumerate(spec.lambdas):
            m = 2 * k + 1
            s = lam - k if unit else lam - mpf(k) / a
            if R == a:
                out.append(s if unit else a ** (m + 1) * s)
                continue
            den = (lam if unit else a * lam) + k + 1
            if not far:
                den -= (R ** -m if unit else (a / R) ** m * a) * s
            if den == 0:
                raise TransferDenominatorError(k)
            out.append(s * m / den if unit else a ** (m + 1) * s * m / den)
    return out


def test_scaled_shifts_equal_the_mpf_operators_bit_for_bit():
    # radius 1 and not, R at the radius, inside, outside and at infinity, and
    # lambdas with more bits than the precision the map runs at
    rng = random.Random(11)
    for prec in (64, 256, 1024):
        for a in (1.0, 2.5, 0.7, mpf(1) / 3):
            with mp.workprec(prec + 100):
                lambdas = [k / mpf(a) + mpf(rng.uniform(-1, 1)) * mpf(2) ** -rng.randint(0, 4 * k + 2)
                           / mpf(3) for k in range(60)]
            spec = DtnSpectrum(ProfileKind.POTENTIAL, a, lambdas, prec)
            for R in (a, 1.0, 0.5, 5.0, mpmath.inf):
                got = raw_scaled_shifts(spec, R, prec)
                assert got == [x._mpf_ for x in mpf_scaled_shifts(spec, R, prec)]


def test_zero_transfer_denominator_raises_with_its_degree():
    # lambda_0 = -2 on the unit ball: lambda_0 + 1 - 2^-1 (lambda_0 - 0) = 0 at R = 2
    spec = DtnSpectrum(ProfileKind.POTENTIAL, 1.0, (mpf(-2), mpf(1)), 128)
    with pytest.raises(TransferDenominatorError) as exc:
        transfer_radius(spec, 2.0)
    assert exc.value.k == 0


def test_conductivity_lambda0_always_zero():
    g = PiecewiseProfile(ProfileKind.CONDUCTIVITY, 1.0, (0.0, 0.3, 0.7, 1.0),
                         (5.0, 0.2, 1.0))
    spec = spectrum_of(g, 8, 128)
    assert spec.lambdas[0] == 0


def test_spectrum_monotone_in_potential_sign():
    # positive potential raises every eigenvalue, negative lowers it
    up = potential_spectrum(const_q(2.0), 10, 128)
    down = potential_spectrum(const_q(-2.0), 10, 128)
    for k in range(11):
        assert up.lambdas[k] > k > down.lambdas[k]


def _quotient_cases(prec):
    """(n, e, d): seeded random, exact half-way ties and their neighbours, either
    sign, n = 0 and d with trailing zeros."""
    rng = random.Random(prec)
    cases = [(0, 5, 3), (0, -7, -12), (1, 0, 1), (-1, 0, 3), (5, 3, -1 << 40)]
    for _ in range(300):
        n = rng.getrandbits(rng.randint(1, 3 * prec)) * rng.choice((-1, 1)) or 1
        d = rng.getrandbits(rng.randint(1, 3 * prec)) * rng.choice((-1, 1)) or 1
        cases.append((n, rng.randint(-600, 600), d << rng.choice((0, 0, 1, 37, 300))))
    for _ in range(100):
        # n 2^-1 / d = M + 1/2 exactly, half-way between two prec-bit values M and M + 1
        M = rng.getrandbits(prec) | 1 << prec - 1
        d = rng.getrandbits(rng.randint(1, 2 * prec)) | 1
        d <<= rng.choice((0, 5))
        for n in ((2 * M + 1) * d, (2 * M + 1) * d + 1, (2 * M + 1) * d - 1):
            cases.append((n * rng.choice((-1, 1)), rng.randint(-300, 300) - 1, d))
    return cases


@pytest.mark.parametrize("prec", [64, 96, 256, 543])
def test_the_lambda_quotient_is_mpf_div_bit_for_bit(prec):
    for n, e, d in _quotient_cases(prec):
        ref = mpf_div(from_man_exp(n, e), from_int(d), prec, round_nearest)
        assert _quotient(n, e, d, prec) == ref, (n, e, d)


@pytest.mark.parametrize("kind, values", [
    (ProfileKind.POTENTIAL, (-40.0, -40.0, 0.0, 0.0, 0.0, 7.0, 7.0, -3.0)),
    (ProfileKind.CONDUCTIVITY, (2.0, 2.0, 2.0, 0.5, 1.0, 1.0, 1.0, 1.0)),
], ids=("potential", "conductivity"))
def test_a_run_of_equal_pieces_is_crossed_as_one_piece(kind, values):
    # the engine merges each run itself; with m <= K + 1 both profiles get the same F,
    # so they agree bit for bit
    breaks = (0.0, 0.1, 0.2, 0.35, 0.5, 0.6, 0.8, 0.9, 1.0)
    split = PiecewiseProfile(kind, 1.0, breaks, values)
    keep = [0] + [j for j in range(1, len(values)) if values[j] != values[j - 1]]
    merged = PiecewiseProfile(kind, 1.0, tuple(breaks[j] for j in keep) + (1.0,),
                              tuple(values[j] for j in keep))
    assert merged.piece_count < split.piece_count
    ours, ref = (spectrum_of(p, 30, 256).lambdas for p in (split, merged))
    assert [x._mpf_ for x in ours] == [x._mpf_ for x in ref]
