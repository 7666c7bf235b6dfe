import random

import mpmath
import pytest
from mpmath import mp, mpf

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
