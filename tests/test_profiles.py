import math

import pytest
from mpmath import mpf

from radialborn.profiles import (
    AnalyticProfile,
    PiecewiseProfile,
    ProfileFormatError,
    ProfileKind,
    parse_profile,
    project_midpoint,
    serialize_profile,
)


def step_gamma():
    return PiecewiseProfile(ProfileKind.CONDUCTIVITY, 1.0, (0.0, 0.5, 1.0), (2.0, 1.0))


def test_missing_analytic_parameter_is_a_value_error():
    p = AnalyticProfile(ProfileKind.POTENTIAL, 1.0, "annular_bump", {"outer": 0.8})
    with pytest.raises(ValueError, match="'annular_bump' needs parameter inner"):
        p(0.3)


def test_piecewise_evaluation_right_closed():
    p = step_gamma()
    assert p(0.0) == 2.0
    assert p(0.5) == 2.0
    assert p(0.5000001) == 1.0
    assert p(1.0) == 1.0


def test_invalid_breakpoints_rejected():
    with pytest.raises(ValueError):
        PiecewiseProfile(ProfileKind.CONDUCTIVITY, 1.0, (0.0, 0.5, 0.4), (2.0, 1.0))
    with pytest.raises(ValueError):
        PiecewiseProfile(ProfileKind.CONDUCTIVITY, 1.0, (0.1, 0.5, 1.0), (2.0, 1.0))
    nan, inf = float("nan"), float("inf")
    for kind, radius, bp, vals in [
            (ProfileKind.CONDUCTIVITY, 1.0, (0.0, 0.5, 1.0), (nan, 1.0)),
            (ProfileKind.POTENTIAL, 1.0, (0.0, 0.5, 1.0), (inf, 0.0)),
            (ProfileKind.POTENTIAL, 1.0, (0.0, 0.5, 1.0), (-inf, 0.0)),
            (ProfileKind.POTENTIAL, 1.0, (0.0, nan, 1.0), (1.0, 0.0)),
            (ProfileKind.POTENTIAL, inf, (0.0, 0.5, inf), (1.0, 0.0)),
            (ProfileKind.POTENTIAL, 1.0, (0.0, 0.5, 1.0), (mpf("inf"), 0.0))]:
        with pytest.raises(ValueError, match="finite"):
            PiecewiseProfile(kind, radius, bp, vals)
    for text in ("values nan 1", "values 2 inf"):
        with pytest.raises(ProfileFormatError, match="finite"):
            parse_profile(f"kind conductivity\nradius 1\nbreakpoints 0 0.5 1\n{text}\n")
    # an mpf beyond float range is finite
    huge = mpf(2) ** 2000
    assert PiecewiseProfile(ProfileKind.POTENTIAL, 1.0, (0.0, 1.0), (huge,)).values == (huge,)


def test_negative_conductivity_rejected():
    with pytest.raises(ValueError):
        PiecewiseProfile(ProfileKind.CONDUCTIVITY, 1.0, (0.0, 1.0), (-1.0,))
    # potentials may be negative
    PiecewiseProfile(ProfileKind.POTENTIAL, 1.0, (0.0, 1.0), (-1.0,))


def test_projection_example():
    g = AnalyticProfile(ProfileKind.CONDUCTIVITY, 1.0, "exp3_profile", {})
    proj = project_midpoint(g, 4)
    assert proj.values == (2.375, 2.125, 1.875, 1.625)


def test_projection_refinement_lipschitz():
    g = AnalyticProfile(ProfileKind.CONDUCTIVITY, 1.0, "exp3_profile", {})
    for m in (10, 100, 1000):
        proj = project_midpoint(g, m)
        sup = max(abs(proj((j + 0.17) / m) - g((j + 0.17) / m)) for j in range(m))
        assert sup <= 1.0 / (2 * m) + 1e-12


def test_serialize_parse_round_trip_piecewise():
    p = step_gamma()
    q = parse_profile(serialize_profile(p))
    assert q.kind is p.kind
    assert [float(b) for b in q.breakpoints] == list(p.breakpoints)
    assert [float(v) for v in q.values] == list(p.values)


def test_serialize_parse_round_trip_analytic():
    p = AnalyticProfile(ProfileKind.POTENTIAL, 1.0, "cosine_series",
                        {"c": [0.5, -0.25]})
    q = parse_profile(serialize_profile(p))
    assert isinstance(q, AnalyticProfile)
    assert q.name == "cosine_series"
    assert list(q.params["c"]) == [0.5, -0.25]
    assert abs(q(0.3) - p(0.3)) < 1e-12


def test_parse_rejects_decreasing_breakpoints():
    text = "kind conductivity\nradius 1\nbreakpoints 0 0.5 0.4\nvalues 2 1\n"
    with pytest.raises(ProfileFormatError, match="not increasing"):
        parse_profile(text)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ProfileFormatError, match="line 3"):
        parse_profile("kind potential\nradius 1\nwobble 3\n")
    with pytest.raises(ProfileFormatError, match="line 2"):
        parse_profile("kind potential\nradius abc\n")


def test_parse_unknown_descriptor():
    with pytest.raises(ProfileFormatError):
        parse_profile("kind potential\nradius 1\nanalytic no_such_thing\n")


def test_bump_offset_and_support():
    g = AnalyticProfile(ProfileKind.CONDUCTIVITY, 1.0, "bump",
                        {"height": 0.3, "support": 0.5, "offset": 1.0})
    assert g(0.0) == pytest.approx(1.3)
    assert g(0.5) == 1.0
    assert g(0.9) == 1.0


def test_cosine_series_basis_normalization():
    # each basis function sqrt(2) cos(pi (j-1/2) r) has unit L2 norm on (0,1)
    p = AnalyticProfile(ProfileKind.POTENTIAL, 1.0, "cosine_series", {"c": [1.0]})
    n = 20000
    h = 1.0 / n
    norm2 = sum(p((i + 0.5) * h) ** 2 for i in range(n)) * h
    assert norm2 == pytest.approx(1.0, abs=1e-6)
    assert p(1.0) == pytest.approx(0.0, abs=1e-12)
