import math

import pytest
from mpmath import mp, mpf

from radialborn.cache import spectrum_key
from radialborn.profiles import (
    PARSE_PREC,
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
    # every value of at most PARSE_PREC bits reads back exactly, so the parsed
    # profile is the same problem; 0.1 and 0.7 as floats used to be written as
    # their shortest reprs, read back at 64 bits as other values with another key
    with mp.workprec(PARSE_PREC):
        third, tenth = mpf(1) / 3, mpf(1) / 10
    for p in (step_gamma(),
              PiecewiseProfile(ProfileKind.POTENTIAL, 0.7, (0.0, 0.1, 0.7), (3.0, -0.1)),
              PiecewiseProfile(ProfileKind.CONDUCTIVITY, third, (0.0, tenth, third),
                               (1 + tenth, third))):
        text = serialize_profile(p)
        q = parse_profile(text)
        assert q.kind is p.kind
        assert (q.radius, q.breakpoints, q.values) == (p.radius, p.breakpoints, p.values)
        assert spectrum_key(q, 40, 128) == spectrum_key(p, 40, 128)
        assert serialize_profile(q) == text
    assert serialize_profile(step_gamma()).splitlines()[1] == "radius 1.000000000000000000000"


def test_radius_must_equal_the_last_breakpoint_exactly():
    # equal as floats but not at the 64 bits they are read at: the spectrum
    # used to be solved at the breakpoint and labelled with the radius
    with pytest.raises(ProfileFormatError, match="last breakpoint must equal the radius"):
        parse_profile("kind potential\nradius 0.7\n"
                      "breakpoints 0 0.35 0.70000000000000001\nvalues 2 0\n")
    with mp.workprec(64):
        radius = mpf(0.7) + mpf(2) ** -60
    with pytest.raises(ValueError, match="last breakpoint must equal the radius"):
        PiecewiseProfile(ProfileKind.POTENTIAL, radius, (0.0, 0.7), (1.0,))


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


def test_parse_unknown_analytic_parameter():
    # a misspelt key used to be dropped, leaving a bump of the default height 1
    with pytest.raises(ProfileFormatError, match="line 3: bump has no parameter 'hieght'"):
        parse_profile("kind potential\nradius 1\nanalytic bump hieght=2\n")
    with pytest.raises(ProfileFormatError, match="exp3_profile has no parameter 'height'"):
        parse_profile("kind conductivity\nradius 1\nanalytic exp3_profile height=2\n")
    params = {"bump": "height=2 support=0.5 offset=1",
              "annular_bump": "inner=0.2 outer=0.8 height=2 offset=1",
              "cosine_series": "c=[1,2] offset=1", "exp3_profile": ""}
    for name, given in params.items():
        p = parse_profile(f"kind conductivity\nradius 1\nanalytic {name} {given}\n")
        assert sorted(p.params) == sorted(t.partition("=")[0] for t in given.split())


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
