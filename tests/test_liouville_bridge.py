"""The conductivity engine against the potential engine through the Liouville map.

For a smooth gamma with gamma = 1 and gamma' = 0 at R, the DtN map of
div(gamma grad .) equals that of -Delta + q with q = Delta sqrt(gamma) / sqrt(gamma)
(Sylvester & Uhlmann, Ann. Math. 125 (1987) 153).  In three dimensions

    q = gamma'' / (2 gamma) - gamma'^2 / (4 gamma^2) + gamma' / (r gamma),

so the engine's flat-piece transfer (every piece of gamma) and its Bessel-piece
transfer (every piece of q) must give the same lambda_k, up to the O(h^2)
error of the two midpoint staircases.  No other test sets one branch against
the other at high precision.
"""

import math

from radialborn.forward import spectrum_of
from radialborn.profiles import AnalyticProfile, PiecewiseProfile, ProfileKind, project_midpoint

HEIGHT = 0.3  # gamma = 1 + 0.3 bump, experiment 4's gamma_mild
TERMS, PREC = 40, 256


def liouville_potential(r):
    """q of gamma = 1 + HEIGHT b, b = exp(phi), phi = 1 - 1 / (1 - r^2), on the unit ball."""
    s = 1.0 - r * r
    b = math.exp(1.0 - 1.0 / s)
    d1 = -2.0 * r / (s * s)                     # phi'
    d2 = -2.0 / (s * s) - 8.0 * r * r / s ** 3  # phi''
    g, g1, g2 = 1.0 + HEIGHT * b, HEIGHT * b * d1, HEIGHT * b * (d1 * d1 + d2)
    return g2 / (2 * g) - g1 * g1 / (4 * g * g) + g1 / (r * g)


def bridge_gap(m):
    """max over 1 <= k <= TERMS of |lambda_k(gamma) - lambda_k(q)| on m equal pieces."""
    gamma = project_midpoint(AnalyticProfile(ProfileKind.CONDUCTIVITY, 1.0, "bump",
                                             {"height": HEIGHT, "offset": 1.0}), m)
    q = PiecewiseProfile(ProfileKind.POTENTIAL, 1.0, gamma.breakpoints,
                         tuple(liouville_potential((j + 0.5) * (1.0 / m)) for j in range(m)))
    lg = spectrum_of(gamma, TERMS, PREC).lambdas
    lq = spectrum_of(q, TERMS, PREC).lambdas
    return max(abs(float(a - b)) for a, b in zip(lg[1:], lq[1:]))


def test_conductivity_and_potential_engines_meet_at_order_h_squared():
    # measured: 9.77e-8 at m = 240 and 2.44e-8 at m = 480, both at k = 2, against
    # shifts lambda_k - k of 0.08 to 0.09 there.  A doubled flat-piece t gives a
    # gap of 81 and a flipped Bessel-column sign one of 0.19; a one-ulp error in
    # t stays below the O(h^2) gap and is not caught here
    coarse, fine = bridge_gap(240), bridge_gap(480)
    assert coarse < 1.1e-7
    assert fine < 2.8e-8
    assert 3.8 < coarse / fine < 4.2
