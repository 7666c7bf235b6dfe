"""An independent last-bit oracle for the DtN spectrum of a piecewise profile.

Per degree k the state (u, r gamma u') crosses each piece in mpf arithmetic at
prec + 96 bits: the piece's two solutions are evaluated as (u, r gamma u') at
both ends, the coefficients are solved at the inner end and the state is
formed at the outer end.  The innermost piece keeps its regular solution.

A flat piece (every conductivity piece, and a potential piece with c = 0) uses
r^k and r^-(k+1).  A potential piece with c != 0 uses x = sqrt(|c|) r and
mpmath's ``besseli`` and ``besselk`` (c > 0) or ``besselj`` and ``bessely``
(c < 0) at orders nu = k + 1/2 and k + 3/2.  With u = x^-1/2 Z_nu(x), the
relations Z_nu' = +-Z_{nu+1} + nu Z_nu / x give r u' = x^-1/2 (k Z_nu +- x Z_{nu+1}),
with + for I and - for K, J and Y.  The factor x^-1/2 is common to both
solutions at one r, so it scales the piece's transfer by one number and is
dropped.

Nothing here reads the engine's integer ladders or its transfer, and since no
mpmath Bessel function is called in ``src/``, agreement to the last bit checks
the engine against code it shares nothing with but the profile.
"""

import mpmath
from mpmath import mp, mpf

from radialborn.highprec import check_precision
from radialborn.profiles import ProfileKind

ORACLE_GUARD = 96


def _bessel_columns(c, r, kmax):
    """[(u_1, ru'_1, u_2, ru'_2) for k = 0..kmax] of the regular and singular solution."""
    x = mpmath.sqrt(abs(c)) * r
    if c > 0:
        reg, sing, s_reg = mpmath.besseli, mpmath.besselk, 1
    else:
        reg, sing, s_reg = mpmath.besselj, mpmath.bessely, -1
    f = [reg(k + mpf(1) / 2, x) for k in range(kmax + 2)]
    g = [sing(k + mpf(1) / 2, x) for k in range(kmax + 2)]
    return [(f[k], k * f[k] + s_reg * x * f[k + 1], g[k], k * g[k] - x * g[k + 1])
            for k in range(kmax + 1)]


def _flat_columns(gamma, r, kmax):
    """The same for r^k and r^-(k+1) under gamma."""
    out = []
    for k in range(kmax + 1):
        p, q = r ** k, r ** -(k + 1)
        out.append((p, gamma * k * p, q, -gamma * (k + 1) * q))
    return out


def oracle_spectrum(profile, kmax, prec):
    """lambda_0..lambda_kmax of a PiecewiseProfile of either kind as mpfs at prec + 96 bits."""
    prec = check_precision(prec)
    potential = profile.kind is ProfileKind.POTENTIAL
    with mp.workprec(prec + ORACLE_GUARD):
        bp = [mpf(x) for x in profile.breakpoints]
        vals = [mpf(v) for v in profile.values]

        def columns(j, r):
            c = vals[j]
            if potential and c != 0:
                return _bessel_columns(c, r, kmax)
            return _flat_columns(mpf(1) if potential else c, r, kmax)

        state = [(u1, v1) for u1, v1, _, _ in columns(0, bp[1])]
        for j in range(1, len(vals)):
            at_a, at_b = columns(j, bp[j]), columns(j, bp[j + 1])
            new = []
            for (u, v), (u1, v1, u2, v2), (U1, V1, U2, V2) in zip(state, at_a, at_b):
                det = u1 * v2 - u2 * v1
                A, B = (u * v2 - v * u2) / det, (v * u1 - u * v1) / det
                U, V = A * U1 + B * U2, A * V1 + B * V2
                s = max(abs(U), abs(V))
                new.append((U / s, V / s))
            state = new
        R = bp[-1]
        return [v / (R * u) for u, v in state]


def ulps(ours, ref, prec):
    """|ours - ref| in units of the last place at prec bits of the oracle value ref."""
    with mp.workprec(prec + ORACLE_GUARD):
        ours, ref = mpf(ours), mpf(ref)
        if ref == 0:
            return 0 if ours == 0 else mpmath.inf
        _, e = mpmath.frexp(ref)
        return abs(ours - ref) / mpmath.ldexp(1, int(e) - prec)
