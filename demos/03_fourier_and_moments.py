"""
Radial Fourier transforms and Hausdorff moments
===============================================

The forward transform of a piecewise-constant radial function has a
closed form; the inverse is a sine-series sum with a fast DST path.
The same data can be summarized by power moments, and the eigenvalue
series evaluated on exact moments reproduces the transform.
"""

import numpy as np
from mpmath import mp, mpf

from radialborn import (
    PiecewiseProfile,
    ProfileKind,
    default_xi_grid,
    eval_series_L,
    forward_radial_ft,
    inverse_radial_ft,
    moment_sequence_exact,
)

# Indicator of the ball of radius 1/2, treated as a potential.
half = PiecewiseProfile(ProfileKind.POTENTIAL, 1.0, (0.0, 0.5, 1.0), (1.0, 0.0))

# Forward transform on the canonical grid xi_j = j h, h = pi / L (exact mpf nodes).
grid = default_xi_grid(256, 10.0)
F = forward_radial_ft(half, grid, prec=128)
print("F(0) =", float(F.values[0]), " (volume of B_1/2 =", 4 / 3 * np.pi / 8, ")")

# Round trip: the inverse recovers the function away from the jump.
inv = inverse_radial_ft(F)
for r_target in (0.2, 0.4, 0.6, 0.8):
    i = int(np.argmin(np.abs(inv.r_grid - r_target)))
    print(f"f({inv.r_grid[i]:.3f}) ~ {inv.values[i]: .4f}")

# Moments sigma_k = integral of f r^{2k+2} dr, here (1/2)^{2k+3}/(2k+3).
sigma = moment_sequence_exact(half, 5, prec=128)
with mp.workprec(160):
    exact = [mpf(1) / mpf(2) ** (2 * k + 3) / (2 * k + 3) for k in range(6)]
    for k in range(6):
        print(f"sigma_{k}: {float(sigma[k]):.3e} (exact {float(exact[k]):.3e})")

# The moment series evaluated at one frequency agrees with the transform.
mu = moment_sequence_exact(half, 120, prec=256)
xi = grid[40]
series_val = eval_series_L(mu, xi, prec=256)
print("series vs transform at xi =", float(xi), ":",
      float(abs(series_val - F.values[40])))
