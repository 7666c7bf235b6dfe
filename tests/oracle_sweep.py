"""A seeded random sweep of the forward engine against the independent mpf oracle.

Run as ``PYTHONPATH=src python tests/oracle_sweep.py [--seed S] [--count N]``.
Each of the N rounds solves one profile of each family below, and
checks every lambda_k to 1 ulp of the oracle; the script exits 1 on the first
disagreement and prints the worst ulp and the time of each family.

* ``mixed``: 2-20 pieces with |c| log-uniform in [1e-2, 1e4], either sign, some 0;
* ``turning``: an outer piece of either sign whose x = sqrt(|c|) R lies between
  (kmax + 1) / 2 and 2 (kmax + 1), so x falls on both sides of kmax + 1 and a
  negative outer piece runs past its turning point;
* ``collision``: a constant or two-piece negative potential within a factor
  1 + 2^-u, u in [4, 20], of the first Dirichlet eigenvalue, where lambda_0 is
  about 2^u;
* ``deep``: positive inner pieces under an outer negative one with |c| R^2 up to
  (kmax + 1)^2, the case that a cut of the inner pieces must not touch;
* ``contrast``: conductivities of 2-30 pieces with values in 10^+-3;
* ``runs``: runs of 1-6 equal pieces, which the engine crosses as one piece:
  conductivities with gamma in 10^+-2, and potentials with c of either sign or
  0, half of them with a strong negative core before a zero run: x =
  sqrt(|c|) b up to 1.5 kmax, or within 2^-20..2^-100 of a zero of j_{k-1},
  where degree k leaves the core near r^-(k+1);
* ``edge``: a negative core on (0, b] with b in 2^-1300..2^-1100, below the
  float range, |c| above it and x = sqrt(|c|) b in [1, kmax], then a zero run of
  1-3 pieces and a positive piece.
"""

import argparse
import math
import random
import sys
import time
from pathlib import Path

import mpmath
from mpmath import mp, mpf

sys.path.insert(0, str(Path(__file__).resolve().parent))

from mpf_oracle import oracle_spectrum, ulps  # noqa: E402
from radialborn.forward import spectrum_of  # noqa: E402
from radialborn.profiles import PiecewiseProfile, ProfileKind  # noqa: E402


def _breaks(rng, m, R=1.0):
    cuts = sorted(rng.uniform(0.01, 0.99) * R for _ in range(m - 1))
    return (0.0, *cuts, R)


def _signed(rng, lo, hi):
    return rng.choice((-1, 1)) * 10 ** rng.uniform(lo, hi)


def _mixed(rng, K):
    m = rng.randint(2, 20)
    values = [0.0 if rng.random() < 0.15 else _signed(rng, -2, 4) for _ in range(m)]
    return PiecewiseProfile(ProfileKind.POTENTIAL, 1.0, _breaks(rng, m), tuple(values))


def _turning(rng, K):
    m = rng.randint(2, 8)
    x = rng.uniform(0.5, 2.0) * (K + 1)
    R = rng.choice((1.0, 2.5))
    values = [_signed(rng, -1, 2) for _ in range(m - 1)] + [rng.choice((-1, 1)) * (x / R) ** 2]
    return PiecewiseProfile(ProfileKind.POTENTIAL, R, _breaks(rng, m, R), tuple(values))


def _collision(rng, K):
    u = rng.uniform(4, 20)
    q = -(math.pi * (1 + 2.0 ** -u)) ** 2
    if rng.random() < 0.5:
        return PiecewiseProfile(ProfileKind.POTENTIAL, 1.0, (0.0, 1.0), (q,))
    return PiecewiseProfile(ProfileKind.POTENTIAL, 1.0, (0.0, rng.uniform(0.2, 0.8), 1.0), (q, q))


def _deep(rng, K):
    m = rng.randint(3, 12)
    outer = -rng.uniform(0.2, 1.0) * (K + 1) ** 2
    values = [10 ** rng.uniform(0, 4) for _ in range(m - 1)] + [outer]
    return PiecewiseProfile(ProfileKind.POTENTIAL, 1.0, _breaks(rng, m), tuple(values))


def _contrast(rng, K):
    m = rng.randint(2, 30)
    values = [10 ** rng.uniform(-3, 3) for _ in range(m)]
    return PiecewiseProfile(ProfileKind.CONDUCTIVITY, 1.0, _breaks(rng, m), tuple(values))


def _run_values(rng, draw):
    values = []
    for _ in range(rng.randint(1, 4)):
        values += [draw()] * rng.randint(1, 6)
    return values


def _runs(rng, K):
    if rng.random() < 0.3:
        values = _run_values(rng, lambda: 10 ** rng.uniform(-2, 2))
        return PiecewiseProfile(ProfileKind.CONDUCTIVITY, 1.0, _breaks(rng, len(values)),
                                tuple(values))
    values = _run_values(rng, lambda: 0.0 if rng.random() < 0.3 else _signed(rng, -1, 3))
    if rng.random() < 0.5:
        return PiecewiseProfile(ProfileKind.POTENTIAL, 1.0, _breaks(rng, len(values)),
                                tuple(values))
    # a negative core of 1-3 pieces on (0, b] before a zero run
    n_core = rng.randint(1, 3)
    if rng.random() < 0.5:
        # x = sqrt(|c|) b up to 1.5 kmax
        b = rng.uniform(0.05, 0.5)
        core = -(rng.uniform(0.2, 1.5) * K / b) ** 2
        outer = [0.0] * rng.randint(1, 6) + values
    else:
        # x = 1 + 2^-u times the first zero of j_{k-1}: degree k leaves the core
        # within about 2^-u of r^-(k+1), so rho ~ 2^u where the zero run starts.
        # With (b/R)^{2k+1} <= 2^-2u, r^k overtakes r^-(k+1) before R, so that
        # lambda_k does not hang on the bits of A that the state loses under B (a
        # positive run after the zero run only speeds that up)
        k, b = rng.randint(10, K), 2 ** -rng.uniform(2, 40)
        u = rng.uniform(20, min(100, (2 * k + 1) * -math.log2(b) / 2))
        with mp.workprec(400):
            core = -(mpmath.besseljzero(k - mpf(1) / 2, 1) * (1 + mpf(2) ** -u) / b) ** 2
        outer = [0.0] * rng.randint(1, 6) + [10 ** rng.uniform(-1, 3)] * rng.randint(0, 3)
    cuts = (sorted(rng.uniform(0.01, 0.99) * b for _ in range(n_core - 1))
            + [b] + sorted(rng.uniform(b, 1.0) for _ in range(len(outer) - 1)))
    return PiecewiseProfile(ProfileKind.POTENTIAL, 1.0, (0.0, *cuts, 1.0),
                            tuple([core] * n_core + outer))


def _edge(rng, K):
    b = mpf(2) ** -rng.randint(1100, 1300)
    with mp.workprec(64):  # c as both the engine and the oracle read it
        core = -(rng.uniform(1.0, K) / b) ** 2
    zeros = rng.randint(1, 3)
    cuts = sorted(rng.uniform(0.05, 0.95) for _ in range(zeros))
    return PiecewiseProfile(ProfileKind.POTENTIAL, 1.0, (0.0, b, *cuts, 1.0),
                            (core, *[0.0] * zeros, 10 ** rng.uniform(-1, 3)))


FAMILIES = {"mixed": _mixed, "turning": _turning, "collision": _collision, "deep": _deep,
            "contrast": _contrast, "runs": _runs, "edge": _edge}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=2022)
    ap.add_argument("--count", type=int, default=40)
    args = ap.parse_args(argv)
    rng = random.Random(args.seed)
    worst = {name: 0.0 for name in FAMILIES}
    spent = {name: 0.0 for name in FAMILIES}
    for i in range(args.count):
        for name, make in FAMILIES.items():
            K, prec = rng.choice((20, 40, 80)), rng.choice((96, 256))
            profile = make(rng, K)
            t = time.perf_counter()
            ours = spectrum_of(profile, K, prec).lambdas
            ref = oracle_spectrum(profile, K, prec)
            spent[name] += time.perf_counter() - t
            err = max(float(ulps(a, b, prec)) for a, b in zip(ours, ref))
            worst[name] = max(worst[name], err)
            if err > 1:
                print(f"FAIL round {i} {name} K={K} prec={prec}: {err:.3g} ulp\n{profile}")
                return 1
    for name in FAMILIES:
        print(f"{name:10s} worst {worst[name]:.3f} ulp in {spent[name]:.1f} s")
    print(f"{args.count * len(FAMILIES)} profiles within 1 ulp of the oracle")
    return 0


if __name__ == "__main__":
    sys.exit(main())
