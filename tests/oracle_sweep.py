"""A seeded random sweep of the forward engine against the independent mpf oracle.

Run as ``PYTHONPATH=src python tests/oracle_sweep.py [--seed S] [--count N]``.
Each of the N rounds solves five profiles, one of each family below, and
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
* ``contrast``: conductivities of 2-30 pieces with values in 10^+-3.
"""

import argparse
import math
import random
import sys
import time
from pathlib import Path

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


FAMILIES = {"mixed": _mixed, "turning": _turning, "collision": _collision, "deep": _deep,
            "contrast": _contrast}


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
