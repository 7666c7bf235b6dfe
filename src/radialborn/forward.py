"""Dirichlet-to-Neumann spectra of radial piecewise-constant coefficients.

One engine solves both kinds.  For degree k the radial equation on a
piece (a, b] is (r^2 gamma_j u')' = k(k+1) gamma_j u for a conductivity and
(r^2 u')' = (c r^2 + k(k+1)) u for a potential, and u and r gamma u'
(gamma = 1 for a potential) are continuous across interfaces.  Per degree the
state is a projective pair of Python ints (U, V) proportional to
(u, r gamma u').  A piece carries it by v_b = Phi_b adj(Phi_a) v_a, where the
columns of Phi_r are the two fundamental solutions as (u, r gamma u') at r.
A degree enters at its first piece (the innermost, unless the cut below skips
it) as that piece's regular solution alone.

A run of equal neighbouring values (gamma, or c as the Bessel pieces read it)
is one piece here, from the run's first inner radius to its last outer one; the
profile itself is not changed.  Phi_r of a run is the same on all its pieces,
so the product of their maps telescopes to the run's one map: in exact
arithmetic the run is crossed as it would be piece by piece.  A degree that
would enter inside the run enters it as the regular solution of the same
value, (1, gamma k) or (R_k, R_{k+1}), which is what it would reach at the
run's outer radius.  F below still counts the given pieces.  So a background
shell of any number of pieces costs one step per degree.

A flat piece is every conductivity piece, and a potential piece with c = 0
taken as gamma_j = 1.  Its solutions r^k and r^{-(k+1)}, scaled, give
Phi_a = [[1, 1], [g k, -g(k+1)]] and Phi_b = [[1, t], [g k, -g(k+1) t]] with
g = gamma_j and t = (a/b)^{2k+1}, so with B = g k U - V and A = g(k+1) U + V

    U <- A + t B,    V <- g (k A - (k+1) t B).

gamma_j = G / 2^gn enters exactly and t in Fp-bit fixed point, whose floors
put t^{2k+1} below its value by fewer than 4(k+1) units of 2^-Fp.  B / A is
rho at a (rho as in the cut below), so that error in t B stays below
4(k+1) 2^-Fp |A| where |rho| < 1: at every conductivity degree, and at a
potential degree k >= x = sqrt(|c|) b of every negative piece inside (the
cut's guard).  There Fp = F = prec + GUARD_BITS + bit_length(max(m, K+1)).
Past a negative piece's turning point rho can be 2^100 or more; if the guard
leaves the lowest lo > 0 degrees below it, Fp = F + (2 lo - 1) L +
bit_length(lo) + 2, with L = bit_length(b_m) + b_e - bit_length(a_m) - a_e + 1
>= log2(b/a) for a = a_m 2^a_e, b = b_m 2^b_e, so t^{2k+1} > 2^-(2 lo - 1) L
keeps F bits relative to itself for k < lo.  The state is cut back to F bits
after the piece.  B = 0 means u is the pure r^k solution, which crosses
unchanged: the pair is reset exactly to (1, gamma_j k), the state in which a
degree enters a flat piece, so lambda_0 = 0 and a flat gamma gives
lambda_k = gamma k/R correctly rounded.

A Bessel piece is a potential piece with c != 0: with x = sqrt(|c|) r its
solutions are i_k, kk_k (c > 0) or j_k, y_k (c < 0) of x.  Its c and radii are
read once at prec + GUARD_BITS bits, which bounds the size of x^2 (a flat piece
reads its radii exactly: they enter only its ratio a/b).  The ladders run on
the exact square x^2 = |c| r^2 and return both families in one coordinate,
r_k and h_k, exact int pairs (N, E) on one unknown factor S per argument that
both ladders share (see highprec).  In it (u, r u' - k u) at x is
+-x^-k (r_k, r_{k+1}) / S for the regular solution, with a sign that depends
on k alone, and x^-k (h_k, -h_{k+1}) / S for the singular one.  So
Phi_b adj(Phi_a) is M_b adj(M_a) times one number per degree, with
M = [[r_k, h_k], [r_{k+1}, -h_{k+1}]], and the piece works on
(U, Q) = (u, r u' - k u): adj(M) at a gives the coefficients

    A = -(h_{k+1} U + h_k Q),    B = r_k Q - r_{k+1} U

exactly, and M at b, with R_k and H_k the ladder values there,

    u = R_k A + H_k B,     Q = R_{k+1} A - H_{k+1} B.

Each ladder is read as pairs (N_k, N_{k+1}) on their lower exponent, so A, B,
u and Q each come out on one exponent, u and Q after one shift of A against B.
A degree enters as (U, Q) = (R_k, R_{k+1}).  Before the products at b, A and B
are cut so that u and Q each move by less than 2^-(F + 17) of their larger
term, below what the ladders carry; a term wholly below its cut is dropped.
The state enters as Q = V - k U and leaves as V = k u + Q.  The ladders of a
piece serve all its degrees at once.

After each piece one shift brings U back to F bits (V when U = 0), the only
rounding inside the loop besides the Bessel cuts; unlike max(|U|, |V|), this
keeps F bits of U however large a conductivity contrast makes V / U.  lambda
is homogeneous of degree one in gamma, so a conductivity is solved for
gamma / 2^se, whose outermost value lies in [1, 2), and V keeps its F bits
however far gamma lies below 1.  lambda_k = 2^se V / (U R) is rounded to prec
once, at the end: with R = rm 2^re, one integer division of |V| 2^s by
|U| rm gives prec + 2 or more bits and its remainder the sticky bit, so the
result is the correctly rounded quotient, the mpf that mpf_div returns.  Only a
potential with a negative piece can put a Dirichlet
eigenvalue at 0, where u(R) vanishes (for q >= 0, -Delta + q is positive
definite); its spectrum raises DirichletCollisionError when
|R u| < 2^(-prec/2) |u + R u'|.

Each degree skips the depth it cannot see.  Piece j gets a limit k_j, the
highest degree that the pieces inside its outer radius b_j can move at F bits
(-1 if none); the limits never fall outward, and the outermost is kmax.  Degree
k enters the first piece j with k_j >= k, which in effect gives the coefficient
inside its inner radius b its value on piece j.  So piece j carries degrees
0..k_{j-1}; its regular ladder at b_j runs to k_j + 1 and its other three to
k_{j-1} + 1; and a spectrum costs sum_j (k_{j-1} + 1) degree steps, each a few
integer products, in place of m (K + 1).  A degree is cut only where this bound
proves that the cut moves lambda_k by less than 2^-(F + 8): relative to
lambda_k for a conductivity, and relative to k + 1 + R lambda_k for a potential,
the scale at which the transfer itself carries V / U = R lambda_k.

With y = r u'/u, let rho = (k - y) / (k + 1 + y); on a flat piece
u = alpha r^k + beta r^-(k+1) has rho = beta r^-(2k+1) / alpha.

* Conductivity.  Inside a piece rho shrinks outward by exactly (a/b)^{2k+1}.
  r^2 gamma u' grows from 0 while u > 0, so y >= 0 and rho lies in
  (-1, k/(k+1)]; the cut starts at rho = 0, so the two rho differ by less
  than 1 at b.  An interface maps y to g y, g = gamma_in / gamma_out, and rho by a map
  of slope g ((y + k + 1) / (g y + k + 1))^2, between g and 1/g for y >= 0.  So
  at R they differ by less than (b/R)^{2k+1} P,
  P = exp(sum_i |ln(gamma_{i+1} / gamma_i)|).  Inside a piece y moves towards
  k, so k P_- <= y <= k P_+, with P_- and P_+ the products of min(1, g) and
  max(1, g) over the interfaces, and P_+ / P_- = P.  As
  y = (2k + 1) / (1 + rho) - k - 1, lambda_k = gamma y / R then moves by a
  relative amount below 3 P^2 (b/R)^{2k+1}.  At k = 0, u = 1 and the cut is
  exact.
* Potential.  rho obeys r rho' = -(2k+1) rho - c r^2 (1 + rho)^2 / (2k+1), so two
  solutions differ by delta with
  r delta' = -delta ((2k+1) + c r^2 (2 + rho_1 + rho_2) / (2k+1)).  rho cannot
  fall to -1 (there r rho' = 2k+1) and cannot rise to 1 (y = -1/2) while
  |c| r^2 < (k + 1/2)^2 on every negative piece.  The guard asks
  x = sqrt(|c|) b <= k of every negative piece, inner ones included, half a
  unit inside that barrier, which covers the float rounding of x.  Under it
  rho stays in (-1, 1) for the solution and for the cut one, which is the
  regular solution of the profile with piece j's value inside b; so
  |delta| < 2 at b and |delta| < 2 (b/R)^{2k+1} e^{2S/(2k+1)} at R, with
  S = sum of |c| (b^2 - a^2) over the negative pieces.  By comparison with the
  constant c+ = max(0, max c), y <= k + x+ with x+ = sqrt(c+) R (i_{k+1} < i_k),
  so k + 1 + R lambda_k moves by a relative amount below
  2 (b/R)^{2k+1} e^{2S/(2k+1)} (1 + x+ / (2k+1)).  A degree the guard does not
  cover is never cut: past its turning point an outer negative piece makes u
  grow faster than r^k, and an inner one can leave y anywhere at b, even on the
  singular solution of the piece outside it.  x, S and x+ are read from the
  exact |c| b^2, |c| a^2 and c+ R^2 by float roots, which are never NaN.
"""

import math
import numbers
from dataclasses import dataclass

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import (
    finf,
    fninf,
    fone,
    from_int,
    fzero,
    mpf_add,
    mpf_div,
    mpf_eq,
    mpf_mul,
    mpf_mul_int,
    mpf_pow_int,
    mpf_sub,
    round_nearest,
)

from .highprec import (
    GUARD_BITS,
    check_precision,
    finite_dyadic,
    float_root,
    mod_sph_i_ladder,
    mod_sph_k_ladder,
    round_half_even,
    sph_j_ladder,
    sph_y_ladder,
    to_prec,
)
from .profiles import PiecewiseProfile, ProfileKind

ODE_STEP = 1e-4  # the largest Taylor step of ode_log_derivative_oracle


class DirichletCollisionError(ArithmeticError):
    """R u(R) underflowed relative to u(R) + R u'(R): 0 is a Dirichlet eigenvalue of -Delta + q."""

    def __init__(self, k):
        self.k = k
        super().__init__(f"Dirichlet-eigenvalue collision at degree k = {k}")


class TransferDenominatorError(ArithmeticError):
    """The radius-map denominator a lambda_k + k + 1 - (a/R)^{2k+1} a s_k vanished."""

    def __init__(self, k):
        self.k = k
        super().__init__(f"radius-transfer denominator vanished at degree k = {k}")


@dataclass(frozen=True)
class DtnSpectrum:
    """DtN eigenvalues lambda_0..lambda_K with kind, radius and precision.

    The radius is the exact value the lambdas belong to: the profile's own, or
    the mpf that ``transfer_radius`` moved them to.
    """

    kind: ProfileKind
    radius: "float | mpf"
    lambdas: tuple
    prec: int

    def __post_init__(self):
        object.__setattr__(self, "lambdas", tuple(self.lambdas))

    @property
    def kmax(self):
        return len(self.lambdas) - 1


def _to_bits(U, V, bits):
    # one shift brings U to `bits` bits (V when U = 0)
    s = (U or V).bit_length() - bits
    return (U >> s, V >> s) if s >= 0 else (U << -s, V << -s)


def _paired(ladder):
    # [(N_k, N_{k+1}, e)]: neighbouring ladder values N 2^E on their lower exponent e
    return [(n0, n1 << e1 - e0, e0) if e0 <= e1 else (n0 << e0 - e1, n1, e1)
            for (n0, e0), (n1, e1) in zip(ladder, ladder[1:])]


def _fixed_ratio(a, b, bits):
    # floor(a / b * 2**bits) for dyadics a = (man, exp), b = (man, exp)
    (am, ae), (bm, be) = a, b
    s = ae - be + bits
    return (am << s) // bm if s >= 0 else am // (bm << -s)


def _flat_width(F, x_in, n, a, b):
    """Fp, the width of t in fixed point on a flat piece (a, b] that degrees 0..n-1
    cross, for the dyadics a and b and the guard x_in of the negative pieces inside:
    F where no degree lies below the guard, else F + (2 lo - 1) L + bit_length(lo) + 2
    for the lo lowest degrees, which lie below it, with L >= log2(b/a)."""
    lo = n if x_in >= n else math.ceil(x_in)  # x_in may be inf
    if not lo:
        return F
    (am, ae), (bm, be) = a, b
    L = bm.bit_length() + be - am.bit_length() - ae + 1
    return F + (2 * lo - 1) * L + lo.bit_length() + 2


def _bessel_runs(cs, radii):
    """(c, xa2, xb2, x) of each run (radii[j], radii[j+1]] of a potential, None where
    c = cs[j] is 0: x^2 = |c| r^2 exactly at both ends as (X, e), float x = sqrt(|c|) b."""
    out = []
    for c, (_, am, ae, _), (_, bm, be, _) in zip(cs, radii, radii[1:]):
        _, cm, ce, _ = c
        xb2 = (cm * bm * bm, ce + 2 * be)
        out.append((c, (cm * am * am, ce + 2 * ae), xb2, float_root(xb2)) if cm else None)
    return out


def _degree_limits(kmax, F, dy, flat, bessel):
    """[k_0, ..., k_{m-1}] of the pieces between the breakpoints dy, with gamma_j = flat[j]
    or, for a potential, the _bessel_runs readings bessel of the same pieces (None for a
    conductivity): k_j is the highest degree that the pieces inside b_j can move at F
    bits, -1 if none, and kmax on the outermost piece.

    Degree k is cut below b_j when the bound of the module docstring,
    (b_j / R)^{2k+1} 2^{D_k}, lies below 2^-(F + 8).  The bound is read in floats,
    with one bit in hand for their rounding, and falls as k grows and as b_j
    shrinks, so the limits never fall outward.
    """
    rm, re = dy[-1]
    if bessel is not None:
        neg = [b for b in bessel if b and b[0][0]]
        # the guard: x = sqrt(|c|) b <= k on every negative piece
        x_neg = max((x for *_, x in neg), default=0.0)
        # 2 S log2(e), S = sum of |c| (b^2 - a^2) over the negative pieces
        xa = [float_root(xa2) for _, xa2, _, _ in neg]
        s_bits = 2 * sum(x * x - y * y for (*_, x), y in zip(neg, xa)) / math.log(2)
        x_pos = max((float_root((cm * rm * rm, ce + 2 * re))
                     for (s, cm, ce, _), *_ in filter(None, bessel) if not s), default=0.0)

        def excess(k):
            n = 2 * k + 1
            return 1 + s_bits / n + math.log2(1 + x_pos / n) if k >= x_neg else math.inf
    else:
        logs = [math.log2(gm) + ge for gm, ge in flat]
        # log2(3 P^2), P = exp(sum |ln(gamma_{i+1} / gamma_i)|)
        bits = math.log2(3) + 2 * sum(abs(u - v) for u, v in zip(logs, logs[1:]))

        def excess(k):
            return bits
    limits, k = [], 0  # k: the least degree the pieces inside b_j cannot move
    for bm, be in dy[1:-1]:
        depth = math.log2(rm) + re - math.log2(bm) - be  # log2(R / b_j)
        while k <= kmax and (2 * k + 1) * depth <= F + 9 + excess(k):
            k += 1
        limits.append(k - 1)
    return limits + [kmax]


def _quotient(n, e, d, prec):
    """n 2^e / d rounded to nearest at prec bits, as a raw mpf: the value that
    mpf_div(from_man_exp(n, e), from_int(d), prec, round_nearest) returns; d != 0.

    One division of the magnitudes gives prec + 2 or prec + 3 bits, and its
    remainder the sticky bit, ORed into the last of them, which lies below the
    half bit, so one rounding gives the correctly rounded quotient.
    """
    if d < 0:
        n, d = -n, -d
    m = -n if n < 0 else n
    s = prec + 2 + d.bit_length() - m.bit_length()  # m 2^s / d lies in (2^(prec+1), 2^(prec+3))
    q, r = divmod(m << s, d) if s >= 0 else divmod(m, d << -s)
    q |= r > 0
    return round_half_even(-q if n < 0 else q, e - s, prec)


def _spectrum(p, kmax, prec):
    """lambda_0..lambda_kmax of either kind by the one transfer described above."""
    if not isinstance(p, PiecewiseProfile):
        raise TypeError("the forward engine needs a PiecewiseProfile; use project_midpoint")
    if not isinstance(kmax, numbers.Integral) or kmax < 0:
        raise ValueError(f"need an integer term count kmax >= 0, got {kmax!r}")
    kmax, prec = int(kmax), check_precision(prec)
    potential = p.kind is ProfileKind.POTENTIAL
    F = prec + GUARD_BITS + max(p.piece_count, kmax + 1).bit_length()
    # breakpoints and the gamma_j of flat pieces (1 for a potential) as exact
    # dyadics: floats and mpfs as they are, other numbers at F >= 53 bits
    with mp.workprec(F):
        dy = [finite_dyadic(x, "breakpoint") for x in p.breakpoints]
        flat = [finite_dyadic(1 if potential else v, "value") for v in p.values]
    # a run of equal neighbouring values is one piece: piece j is
    # (bp[runs[j]], bp[runs[j+1]]] with the value of p.values[runs[j]].  A potential
    # compares c as its Bessel pieces read it, at prec + GUARD_BITS bits.
    with mp.workprec(prec + GUARD_BITS):
        keys = [mpf(v)._mpf_ for v in p.values] if potential else flat
        runs = [0] + [i for i in range(1, len(keys)) if keys[i] != keys[i - 1]] + [len(keys)]
        dy, flat = [dy[i] for i in runs], [flat[i] for i in runs[:-1]]
        bessel = _bessel_runs([keys[i] for i in runs[:-1]],
                              [mpf(p.breakpoints[i])._mpf_ for i in runs]) if potential else None
        # lambda is homogeneous of degree one in gamma: solve for gamma / 2^se, whose
        # outermost value lies in [1, 2), so that V keeps its F bits at the boundary
        gm, ge = flat[-1]
        se = ge + gm.bit_length() - 1
        limits = _degree_limits(kmax, F, dy, flat, bessel)
        # (U, V) of degrees 0..k_{j-1}, which cross piece j; degrees k_{j-1} + 1..k_j
        # enter it as its regular solution.  x_in: the largest guard x = sqrt(|c|) b of
        # the negative pieces crossed so far, the guard of the flat pieces
        state, x_in = [], 0.0
        for j, top in enumerate(limits):
            n = len(state)
            if top < 0:
                continue
            if bessel and bessel[j]:
                (neg, *_), xa2, xb2, x = bessel[j]
                reg, sing = ((sph_j_ladder, sph_y_ladder) if neg
                             else (mod_sph_i_ladder, mod_sph_k_ladder))
                if neg:
                    x_in = max(x_in, x)
                rb = reg(top, xb2)
                pb = _paired(rb)
                ladders = ()  # no degree crosses a piece that all enter
                if n:
                    ra = reg(n - 1, xa2)
                    ha, hb = sing(n - 1, xa2, ra), sing(n - 1, xb2, rb)
                    # the top-bit gaps H_m / R_m at b
                    gaps = [Hm.bit_length() + He - Rm.bit_length() - Re
                            for (Rm, Re), (Hm, He) in zip(rb, hb)]
                    ladders = zip(_paired(ra), _paired(ha), pb, _paired(hb), gaps, gaps[1:])
                for k, ((r0, r1, er), (h0, h1, eh), (R0, R1, eR), (H0, H1, eH),
                        ru, rq) in enumerate(ladders):
                    U, V = state[k]
                    Q = V - k * U
                    # adj(M_a) (U, Q) exactly, A on 2^eA and B on 2^eB
                    A, eA, B, eB = -(h1 * U + h0 * Q), eh, r0 * Q - r1 * U, er
                    # the cut: with ta, tb the top bits of A and B, and ru, rq those of
                    # H_k / R_k and H_{k+1} / R_{k+1}, A keeps its bits above
                    # max(ta, tb + min(ru, rq)) - F - 21 and B its bits above
                    # max(tb, ta - max(ru, rq)) - F - 21.  Each output is judged on its own
                    # terms: a tiny B times a huge kk_k or y_k can be the larger term of u,
                    # and a cut relative to the larger of A and B loses it.  The ladder
                    # values carry about F + 16 bits, so the cut costs none they hold.  A
                    # dropped term takes with it a shift by up to 1.4e8 bits (c = 1e16 on
                    # (0.5, 1], where i_k and kk_k grow apart by e^(2 s (b - a))).
                    ta, tb = A.bit_length() + eA, B.bit_length() + eB
                    if ru > rq:  # min and max without the calls
                        ru, rq = rq, ru
                    ca = (ta if ta > tb + ru else tb + ru) - F - 21 - eA
                    cb = (tb if tb > ta - rq else ta - rq) - F - 21 - eB
                    if ca >= A.bit_length():
                        A = 0
                    elif ca > 0:
                        A, eA = A >> ca, eA + ca
                    if cb >= B.bit_length():
                        B = 0
                    elif cb > 0:
                        B, eB = B >> cb, eB + cb
                    # u and Q on one exponent: R A on 2^(eR + eA), H B on 2^(eH + eB)
                    if not B:
                        U, Q = R0 * A, R1 * A
                    elif not A:
                        U, Q = H0 * B, -H1 * B
                    else:
                        d = eR + eA - eH - eB
                        if d >= 0:
                            A <<= d
                        else:
                            B <<= -d
                        U, Q = R0 * A + H0 * B, R1 * A - H1 * B
                    V = k * U + Q
                    # _to_bits inlined, as in the flat loop
                    d = (U or V).bit_length() - F
                    state[k] = (U >> d, V >> d) if d >= 0 else (U << -d, V << -d)
                # an entering degree is (U, Q) = (R_k, R_{k+1})
                state += [_to_bits(U, k * U + Q, F) for k, (U, Q, _) in enumerate(pb[n:], n)]
                continue
            # flat piece: gamma_j / 2^se = G / 2^gn, and 1 for a potential
            gm, ge = flat[j]
            ge -= se
            G, gn = gm << max(ge, 0), max(-ge, 0)
            Fp = _flat_width(F, x_in, n, dy[j], dy[j + 1])
            t = _fixed_ratio(dy[j], dy[j + 1], Fp)
            t2 = t * t >> Fp
            tk = t  # (a/b)^{2k+1}
            for k in range(n):
                U, V = state[k]
                u, v = U * G, V << gn  # B and A below carry 2^gn
                ku = k * u
                B = ku - v
                if B:
                    A = ku + u + v
                    x = tk * B
                    U, V = (A << Fp) + x << gn, ((k * A << Fp) - (k + 1) * x) * G
                    # _to_bits inlined: a call costs about 3 % of this loop
                    s = (U or V).bit_length() - F
                    state[k] = (U >> s, V >> s) if s >= 0 else (U << -s, V << -s)
                else:
                    # the pure r^k solution crosses unchanged
                    state[k] = (1 << gn, k * G)
                tk = tk * t2 >> Fp
            # an entering degree is the pure r^k solution
            state += [(1 << gn, k * G) for k in range(n, top + 1)]

    # (U, V) is proportional to (u, R gamma u'), R = rm 2^re
    rm, re = dy[-1]
    # -Delta + q is positive definite for q >= 0: only a negative piece can collide
    if bessel and any(b and b[0][0] for b in bessel):
        # a collision is |R u| < 2^(-prec//2) |u + R u'|, that is |U| rm 2^z < |U + V|
        z = re - (-prec // 2)
        for k, (U, V) in enumerate(state):
            if abs(U) * rm << max(z, 0) < abs(U + V) << max(-z, 0):
                raise DirichletCollisionError(k)
    lambdas = [mp.make_mpf(_quotient(V, se - re, U * rm, prec)) for U, V in state]
    return DtnSpectrum(p.kind, p.radius, lambdas, prec)


def potential_spectrum(q, kmax, prec):
    """DtN eigenvalues of -Delta + q on the ball of radius q.radius, k = 0..kmax."""
    if q.kind is not ProfileKind.POTENTIAL:
        raise ValueError("potential_spectrum requires a potential profile")
    return _spectrum(q, kmax, prec)


def conductivity_spectrum(g, kmax, prec):
    """DtN eigenvalues of div(gamma grad .) on the ball, k = 0..kmax."""
    if g.kind is not ProfileKind.CONDUCTIVITY:
        raise ValueError("conductivity_spectrum requires a conductivity profile")
    return _spectrum(g, kmax, prec)


def spectrum_of(profile, kmax, prec):
    if profile.kind is ProfileKind.POTENTIAL:
        return potential_spectrum(profile, kmax, prec)
    return conductivity_spectrum(profile, kmax, prec)


def raw_scaled_shifts(spec, R, prec):
    """mu_k(R) = R^{2k+2} (lambda_k^R - k/R) of the spectrum moved to radius R, k = 0..K,
    as raw mpf tuples.

    Outside the support the solution is A r^k + B r^{-(k+1)} for both kinds,
    so with a = spec.radius, m = 2k + 1 and s_k = lambda_k - k/a,

        mu_k(R) = a^{m+1} s_k m / (a lambda_k + k + 1 - (a/R)^m a s_k).

    R = a gives a^{m+1} s_k exactly and R = inf the scattering limit.  Valid
    when the coefficient is background outside the ball of radius min(a, R).
    Each operation is the libmp one that mpf arithmetic at prec + GUARD_BITS
    bits would make, rounded to nearest, in the same order; a lambda that is
    not an mpf is read as one at that precision.  A zero denominator raises
    TransferDenominatorError.
    """
    work, rnd = prec + GUARD_BITS, round_nearest
    with mp.workprec(work):
        a, R = mpf(spec.radius)._mpf_, mpf(R)._mpf_
        lambdas = [lam._mpf_ if isinstance(lam, mpf) else mpf(lam)._mpf_ for lam in spec.lambdas]
    unit, far = a == fone, R in (finf, fninf)  # skip the powers of a and of R
    out = []
    for k, lam in enumerate(lambdas):
        m, kk = 2 * k + 1, from_int(k)
        s = mpf_sub(lam, kk if unit else mpf_div(kk, a, work, rnd), work, rnd)
        if mpf_eq(R, a):
            out.append(s if unit else mpf_mul(mpf_pow_int(a, m + 1, work, rnd), s, work, rnd))
            continue
        den = mpf_add(lam if unit else mpf_mul(a, lam, work, rnd), kk, work, rnd)
        den = mpf_add(den, fone, work, rnd)
        if not far:
            w = (mpf_pow_int(R, -m, work, rnd) if unit else
                 mpf_mul(mpf_pow_int(mpf_div(a, R, work, rnd), m, work, rnd), a, work, rnd))
            den = mpf_sub(den, mpf_mul(w, s, work, rnd), work, rnd)
        if mpf_eq(den, fzero):
            raise TransferDenominatorError(k)
        if not unit:
            s = mpf_mul(mpf_pow_int(a, m + 1, work, rnd), s, work, rnd)
        out.append(mpf_div(mpf_mul_int(s, m, work, rnd), den, work, rnd))
    return out


def transfer_radius(spec, R):
    """Move a spectrum to the ball of radius R: lambda_k^R = k/R + R^{-(2k+2)} mu_k(R).

    Valid when the coefficient is background outside the ball of radius
    min(spec.radius, R), so R must not cut the support; a spectrum does not know
    it, so that is not checked (see :func:`raw_scaled_shifts`).  The result's radius
    is R as the mpf at prec + GUARD_BITS bits that the lambdas were formed at.
    """
    if not 0 < R < mpmath.inf:
        raise ValueError("target radius must be positive and finite")
    prec = spec.prec
    mu = raw_scaled_shifts(spec, R, prec)
    with mp.workprec(prec + GUARD_BITS):
        R = mpf(R)
        out = [to_prec(mpf(k) / R + R ** -(2 * k + 2) * mp.make_mpf(v), prec)
               for k, v in enumerate(mu)]
    return DtnSpectrum(spec.kind, R, out, prec)


def untransfer_radius(spec):
    """Invert :func:`transfer_radius`: recover the unit-ball spectrum from radius R."""
    return transfer_radius(spec, 1.0)


def ode_log_derivative_oracle(q, k):
    """Second-opinion value of lambda_k[q] by direct ODE integration.

    Integrates w'' = (q0(r) + k(k+1)/r^2) w outward from a truncated
    Frobenius start at r0 = 1e-3 with a fixed-step 4th-order Taylor method
    (steps of at most ``ODE_STEP``), renormalizing each step, and returns
    w'(R)/w(R) - 1/R at R = q.radius as a float.
    Independent of the Bessel transfer path; accuracy ~1e-8, double
    precision on purpose.
    """
    if not isinstance(q, PiecewiseProfile):
        raise TypeError("the ODE oracle needs a PiecewiseProfile; use project_midpoint")
    if q.kind is not ProfileKind.POTENTIAL:
        raise ValueError("the ODE oracle integrates the potential equation")
    R = float(q.radius)
    bp = [float(x) for x in q.breakpoints]
    vals = [float(v) for v in q.values]
    kk1 = k * (k + 1.0)

    # Frobenius start: w = sum a_m r^{k+1+2m}, a_m = c a_{m-1} / (2m (2k+2m+1))
    r0 = 1e-3
    c = vals[0]
    a_m, w, wp = 1.0, 1.0, (k + 1.0)
    rpow = 1.0  # r0^{2m}
    for m_idx in range(1, 60):
        a_m *= c / (2.0 * m_idx * (2.0 * k + 2.0 * m_idx + 1.0))
        rpow *= r0 * r0
        term = a_m * rpow
        w += term
        wp += term * (k + 1.0 + 2.0 * m_idx)
        if abs(term) < 1e-20 * abs(w):
            break
    # overall r0^{k+1} factor dropped: log-derivative is scale invariant
    wp *= 1.0 / r0  # d/dr of r^{k+1+2m} contributes (k+1+2m)/r0 relative to w

    r = r0
    for j, c in enumerate(vals):
        b = bp[j + 1]
        if b <= r:
            continue
        n = max(1, int(-(-(b - r) // ODE_STEP)))  # ceil
        h = (b - r) / n
        for _ in range(n):
            p = c + kk1 / (r * r)
            dp = -2.0 * kk1 / (r * r * r)
            ddp = 6.0 * kk1 / (r * r * r * r)
            w2 = p * w
            w3 = dp * w + p * wp
            w4 = ddp * w + 2.0 * dp * wp + p * w2
            w_new = w + h * (wp + h / 2.0 * (w2 + h / 3.0 * (w3 + h / 4.0 * w4)))
            wp_new = wp + h * (w2 + h / 2.0 * (w3 + h / 3.0 * w4))
            w, wp = w_new, wp_new
            norm = max(abs(w), abs(wp))
            w /= norm
            wp /= norm
            r += h
        r = b
    if w == 0.0:
        raise DirichletCollisionError(k)
    return wp / w - 1.0 / R
