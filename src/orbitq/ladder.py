"""Spectral engine for the ladder: multidegrees, eigenvalues and one
rung's norm (`orbit norms` reads every rung's off the kernel's product,
`hyperg.kernel_coefficients`).  The multiplier profile and the (a, b)
extraction from its vacuum are the bundle construction's, in `bundles`;
no `orbit` command imports this module.

Everything here is a pure function of the case's block data (q, d, w)
and m; no Lie-theoretic structure is instantiated.  The exact arguments
(r, r0, a, b) are each an `int` or a `Fraction`, read through their
numerator and denominator; a `Fraction` is built only for a value the
caller gets back.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import starmap
from math import factorial, prod
from operator import itemgetter

from .bundles import profile_over_common_denominator
from .hyperg import rung_ratios
from .jordan import JordanCase

Q = Fraction


# p: half-integer exponent of the distinguished section; t: exponents of
# the degree filtration generators
LadderPoint = namedtuple("LadderPoint", "p t")


def multidegree(case: JordanCase, t) -> tuple:
    """Exponent-weighted degree vector; entry i gets a 2 for every
    generator whose support reaches slot i of its block."""
    q = case.q_total
    if len(t) != q:
        raise ValueError(f"t must have length {q}")
    if any(ti < 0 for ti in t):
        raise ValueError("t must be componentwise >= 0")
    mu = [0] * q
    c = 0
    for b in case.blocks:
        for j in range(1, b.q + 1):
            tij = t[c + j - 1]
            for slot in range(c, c + j):
                mu[slot] += 2 * tij
        c += b.q
    return tuple(mu)


def level_data(case: JordanCase, pt: LadderPoint):
    """(r, z, X): grading eigenvalue, filtration degree, vector-field
    eigenvalue at the given ladder point."""
    z = sum(t * (idx_degree) for t, idx_degree in zip(pt.t, _degrees(case)))
    r = Q(pt.p) + z + Q(case.m + 1, 2)
    x = 2 * Q(pt.p) + z + Q(case.m + 2, 2)
    return r, z, x


def _degrees(case: JordanCase) -> list:
    degs = []
    for b in case.blocks:
        degs.extend(range(1, b.q + 1))
    return degs


def R_eigenvalue(case: JordanCase, mu, r):
    """(R_raw or None, R_simplified).

    R_raw is the four-term product formula, undefined at r in {0, 1, -1};
    R_simplified = 2r - 2 - sum of the multiplier profile.  r is an `int`
    or a `Fraction`; each value returned is a `Fraction`.

    Both are evaluated as one integer fraction each: the profile entries
    and r are put over their common denominator D = lcm(2 v_i, denominator
    of r), so r in {0, 1, -1} is rr in {0, D, -D}.
    """
    d, cs, rr = profile_over_common_denominator(case, mu, r)
    simplified = Q(2 * rr - 2 * d - sum(cs), d)
    if rr in (0, d, -d):
        return None, simplified
    # with c = C/D and r = rr/D, num carries D^-(m + 1) (m entries a product,
    # times r + 1 or r - 1) and den D^-3, so R is num D^2 / (den D^m)
    p_c = p_c1 = p_rc1 = p_rc = 1
    for c in cs:
        p_c *= c
        p_c1 *= c + d
        p_rc1 *= rr - d - c
        p_rc *= rr - c
    num = (p_c - p_rc1) * (rr + d) + (p_rc - p_c1) * (rr - d)
    den = rr * (rr - d) * (rr + d)
    return Q(num * d * d, den * d ** len(cs)), simplified


def j_identity_check(a0, a1, a2, a3, b) -> bool:
    """Formal four-variable identity behind the simplification of R."""
    b = Q(b)
    if b in (0, -1) or b + 1 in (0, -1):
        raise ValueError("singular b")
    a = [Q(a0), Q(a1), Q(a2), Q(a3)]

    def j(vals, bb):
        out = Q(1)
        for v in vals:
            out *= v
        return out / (bb * (bb + 1))

    lhs = (j(a, b) - j([b - x for x in a], b)
           - j([x + 1 for x in a], b + 1) + j([b - x + 1 for x in a], b + 1))
    return lhs == 2 * b - sum(a)


def ladder_norms(case: JordanCase, r0, a, b, n: int):
    """(gammas, norm): the lowering scalars at rungs 1..n and the squared
    norm of the n-th normalized rung section."""
    ratios = rung_ratios(r0, a, b, n)
    num = prod(map(itemgetter(0), ratios))
    den = prod(map(itemgetter(1), ratios)) * factorial(n) ** 2
    return list(starmap(Q, ratios)), Q(num, den)
