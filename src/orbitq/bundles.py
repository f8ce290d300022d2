"""Half-form bundle construction: twist parity tests, minimal grading
eigenvalue r0, (a, b) extraction from the vacuum multiplier profile, and
the fundamental-group component order.

The computed route imports only the case registry (`jordan`): `catalog`,
the closed-form oracle it is checked against, imports the twist names
from here.
"""

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm

from .jordan import JordanCase, derived_vectors

TWIST_PLAIN = "L0"
TWIST_F0 = "f0L0"

Q = Fraction


# twist: TWIST_PLAIN or TWIST_F0; zeta0_exponents: per-block exponents
# alpha*w_n - u_n; a and b: None where the construction fails (not valid)
BundleModel = namedtuple("BundleModel", "case_id twist alpha zeta0_exponents r0 a b valid")


class ExtractionFailure(Exception):
    """The vacuum multiplier multiset lacks a required element.

    This is the bracket-validity failure signal: the lowering relation
    cannot close on the vacuum when it fires.
    """

    def __init__(self, missing, multiset):
        super().__init__(f"missing {missing} (need it in {sorted(multiset)})")
        self.missing = missing
        self.multiset = multiset


def profile_over_common_denominator(case: JordanCase, mu, r):
    """(d, cs, rr): the multiplier profile at multidegree mu is cs/d and r
    is rr/d, over their common denominator d = lcm(2 v_i, denominator of r).

    The profile entries (mu_i + delta_i - 2j) / (2 v_i), j = 0..v_i - 1,
    of slot i are, with k = d / (2 v_i), the progression from
    (mu_i + delta_i) k down in steps of 2k.
    """
    v, delta = derived_vectors(case)
    rd = r.denominator
    d = lcm(rd, *(2 * vi for vi in v))
    cs = []
    for vi, m, dl in zip(v, mu, delta, strict=True):
        k = d // (2 * vi)
        cs.extend(range((m + dl) * k, (m + dl - 2 * vi) * k, -2 * k))
    return d, cs, r.numerator * (d // rd)


def extract_ab(case: JordanCase, r0):
    """Recover (a, b), sorted ascending, from the vacuum profile.

    The vacuum multiplier multiset must contain 0 and r0 - 1 (two zeros
    when r0 = 1); the two leftover values c <= c' give (r0 - c', r0 - c).
    r0 is an `int` or a `Fraction`; a and b come back as `Fraction`s.
    Raises ExtractionFailure otherwise.
    """
    d, cs, rr = profile_over_common_denominator(case, (0,) * case.q_total, r0)
    for needed in (0, rr - d):
        if needed in cs:
            cs.remove(needed)
        else:
            raise ExtractionFailure(Q(needed, d), [Q(c, d) for c in cs])
    c1, c2 = sorted(cs)
    return (Q(rr - c2, d), Q(rr - c1, d))


def alpha_of(case: JordanCase):
    """Smallest alpha >= 1 with alpha*w_n >= u_n for all blocks,
    where u_n = 2 + d_n*(q_n - 1)."""
    u = tuple(2 + b.d * (b.q - 1) for b in case.blocks)
    alpha = max(-(-un // b.w) for un, b in zip(u, case.blocks))
    return max(alpha, 1), u


def pi1_component_order(case: JordanCase) -> int:
    return gcd(*(b.w for b in case.blocks))


def classify_bundles(case: JordanCase) -> list:
    """0, 1, or 2 bundles.  The plain twist exists iff all exponents
    alpha*w_n - u_n are even; the shifted twist iff all (alpha+1)*w_n - u_n
    are even.  The two parity vectors differ by w, so at most one twist
    survives per parity class of w -- both can only appear when every w_n
    is even."""
    alpha, u = alpha_of(case)
    out = []
    for twist, aa in ((TWIST_PLAIN, alpha), (TWIST_F0, alpha + 1)):
        exps = tuple(aa * b.w - un for b, un in zip(case.blocks, u))
        if all(e % 2 == 0 for e in exps):
            r0 = Q(aa, 2)
            try:
                a, b = extract_ab(case, r0)
                valid = True
            except ExtractionFailure:
                a = b = None
                valid = False
            out.append(BundleModel(case.id, twist, alpha, exps, r0, a, b, valid))
    return out
