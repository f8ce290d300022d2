"""Half-form bundle classification: twist parity tests, minimal grading
eigenvalue r0, and the fundamental-group component order."""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd

from . import ladder
from .catalog import TWIST_F0, TWIST_PLAIN
from .jordan import JordanCase

Q = Fraction


# twist: TWIST_PLAIN or TWIST_F0; zeta0_exponents: per-block exponents
# alpha*w_n - u_n; a and b: None where the construction fails (not valid)
BundleModel = namedtuple("BundleModel", "case_id twist alpha zeta0_exponents r0 a b valid")


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
                a, b = ladder.extract_ab(case, r0)
                valid = True
            except ladder.ExtractionFailure:
                a = b = None
                valid = False
            out.append(BundleModel(case.id, twist, alpha, exps, r0, a, b, valid))
    return out
