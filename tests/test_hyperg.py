import math
import random
from fractions import Fraction
from fractions import Fraction as Q

import pytest

from orbitq.bundles import classify_bundles
from orbitq.hyperg import kernel_coefficients, matrix_coefficient, rung_ratios
from orbitq.jordan import JordanBlock, JordanCase, lookup_case, sweep_case_ids
from orbitq.ladder import LadderPoint, R_eigenvalue, ladder_norms, level_data, multidegree
from polyref import multiplier_profile, sweep_seed


def test_kernel_coefficients_examples():
    coeffs = kernel_coefficients(Q(5, 2), Q(3, 2), Q(2), 1)
    assert coeffs == [Q(1), Q(7, 6)]
    # rank-one orthogonal model: 1/p_n = (n!)^2/(n+1)
    coeffs = kernel_coefficients(1, 1, 1, 6)
    fact = 1
    for n in range(7):
        if n:
            fact *= n
        assert coeffs[n] == Q(n + 1, fact * fact)
    with pytest.raises(ValueError):
        kernel_coefficients(1, Q(-1), 1, 2)


def test_kernel_inverts_ladder_norms():
    for cid, r0, a, b in [("SO:4,4", Q(1), Q(1), Q(1)),
                          ("E6:6", Q(5, 2), Q(3, 2), Q(2)),
                          ("G2:2", Q(1), Q(4, 3), Q(5, 3))]:
        case = lookup_case(cid)
        coeffs = kernel_coefficients(r0, a, b, 10)
        fact = 1
        for n in range(11):
            if n:
                fact *= n
            _, norm = ladder_norms(case, r0, a, b, n)
            assert coeffs[n] * norm * fact * fact == 1


def test_kernel_ratio_recursion():
    r0, a, b = Q(7), Q(3), Q(5)
    coeffs = kernel_coefficients(r0, a, b, 12)
    for k in range(12):
        ratio = (r0 + 1 + k) / ((a + k) * (b + k) * (k + 1))
        assert coeffs[k + 1] == coeffs[k] * ratio


def test_matrix_coefficient_at_zero():
    val, bound = matrix_coefficient(Q(5, 2), Q(3, 2), Q(2), Q(0), 5)
    assert val == 1 and bound == 0


def test_matrix_coefficient_partial_sums():
    r0, a, b, y = Q(1), Q(1), Q(1), Q(1, 3)
    # sum of p_n (-y)^n truncations
    vals = {}
    for n in (3, 6, 12, 24):
        vals[n], bound = matrix_coefficient(r0, a, b, y, n)
        assert bound is not None and bound > 0
    # later partial sums stay within the earlier remainder bound
    v3, b3 = matrix_coefficient(r0, a, b, y, 3)
    for n in (6, 12, 24):
        assert abs(vals[n] - v3) <= b3
    # closed form for r0=a=b=1: sum (-y)^n/(n+1) = log(1+y)/y
    import math
    v, bound = matrix_coefficient(r0, a, b, y, 60)
    assert abs(float(v) - math.log(1 + 1 / 3) * 3) < float(bound) + 1e-15


def test_matrix_coefficient_domain():
    with pytest.raises(ValueError):
        matrix_coefficient(1, 1, 1, Q(1), 5)
    with pytest.raises(ValueError):
        matrix_coefficient(1, 1, 1, Q(-3, 2), 5)


def test_matrix_coefficient_rejects_nonpositive_parameters():
    # a = -30 terminates the series at n = 30: the 40-term sum is exact and
    # lies far outside any tail bound the geometric formula would give
    with pytest.raises(ValueError):
        matrix_coefficient(1, -30, 1, Q(1, 2), 5)
    for r0, a, b in [(0, 1, 1), (1, 0, 1), (1, 1, Q(-1, 2))]:
        with pytest.raises(ValueError):
            matrix_coefficient(r0, a, b, Q(1, 3), 5)


def test_negative_counts_rejected():
    # a negative count is an error, not an empty or one-term series
    for n in (-1, -2):
        with pytest.raises(ValueError):
            matrix_coefficient(Q(1, 2), Q(1, 2), 1, Q(1, 3), n)
    with pytest.raises(ValueError):
        kernel_coefficients(1, 1, 1, -3)
    with pytest.raises(ValueError):
        ladder_norms(lookup_case("SO:4,4"), 1, 1, 1, -1)
    assert kernel_coefficients(1, 1, 1, 0) == [1]
    assert ladder_norms(lookup_case("SO:4,4"), 1, 1, 1, 0) == ([], 1)
    assert matrix_coefficient(Q(1, 2), Q(1, 2), 1, Q(1, 3), 0)[0] == 1


# Fraction reference evaluators: the step-by-step loops the integer
# rung-ratio kernel replaced.

def _ref_kernel(r0, a, b, n_max):
    r0, a, b = Q(r0), Q(a), Q(b)
    out = [Q(1)]
    for k in range(n_max):
        out.append(out[-1] * (r0 + 1 + k) / ((a + k) * (b + k) * (k + 1)))
    return out


def _ref_norms(r0, a, b, n):
    r0, a, b = Q(r0), Q(a), Q(b)
    gammas = [Q(k) * (k - 1 + a) * (k - 1 + b) / (r0 + k) for k in range(1, n + 1)]
    norm = Q(1)
    for g in gammas:
        norm *= g
    return gammas, norm / (math.factorial(n) ** 2)


def _ref_matcoef(r0, a, b, y, n_terms):
    r0, a, b, y = Q(r0), Q(a), Q(b), Q(y)
    total, term = Q(0), Q(1)
    for n in range(n_terms + 1):
        total += term
        term *= (a + n) * (b + n) / ((1 + r0 + n) * (n + 1)) * (-y)
    nn = n_terms + 1
    ratio = abs(y) * max(Q(1), (nn + a) / (nn + 1)) * max(Q(1), (nn + b) / (nn + 1))
    return total, (abs(term) / (1 - ratio) if ratio < 1 else None)


def _ref_R(case, mu, r):
    r = Q(r)
    cs = list(multiplier_profile(case, mu).values())
    simplified = 2 * r - 2 - sum(cs)
    if r in (0, 1, -1):
        return None, simplified

    def prod(vals):
        return math.prod(vals, start=Q(1))
    raw = (prod(cs) / ((r - 1) * r)
           - prod([c + 1 for c in cs]) / (r * (r + 1))
           - prod([r - 1 - c for c in cs]) / ((r - 1) * r)
           + prod([r - c for c in cs]) / (r * (r + 1)))
    return raw, simplified


def _same(got, want):
    """Equal values, and a Fraction wherever the reference has one."""
    if isinstance(want, (list, tuple)):
        return (type(got) is type(want) and len(got) == len(want)
                and all(_same(g, w) for g, w in zip(got, want)))
    if want is None:
        return got is None
    return type(got) is Fraction and got == want


Y_VALUES = [Q(0), Q(1, 100), Q(-1, 100), Q(37, 100), Q(-37, 100), Q(99, 100),
            Q(-99, 100), Q(math.sinh(0.25) ** 2)]


def test_integer_kernel_matches_fraction_reference():
    terms = 30
    for cid in sweep_case_ids(12, 12):
        case = lookup_case(cid)
        for bm in classify_bundles(case):
            if not bm.valid:
                continue
            r0, a, b = bm.r0, bm.a, bm.b
            assert _same(kernel_coefficients(r0, a, b, terms), _ref_kernel(r0, a, b, terms))
            assert _same(ladder_norms(case, r0, a, b, terms), _ref_norms(r0, a, b, terms))
            for y in Y_VALUES:
                assert _same(matrix_coefficient(r0, a, b, y, terms),
                             _ref_matcoef(r0, a, b, y, terms)), (cid, bm.twist, y)


def test_integer_kernel_edge_cases():
    case = lookup_case("E6:6")
    r0, a, b = Q(5, 2), Q(3, 2), Q(2)
    assert _same(kernel_coefficients(r0, a, b, 0), [Q(1)])
    assert _same(ladder_norms(case, r0, a, b, 0), ([], Q(1)))
    for y in (Q(0), Q(1, 2), Q(-1, 2)):
        for n in (0, 1):
            assert _same(matrix_coefficient(r0, a, b, y, n), _ref_matcoef(r0, a, b, y, n))
    # a bound that does not exist: the ratio reaches 1
    assert matrix_coefficient(r0, Q(50), Q(50), Q(9, 10), 2)[1] is None
    # integer inputs come back as Fractions
    assert _same(matrix_coefficient(1, 1, 1, 0, 3), (Q(1), Q(0)))


def test_rung_ratios_are_the_unreduced_pairs():
    rng = random.Random(sweep_seed() + 1)
    for _ in range(50):
        params = [rng.choice((Q(rng.randint(1, 40), rng.randint(1, 12)), rng.randint(1, 9)))
                  for _ in range(3)]
        (rn, rd), (an, ad), (bn, bd) = (Q(p).as_integer_ratio() for p in params)
        for n in (0, 1, 2, 60):
            want = [(k * rd * (an + (k - 1) * ad) * (bn + (k - 1) * bd), ad * bd * (rn + k * rd))
                    for k in range(1, n + 1)]
            got = rung_ratios(*params, n)
            assert type(got) is list and got == want, (params, n)
            assert all(type(x) is int for pair in got for x in pair)


def test_R_eigenvalue_matches_fraction_reference():
    rng = random.Random(sweep_seed())
    cases = [lookup_case(cid) for cid in sweep_case_ids(12, 12)]
    for _ in range(300):
        case = rng.choice(cases)
        t = tuple(rng.randrange(5) for _ in range(case.q_total))
        mu = multidegree(case, t)
        r, _, _ = level_data(case, LadderPoint(Q(rng.randrange(-20, 21), 2), t))
        # also off the ladder: r with any small denominator, and the
        # singular points where only the simplified value exists
        for rr in (r, Q(rng.randrange(-30, 31), rng.randrange(1, 7)), Q(rng.randrange(-1, 2))):
            assert _same(R_eigenvalue(case, mu, rr), _ref_R(case, mu, rr)), (case.id, mu, rr)
    # every registry profile has sum v = 4 entries; a one-slot synthetic
    # case has 1, so the D^2 / D^m scaling is checked at another length
    one = JordanCase("synthetic", (JordanBlock(1, 0, 1),), 0, {})
    for t in range(4):
        mu = multidegree(one, (t,))
        for p in range(-9, 10):
            r, _, _ = level_data(one, LadderPoint(Q(p, 2), (t,)))
            for rr in (r, Q(p, 3), Q(p % 3 - 1)):
                assert _same(R_eigenvalue(one, mu, rr), _ref_R(one, mu, rr)), (mu, rr)
