import random
from fractions import Fraction as Q
from itertools import product
from math import prod

import pytest

from orbitq.bundles import ExtractionFailure, alpha_of, extract_ab
from orbitq.hyperg import matrix_coefficient, rung_ratios
from orbitq.jordan import lookup_case, sweep_case_ids
from orbitq.ladder import (LadderPoint, R_eigenvalue, j_identity_check, ladder_norms,
                           level_data, multidegree)
from polyref import multiplier_profile, pochhammer, sweep_seed


def test_multidegree():
    e6 = lookup_case("E6:6")
    assert multidegree(e6, (0, 0, 0, 1)) == (2, 2, 2, 2)
    assert multidegree(e6, (0, 0, 0, 0)) == (0, 0, 0, 0)
    g2 = lookup_case("G2:2")
    assert multidegree(g2, (3, 0)) == (6, 0)
    with pytest.raises(ValueError):
        multidegree(g2, (1,))
    with pytest.raises(ValueError):
        multidegree(g2, (-1, 0))


def test_multidegree_sum_is_2z():
    rng = random.Random(sweep_seed() + 4)
    for _ in range(100):
        case = lookup_case(rng.choice(sweep_case_ids()))
        t = tuple(rng.randrange(4) for _ in range(case.q_total))
        mu = multidegree(case, t)
        _, z, _ = level_data(case, LadderPoint(Q(0), t))
        assert sum(mu) == 2 * z


def test_capelli_profile_values():
    e6 = lookup_case("E6:6")
    prof = multiplier_profile(e6, (0, 0, 0, 0))
    assert sorted(prof.values()) == [Q(0), Q(1, 2), Q(1), Q(3, 2)]
    sl3 = lookup_case("SL:3")
    prof = multiplier_profile(sl3, (6,))
    assert sorted(prof.values()) == [Q(0), Q(1, 4), Q(1, 2), Q(3, 4)]
    so44 = lookup_case("SO:4,4")
    assert list(multiplier_profile(so44, (0,) * 4).values()) == [Q(0)] * 4
    assert multiplier_profile(lookup_case("F4:4"), (0, 0, 0, 0)) == {
        (1, 0): Q(1), (2, 0): Q(1, 2), (3, 0): Q(0), (4, 0): Q(0)}


def test_profile_size_always_four():
    for cid in sweep_case_ids():
        case = lookup_case(cid)
        prof = multiplier_profile(case, (0,) * case.q_total)
        assert len(prof) == 4


def test_level_data():
    e6 = lookup_case("E6:6")
    r, z, x = level_data(e6, LadderPoint(Q(-3), (0, 0, 0, 0)))
    assert (r, z, x) == (Q(5, 2), 0, Q(0))
    r, z, x = level_data(e6, LadderPoint(Q(0), (0, 0, 0, 0)))
    assert (r, x) == (Q(11, 2), Q(6))
    g2 = lookup_case("G2:2")
    r, z, x = level_data(g2, LadderPoint(Q(-1, 2), (0, 0)))
    assert (r, x) == (Q(1), Q(1))


def test_internal_identity_2r_minus_x():
    rng = random.Random(sweep_seed() + 5)
    for _ in range(100):
        case = lookup_case(rng.choice(sweep_case_ids()))
        pt = LadderPoint(Q(rng.randrange(-12, 13), 2),
                         tuple(rng.randrange(4) for _ in range(case.q_total)))
        r, z, x = level_data(case, pt)
        assert 2 * r - x == z + Q(case.m, 2)


def test_R_eigenvalue_examples():
    e6 = lookup_case("E6:6")
    raw, simp = R_eigenvalue(e6, (0, 0, 0, 0), Q(5, 2))
    assert raw == simp == Q(0)
    so44 = lookup_case("SO:4,4")
    raw, simp = R_eigenvalue(so44, (0,) * 4, Q(2))
    assert raw == simp == Q(2)
    raw, simp = R_eigenvalue(so44, (0,) * 4, Q(1))
    assert raw is None and simp == Q(0)


def test_profile_sum_identity():
    # sum of the profile equals z + m/2 - 2
    rng = random.Random(sweep_seed() + 6)
    for _ in range(200):
        case = lookup_case(rng.choice(sweep_case_ids()))
        t = tuple(rng.randrange(4) for _ in range(case.q_total))
        mu = multidegree(case, t)
        _, z, _ = level_data(case, LadderPoint(Q(0), t))
        total = sum(multiplier_profile(case, mu).values())
        assert total == z + Q(case.m, 2) - 2


def test_j_identity():
    assert j_identity_check(1, 1, 1, 1, 3)
    assert j_identity_check(0, 0, 0, 0, Q(7, 3))
    with pytest.raises(ValueError):
        j_identity_check(1, 1, 1, 1, -1)


def _quartic_holds(a, b, flip=None):
    """The identity `j_identity_check` decides, read term by term, with
    the sign of term `flip` changed where it is not None."""
    def j(vals, bb):
        return Q(prod(vals), bb * (bb + 1))

    terms = [j(a, b), -j([b - x for x in a], b),
             -j([x + 1 for x in a], b + 1), j([b - x + 1 for x in a], b + 1)]
    if flip is not None:
        terms[flip] = -terms[flip]
    return sum(terms) == 2 * b - sum(a)


_QUARTIC_GRID = [(a, b) for a in product((0, 1), repeat=4) for b in range(1, 7)]


def test_quartic_identity_proved_on_grid():
    # Criterion 7's quartic identity, times b(b+1)(b+2), is P(a, b) = 0
    # with P of degree at most 1 in each a_i (each product is multilinear
    # in a) and at most 5 in b ((b+2) prod(b - a_i) is the highest term).
    # P vanishes on {0,1}^4 x {1..6}, each set one point more than P's
    # degree in its variable, so P = 0 (N. Alon, Combinatorial
    # Nullstellensatz, 1999, Lemma 2.1): the identity holds for every a
    # and every b outside {0, -1, -2}
    assert len(_QUARTIC_GRID) == 96
    assert all(j_identity_check(*a, b) for a, b in _QUARTIC_GRID)
    # the test's reading agrees, and the grid catches a flipped sign in
    # any one term
    assert all(_quartic_holds(a, b) for a, b in _QUARTIC_GRID)
    for k in range(4):
        assert not all(_quartic_holds(a, b, flip=k) for a, b in _QUARTIC_GRID), k


def _r_simplified_misses(cases):
    """The (case id, point) of each ladder point where R_simplified is not
    X: p = 0 and p = 1 at t = 0, and p = 0 at each unit vector t = e_i."""
    misses = []
    for case in cases:
        q = case.q_total
        points = [LadderPoint(p, (0,) * q) for p in (0, 1)]
        points += [LadderPoint(0, tuple(int(j == i) for j in range(q))) for i in range(q)]
        for pt in points:
            r, _, x = level_data(case, pt)
            if R_eigenvalue(case, multidegree(case, pt.t), r)[1] != x:
                misses.append((case.id, pt))
    return misses


def test_r_simplified_is_x_proved_per_case():
    # R_simplified = 2r - 2 - sum of the profile, whose entries
    # (mu_i + delta_i - 2j)/(2 v_i) are affine in the multidegree mu; r, X
    # and mu are affine in (p, t), so both sides are.  Two affine functions
    # that agree on an affine basis, (0, 0), (1, 0) and each (0, e_i),
    # agree at every ladder point
    cases = [lookup_case(cid) for cid in sweep_case_ids(12, 12)]
    assert _r_simplified_misses(cases) == []
    # with m one higher, r and X each rise by 1/2 and R_simplified by 1
    shifted = [case._replace(m=case.m + 1) for case in cases]
    assert len(_r_simplified_misses(shifted)) == sum(2 + case.q_total for case in cases) == 404


def test_extract_ab_examples():
    assert extract_ab(lookup_case("E6:6"), Q(5, 2)) == (Q(3, 2), Q(2))
    assert extract_ab(lookup_case("G2:2"), Q(1)) == (Q(4, 3), Q(5, 3))
    assert extract_ab(lookup_case("E8:-24"), Q(9)) == (Q(5), Q(9))
    with pytest.raises(ExtractionFailure):
        extract_ab(lookup_case("SL:3"), Q(1))


def _ref_extract_ab(case, r0):
    """The Fraction evaluation the integer extraction replaced."""
    r0 = Q(r0)
    vals = list(multiplier_profile(case, (0,) * case.q_total).values())
    for needed in (Q(0), r0 - 1):
        if needed in vals:
            vals.remove(needed)
        else:
            raise ExtractionFailure(needed, vals)
    c1, c2 = sorted(vals)
    return (r0 - c2, r0 - c1)


def _outcome(case, r0, extract):
    """('ab', (a, b)) or ('fail', missing, message, sorted multiset)."""
    try:
        return ("ab", extract(case, r0))
    except ExtractionFailure as exc:
        return ("fail", exc.missing, str(exc), sorted(exc.multiset))


def _typed(value):
    """value with every leaf tagged by its type."""
    if isinstance(value, (list, tuple)):
        return tuple(_typed(v) for v in value)
    return (type(value), value)


def test_extract_ab_matches_fraction_reference():
    for cid in sweep_case_ids(12, 12):
        case = lookup_case(cid)
        alpha, _ = alpha_of(case)
        for r0 in (Q(alpha, 2), Q(alpha + 1, 2), Q(1, 4), Q(3, 4), 1, 2):
            got = _outcome(case, r0, extract_ab)
            want = _outcome(case, r0, _ref_extract_ab)
            assert _typed(got) == _typed(want), (cid, r0)


def test_int_and_fraction_arguments_agree():
    # an exact argument is read through its numerator and denominator, so
    # an int and the equal Fraction give equal values of equal types
    for n in (0, 1, 5):
        assert _typed(rung_ratios(1, 1, 1, n)) == _typed(rung_ratios(Q(1), Q(1), Q(1), n))
        assert (_typed(matrix_coefficient(1, 1, 1, 0, n))
                == _typed(matrix_coefficient(Q(1), Q(1), Q(1), Q(0), n)))
    for y in (1, -1, 2):
        with pytest.raises(ValueError):
            matrix_coefficient(1, 1, 1, y, 3)
    for cid in ("G2:2", "SL:3", "E8:-24"):
        case = lookup_case(cid)
        assert (_typed(_outcome(case, 1, extract_ab))
                == _typed(_outcome(case, Q(1), extract_ab))), cid
    assert _typed(extract_ab(lookup_case("G2:2"), 1)) == _typed((Q(4, 3), Q(5, 3)))
    # r in {0, 1, -1} is rr in {0, D, -D} over the common denominator D >= 2
    e6, so44 = lookup_case("E6:6"), lookup_case("SO:4,4")
    for case, mu in ((so44, (0,) * 4), (e6, multidegree(e6, (1, 0, 2, 1)))):
        for r in (Q(2, 2), Q(-2, 2), 0):
            raw, simplified = R_eigenvalue(case, mu, r)
            assert raw is None and type(simplified) is Q, (case.id, r)
            assert _typed(R_eigenvalue(case, mu, int(r))) == (_typed(None), _typed(simplified))
        for r in (2, -3):
            got = R_eigenvalue(case, mu, r)
            assert _typed(got) == _typed(R_eigenvalue(case, mu, Q(r))), (case.id, r)
            assert got[0] == got[1], (case.id, r)


def test_ladder_norms_examples():
    so44 = lookup_case("SO:4,4")
    _, norm = ladder_norms(so44, 1, 1, 1, 2)
    assert norm == Q(1, 3)
    g2 = lookup_case("G2:2")
    gammas, norm = ladder_norms(g2, 1, Q(4, 3), Q(5, 3), 1)
    assert norm == Q(10, 9) and gammas == [Q(10, 9)]
    e6 = lookup_case("E6:6")
    gammas, norm = ladder_norms(e6, Q(5, 2), Q(3, 2), 2, 1)
    assert gammas == [Q(6, 7)] and norm == Q(6, 7)
    _, n0 = ladder_norms(e6, Q(5, 2), Q(3, 2), 2, 0)
    assert n0 == 1
    with pytest.raises(ValueError):
        ladder_norms(e6, Q(5, 2), Q(-1), 2, 1)


def test_norms_match_pochhammer_closed_form():
    case = lookup_case("E7:7")
    r0, a, b = Q(4), Q(2), Q(3)
    for n in range(9):
        _, norm = ladder_norms(case, r0, a, b, n)
        fact = 1
        for k in range(2, n + 1):
            fact *= k
        assert norm == pochhammer(a, n) * pochhammer(b, n) / \
            (fact * pochhammer(r0 + 1, n))


def test_bracket_valid_sl3():
    # bracket validity is decided by parameter extraction at the vacuum
    with pytest.raises(ExtractionFailure):
        extract_ab(lookup_case("SL:3"), Q(1))


def test_bracket_valid_so33_f0():
    extract_ab(lookup_case("SO:3,3"), Q(1))


def test_bracket_valid_high_r0_no_diagnostics():
    extract_ab(lookup_case("E7:7"), Q(4))


def test_records_are_frozen_with_their_reprs():
    pt = LadderPoint(Q(3, 2), (1, 0, 2))
    assert repr(pt) == "LadderPoint(p=Fraction(3, 2), t=(1, 0, 2))"
    with pytest.raises(AttributeError):
        pt.p = None
