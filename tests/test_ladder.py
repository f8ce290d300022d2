import random
from fractions import Fraction as Q

import pytest

from orbitq import sweep_seed
from orbitq.bundles import alpha_of
from orbitq.jordan import lookup_case, sweep_case_ids
from orbitq.ladder import (ExtractionFailure, LadderPoint, R_eigenvalue,
                           _profile_terms, extract_ab,
                           j_identity_check, ladder_norms, level_data,
                           multidegree)
from polyref import pochhammer


def _profile(case, mu):
    """{(i, j): value}: the multiplier profile as `Fraction`s, by (i, j)."""
    return {(i + 1, j): Q(num, den) for i, j, num, den in _profile_terms(case, mu)}


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
    prof = _profile(e6, (0, 0, 0, 0))
    assert sorted(prof.values()) == [Q(0), Q(1, 2), Q(1), Q(3, 2)]
    sl3 = lookup_case("SL:3")
    prof = _profile(sl3, (6,))
    assert sorted(prof.values()) == [Q(0), Q(1, 4), Q(1, 2), Q(3, 4)]
    so44 = lookup_case("SO:4,4")
    assert list(_profile(so44, (0,) * 4).values()) == [Q(0)] * 4
    assert _profile(lookup_case("F4:4"), (0, 0, 0, 0)) == {
        (1, 0): Q(1), (2, 0): Q(1, 2), (3, 0): Q(0), (4, 0): Q(0)}


def test_profile_size_always_four():
    for cid in sweep_case_ids():
        case = lookup_case(cid)
        prof = _profile(case, (0,) * case.q_total)
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
        total = sum(_profile(case, mu).values())
        assert total == z + Q(case.m, 2) - 2


def test_j_identity():
    assert j_identity_check(1, 1, 1, 1, 3)
    assert j_identity_check(0, 0, 0, 0, Q(7, 3))
    with pytest.raises(ValueError):
        j_identity_check(1, 1, 1, 1, -1)


def test_extract_ab_examples():
    assert extract_ab(lookup_case("E6:6"), Q(5, 2)) == (Q(3, 2), Q(2))
    assert extract_ab(lookup_case("G2:2"), Q(1)) == (Q(4, 3), Q(5, 3))
    assert extract_ab(lookup_case("E8:-24"), Q(9)) == (Q(5), Q(9))
    with pytest.raises(ExtractionFailure):
        extract_ab(lookup_case("SL:3"), Q(1))


def _ref_extract_ab(case, r0):
    """The Fraction evaluation the integer extraction replaced."""
    r0 = Q(r0)
    vals = list(_profile(case, (0,) * case.q_total).values())
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
