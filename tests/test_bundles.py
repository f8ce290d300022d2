from fractions import Fraction as Q

import pytest

from orbitq import catalog
from orbitq.bundles import (TWIST_F0, TWIST_PLAIN, alpha_of, classify_bundles,
                            pi1_component_order)
from orbitq.catalog import golden_rows
from orbitq.jordan import lookup_case, sweep_case_ids


def test_alpha_examples():
    assert alpha_of(lookup_case("E6:6")) == (5, (5,))
    assert alpha_of(lookup_case("SL:3")) == (1, (2,))
    assert alpha_of(lookup_case("G2:2")) == (2, (2, 2))
    assert alpha_of(lookup_case("E8:8")) == (14, (14,))


def test_classify_single_plain():
    (bm,) = classify_bundles(lookup_case("SO:3,6"))
    assert bm.twist == TWIST_PLAIN and bm.r0 == Q(2)


def test_classify_two_twists():
    out = classify_bundles(lookup_case("SL:4"))
    assert [(b.twist, b.r0) for b in out] == [(TWIST_PLAIN, Q(1, 2)),
                                              (TWIST_F0, Q(1))]


def test_classify_empty():
    assert classify_bundles(lookup_case("SO:4,5")) == []
    assert classify_bundles(lookup_case("SL:7")) == []


def test_r0_positive_and_halving():
    for cid in sweep_case_ids():
        case = lookup_case(cid)
        for bm in bundles_for(case):
            assert bm.r0 > 0
            expect = Q(bm.alpha, 2) if bm.twist == TWIST_PLAIN else Q(bm.alpha + 1, 2)
            assert bm.r0 == expect


def bundles_for(case):
    return classify_bundles(case)


def test_twists_never_coincide():
    # the two parity vectors differ by w, which cannot vanish mod 2 when
    # both parity tests pass
    for cid in sweep_case_ids():
        case = lookup_case(cid)
        out = classify_bundles(case)
        if len(out) == 2:
            assert all(b.w % 2 == 0 for b in case.blocks)
            assert out[0].r0 != out[1].r0


def test_zeta0_exponents_even_nonnegative():
    for cid in sweep_case_ids():
        case = lookup_case(cid)
        for bm in classify_bundles(case):
            assert all(e >= 0 and e % 2 == 0 for e in bm.zeta0_exponents)


def test_pi1_orders():
    assert pi1_component_order(lookup_case("E8:8")) == 1
    assert pi1_component_order(lookup_case("SL:5")) == 2
    assert pi1_component_order(lookup_case("SL:3")) == 4
    assert pi1_component_order(lookup_case("SO:3,3")) == 2
    assert pi1_component_order(lookup_case("SO:3,5")) == 1


def test_so33_sl4_agree():
    a = classify_bundles(lookup_case("SO:3,3"))
    b = classify_bundles(lookup_case("SL:4"))
    assert [(x.twist, x.r0, x.a, x.b, x.valid) for x in a] == \
           [(x.twist, x.r0, x.a, x.b, x.valid) for x in b]


def test_vacuum_labels_present():
    # the catalog labels every bundle the classifier computes
    for cid in sweep_case_ids():
        case = lookup_case(cid)
        for bm in classify_bundles(case):
            assert catalog.vacuum_label(case.id, bm.twist), (cid, bm.twist)


def test_classify_makes_no_call_into_catalog(monkeypatch):
    # the golden registry is the sweep's oracle, not an input of the
    # classifier: the whole pmax = nmax = 40 sweep classifies without it
    def oracle(*args):
        raise AssertionError("classify_bundles called into catalog")

    monkeypatch.setattr(catalog, "golden_rows", oracle)
    monkeypatch.setattr(catalog, "vacuum_label", oracle)
    ids = sweep_case_ids(40, 40)
    assert len(ids) == 787
    assert sum(len(classify_bundles(lookup_case(cid))) for cid in ids) == 448


def test_bundle_and_golden_reprs():
    plain, shifted = classify_bundles(lookup_case("SL:3"))
    assert repr(plain) == (
        "BundleModel(case_id='SL:3', twist='L0', alpha=1, zeta0_exponents=(2,),"
        " r0=Fraction(1, 2), a=Fraction(3, 4), b=Fraction(5, 4), valid=True)")
    assert repr(shifted) == (
        "BundleModel(case_id='SL:3', twist='f0L0', alpha=1, zeta0_exponents=(6,),"
        " r0=Fraction(1, 1), a=None, b=None, valid=False)")
    row = golden_rows("SO:3,3")[1]
    assert repr(row) == (
        "GoldenRow(twist='f0L0', r0=Fraction(1, 1), a=Fraction(3, 2), b=Fraction(3, 2),"
        " valid=True, vacuum_label='C^2 (x) C^2')")
    with pytest.raises(AttributeError):
        row.valid = False
