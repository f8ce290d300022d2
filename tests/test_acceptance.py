"""End-to-end acceptance gate.

Each test covers one numbered criterion, checks exact rational equality
against an independent oracle, and prints a single PASS/FAIL line.
"""

import random
import time
from fractions import Fraction as Q
from math import factorial

import pytest

from orbitq.bundles import classify_bundles
from orbitq.catalog import golden_rows
from orbitq.hyperg import kernel_coefficients, matrix_coefficient
from orbitq.jordan import lookup_case, sweep_case_ids
from orbitq.ladder import (LadderPoint, R_eigenvalue, j_identity_check,
                           ladder_norms, level_data, multidegree)
from orbitq.models import (build_model, model_hw_norm, solve_gram,
                           verify_brackets)
from polyref import pochhammer, sweep_seed


def _report(num: int, ok: bool, label: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} — {label}")
    assert ok, f"criterion {num} failed: {label}"


@pytest.fixture(scope="module")
def so44_model():
    return build_model("so44")


@pytest.fixture(scope="module")
def g2_model():
    return build_model("g2")


def _sweep_bundles():
    out = []
    for cid in sweep_case_ids():
        case = lookup_case(cid)
        out.append((cid, classify_bundles(case)))
    return out


def test_criterion_1_golden_table():
    t0 = time.perf_counter()
    ok = True
    for cid, computed in _sweep_bundles():
        golden = golden_rows(cid)
        if len(computed) != len(golden):
            ok = False
            break
        for bm, gr in zip(sorted(computed, key=lambda b: b.twist),
                          sorted(golden, key=lambda g: g.twist)):
            if (bm.twist, bm.r0, bm.valid) != (gr.twist, gr.r0, gr.valid):
                ok = False
            if gr.valid and sorted([bm.a, bm.b]) != sorted([gr.a, gr.b]):
                ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _report(1, ok, f"spectral table matches golden registry ({elapsed:.2f}s)")


def test_criterion_2_no_bundle_classes():
    t0 = time.perf_counter()
    ok = True
    for p in range(4, 13):
        for q in range(p, 13):
            if (p + q) % 2 == 1:
                ok = ok and classify_bundles(lookup_case(f"SO:{p},{q}")) == []
    for n in range(5, 13, 2):
        ok = ok and classify_bundles(lookup_case(f"SL:{n}")) == []
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _report(2, ok, f"odd-signature/odd-rank cases have no bundle ({elapsed:.2f}s)")


def test_criterion_3_unique_failure():
    bad = []
    for cid, computed in _sweep_bundles():
        for bm in computed:
            if not bm.valid:
                bad.append((cid, bm.twist))
    ok = bad == [("SL:3", "f0L0")]
    _report(3, ok, "only SL:3 with the shifted twist fails validity")


def test_criterion_4_so44_closure(so44_model):
    t0 = time.perf_counter()
    rep3 = verify_brackets(so44_model, 3)
    mid = time.perf_counter() - t0
    rep4 = verify_brackets(so44_model, 4)
    ok = (rep3.closed and rep3.rank == 28 and rep3.stable
          and rep4.stable and rep4.rank == 28 and mid < 60.0)
    _report(4, ok, f"28-operator model closed, constants stable ({mid:.1f}s)")


def test_criterion_5_g2_closure(g2_model):
    t0 = time.perf_counter()
    rep3 = verify_brackets(g2_model, 3)
    rep4 = verify_brackets(g2_model, 4)
    elapsed = time.perf_counter() - t0
    ok = (rep3.closed and rep3.rank == 14 and rep3.stable
          and rep4.stable and rep4.rank == 14 and elapsed < 30.0)
    _report(5, ok, f"14-operator model closed, constants stable ({elapsed:.1f}s)")


def test_criterion_6_oscillator_baseline():
    t0 = time.perf_counter()
    ok = True
    for n, rank in ((1, 3), (2, 10)):
        model = build_model("oscillator", n)
        rep = verify_brackets(model, 3)
        ok = ok and rep.closed and rep.rank == rank and rep.stable
        gram = solve_gram(model, 3)
        ok = ok and gram.well_defined and gram.positive_definite
        for lvl in range(4):
            for i, mono in enumerate(gram.bases[lvl]):
                want = 1
                for a in mono:
                    want *= factorial(a)
                ok = ok and gram.grams[lvl][(i, i)] == want
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _report(6, ok, f"oscillator ranks 3/10 and factorial norms ({elapsed:.1f}s)")


def test_criterion_7_eigenvalue_identity():
    t0 = time.perf_counter()
    rng = random.Random(sweep_seed())
    ids = sweep_case_ids()
    ok = True
    done = 0
    while done < 1000:
        case = lookup_case(rng.choice(ids))
        t = tuple(rng.randrange(5) for _ in range(case.q_total))
        p = Q(rng.randrange(-20, 21), 2)
        pt = LadderPoint(p, t)
        r, _, x = level_data(case, pt)
        if r in (0, 1, -1):
            continue
        raw, simp = R_eigenvalue(case, multidegree(case, t), r)
        ok = ok and raw == simp == x
        done += 1
    for _ in range(500):
        args = [Q(rng.randrange(-9, 10), rng.randrange(1, 5))
                for _ in range(4)]
        b = Q(rng.randrange(1, 30), rng.randrange(1, 5))
        ok = ok and j_identity_check(*args, b)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _report(7, ok, f"1000 ladder-eigenvalue + 500 quartic identities ({elapsed:.1f}s)")


def test_criterion_8_norm_closed_forms():
    so44 = lookup_case("SO:4,4")
    g2 = lookup_case("G2:2")
    ok = True
    for n in range(9):
        _, norm = ladder_norms(so44, 1, 1, 1, n)
        ok = ok and norm == Q(1, n + 1)
        _, norm = ladder_norms(g2, 1, Q(4, 3), Q(5, 3), n)
        want = Q(factorial(3 * n + 3),
                 3 ** (3 * n) * factorial(3) * factorial(n)
                 * factorial(n + 1) ** 2)
        ok = ok and norm == want
    _report(8, ok, "rank-1 and 1/27-model norm closed forms, n <= 8")


def test_criterion_9_gram_positivity(so44_model, g2_model):
    t0 = time.perf_counter()
    ok = True
    for model, cid, params in ((so44_model, "SO:4,4", (1, 1, 1)),
                               (g2_model, "G2:2", (1, Q(4, 3), Q(5, 3)))):
        rep = solve_gram(model, 4)
        ok = (ok and rep.well_defined and rep.symmetric
              and rep.positive_definite and rep.adjoint_ok)
        case = lookup_case(cid)
        for n in range(5):
            _, want = ladder_norms(case, *params, n)
            ok = ok and model_hw_norm(model, n, rep) == want
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    _report(9, ok, f"invariant Grams positive-definite, norms match ({elapsed:.1f}s)")


def test_criterion_10_kernel_coefficients():
    ok = True
    for cid, computed in _sweep_bundles():
        case = lookup_case(cid)
        for bm in computed:
            if not bm.valid:
                continue
            ps = kernel_coefficients(bm.r0, bm.a, bm.b, 20)
            for n in range(21):
                gammas, _ = ladder_norms(case, bm.r0, bm.a, bm.b, n)
                prod = Q(1)
                for g in gammas:
                    prod *= g
                ok = ok and ps[n] * prod == 1
    val, bound = matrix_coefficient(1, 1, 1, Q(0), 10)
    ok = ok and val == 1 and bound == 0
    for n in range(15):
        coeff = (pochhammer(Q(1), n) * pochhammer(Q(1), n)
                 / (pochhammer(Q(2), n) * factorial(n)))
        ok = ok and coeff == Q(1, n + 1)
    _report(10, ok, "kernel coefficients invert rung norms; series sanity")


def test_criterion_11_positivity_sweep():
    ok = True
    for _, computed in _sweep_bundles():
        for bm in computed:
            if bm.valid:
                ok = ok and bm.a > 0 and bm.b > 0 and bm.r0 > 0
    _report(11, ok, "a, b, r0 strictly positive on every valid bundle")
