import hashlib
from collections import Counter
from fractions import Fraction as Q
from itertools import accumulate, chain, combinations, count, product
from math import comb, factorial, prod
from operator import add

import pytest

from orbitq import bundles, models, opcalc
from orbitq.bundles import ExtractionFailure, extract_ab
from orbitq.jordan import lookup_case, sweep_case_ids
from orbitq.ladder import ladder_norms
from orbitq.models import (PAIR_MODELS, GeneratorInfo, build_model, degree_contract_failures,
                           model_hw_norm, pair_model, solve_gram, verify_brackets)
from orbitq.opcalc import (SingularGradeError, SpanReport, VariableContext, _stacked,
                           automorphisms, block_degrees, bracket, compile_ops, deriv, grade_divide,
                           grade_scale, mul, scalar, span_structure)
from orbitq.sparse import Reducer
from polyref import var
from test_opcalc import _check_compiled, _decode, _residual, xyw  # noqa: F401 (xyw is a fixture)


# sha256 of the exact structure constants and Grams, recorded before the
# models became table-driven; a refactor of the models must not move them
def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _sc_digest(rep):
    return _digest(([(k, sorted(v.items()))
                     for k, v in sorted(rep.structure_constants.items())],
                    rep.failures))


def _gram_digest(rep):
    return _digest([(b, sorted(g.items())) for b, g in zip(rep.bases, rep.grams)])


@pytest.fixture(scope="module")
def so44():
    return build_model("so44")


@pytest.fixture(scope="module")
def g2():
    return build_model("g2")


def _with_first_compact(model, extra):
    """The model with `extra` added to its first compact operator."""
    name, op, adj = model.compact_ops[0]
    return model._replace(compact_ops=((name, op + extra, adj), *model.compact_ops[1:]))


def _with_generator(model, k, **fields):
    """The model with the given fields of generator k replaced."""
    gens = model.generators
    return model._replace(generators=(*gens[:k], gens[k]._replace(**fields), *gens[k + 1:]))


def test_unknown_model():
    for name in ("e8", "osc"):
        with pytest.raises(ValueError):
            build_model(name)
    with pytest.raises(ValueError):
        build_model("oscillator", 0)


def test_solve_gram_rejects_negative_level():
    with pytest.raises(ValueError):
        solve_gram(build_model("oscillator", 1), -1)


def test_gram_failure_names_first_nonpositive_pivot(monkeypatch):
    failures = []
    gram = [{0: Q(1), 1: Q(2)}, {0: Q(2), 1: Q(1)}]
    models._positive_definite(3, [(2, 0), (1, 1)], gram, 1, failures, [])
    assert failures == ["level 3: pivot -3 at (1, 1) is not positive"]
    # a hand-built negative level-0 Gram for osc1 is c_0 F_0 with c_0 = -1,
    # so it takes the Fischer route, which names its first pivot
    monkeypatch.setattr(models, "_level0_gram", lambda model, basis: [{0: Q(-1)}])
    rep = solve_gram(build_model("oscillator", 1), 2)
    assert rep.well_defined and rep.symmetric and rep.adjoint_ok
    assert not rep.positive_definite
    assert rep.failures == ["level 0: pivot -1 at (0,) is not positive"]
    assert rep.pivots == [[Q(-1)]]


def _pivots(rows, scale=1):
    """The pivots `_positive_definite` appends for the rows `rows` over `scale`."""
    certificate = []
    models._positive_definite(0, list(range(len(rows))), rows, scale, [], certificate)
    return certificate[0]


def test_positive_definite_pivots():
    assert _pivots([{0: 1, 1: 2}, {0: 2, 1: 1}]) == [1, -3]
    assert _pivots([{0: Q(2), 1: Q(1)}, {0: Q(1), 1: Q(2)}]) == [2, Q(3, 2)]
    # int rows over a common denominator: the pivots are those of rows/scale
    assert _pivots([{0: 4, 1: 2}, {0: 2, 1: 4}], 6) == [Q(2, 3), Q(1, 2)]
    # elimination stops at a zero pivot: one where row k's entry k is 0,
    # one where row k reduces to nothing, given or by elimination, and one
    # where it reduces to a vector that misses entry k
    assert _pivots([{1: 1}, {0: 1}]) == [0]
    assert _pivots([{0: 1}, {}, {2: 1}]) == [1, 0]
    assert _pivots([{0: 1, 1: 1}, {0: 1, 1: 1}]) == [1, 0]
    assert _pivots([{0: 1, 1: 1, 2: 1}, {0: 1, 1: 1, 2: 2}, {0: 1, 1: 2, 2: 1}]) == [1, 0]
    # eliminations write into copies: the rows passed in are not changed
    rows = [{0: 2, 1: 1, 2: 1}, {0: 1, 1: 2}, {0: 1, 2: 3}]
    before = [dict(row) for row in rows]
    assert _pivots(rows) == [2, Q(3, 2), Q(7, 3)] and rows == before
    assert all(type(d) is Q for d in _pivots(rows, 2))


def test_positive_definite_pivots_are_leading_minor_ratios():
    # pivot k is det A_(k+1) / det A_k, A_k the leading k x k block, up to
    # and including the first pivot that is not positive
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def symmetric(draw):
        n = draw(st.integers(1, 6))
        upper = {(i, j): draw(st.integers(-2, 20) if i == j else st.integers(-4, 4))
                 for i in range(n) for j in range(i, n)}
        return [{j: upper[min(i, j), max(i, j)] for j in range(n) if upper[min(i, j), max(i, j)]}
                for i in range(n)]

    @hypothesis.settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @hypothesis.given(symmetric(), st.sampled_from((1, 2, 6)))
    def minor_ratios(rows, scale):
        pivots = _pivots(rows, scale)
        assert all(d > 0 for d in pivots[:-1])
        assert len(pivots) == len(rows) or pivots[-1] <= 0
        gram = {(i, j): Q(x, scale) for i, row in enumerate(rows) for j, x in row.items()}
        dets = [_dense_det(gram, k) for k in range(len(pivots) + 1)]
        assert pivots == [dets[k + 1] / dets[k] for k in range(len(pivots))]

    minor_ratios()


def test_operator_counts(so44, g2):
    assert len(so44.algebra_ops) == 28
    assert len(g2.algebra_ops) == 14
    for n in (1, 2, 3):
        osc = build_model("oscillator", n)
        assert len(osc.algebra_ops) == 2 * n * n + n


def test_level_bases(so44, g2):
    assert len(so44.level_basis(0)) == 1
    assert len(so44.level_basis(1)) == 16
    assert len(so44.level_basis(2)) == 81
    g0 = g2.level_basis(0)
    # each level lists its highest weight first
    assert len(g0) == 3 and g0[0] == (2, 0, 0, 0)
    assert len(g2.level_basis(1)) == 12
    assert g2.level_basis(1)[0] == (5, 0, 1, 0)
    osc2 = build_model("oscillator", 2)
    assert len(osc2.level_basis(3)) == 4


def test_degree_contract(so44, g2):
    assert degree_contract_failures(so44) == []
    assert degree_contract_failures(g2) == []
    assert degree_contract_failures(build_model("oscillator", 2)) == []
    # with z^(n+1) on level n, d/dz lowers by one level but does not kill
    # level 0: it sends z to 1, below level 0
    osc = build_model("oscillator", 1)._replace(blocks=(models.Block(("z1",), 1, 1),))
    assert degree_contract_failures(osc) == [
        "lowering z1: path shift (-1,) maps level 0 into level -1, which is not empty"]


def test_models_hold_tuples(so44):
    # checks share a model, so none of them may edit its operator lists
    for model in (so44, build_model("oscillator", 2)):
        for field in ("compact_ops", "generators", "algebra_ops"):
            ops = getattr(model, field)
            with pytest.raises(TypeError):
                ops[0] = ops[1]


def test_report_reprs_and_frozen_block(so44, xyw):
    osc = build_model("oscillator", 1)
    assert repr(verify_brackets(osc, 3)) == (
        "BracketReport(rank=3, closed=True, independent=True, stable=True, sl2_ok=True,"
        " structure_constants={(0, 1): {1: Fraction(2, 1)}, (0, 2): {2: Fraction(-2, 1)},"
        " (1, 2): {0: Fraction(-4, 1)}}, failures=[], unstable=[])")
    assert repr(solve_gram(osc, 3)) == (
        "GramReport(bases=[[(0,)], [(1,)], [(2,)], [(3,)]],"
        " grams=[{(0, 0): Fraction(1, 1)}, {(0, 0): Fraction(1, 1)},"
        " {(0, 0): Fraction(2, 1)}, {(0, 0): Fraction(6, 1)}], well_defined=True,"
        " symmetric=True, positive_definite=True, adjoint_ok=True, failures=[],"
        " pivots=[[Fraction(1, 1)], [Fraction(1, 1)], [Fraction(2, 1)], [Fraction(6, 1)]])")
    for record, field in ((osc.blocks[0], "a"), (osc, "blocks"), (osc.generators[0], "lower"),
                          (osc.ctx.gradings["energy"], "shift")):
        with pytest.raises(AttributeError):
            setattr(record, field, 2)
    # grades are exact sums of Fraction weights, integral or not
    for ctx, grading, exps, grade in ((so44.ctx, "energy", (2, 0, 1, 0, 0, 1, 1, 0), Q(9, 4)),
                                      (xyw, "half", (0, 0, 0), Q(1, 2)),
                                      (xyw, "half", (1, 2, 1), Q(9, 2))):
        value = ctx.grade_of(exps, grading)
        assert type(value) is Q and value == grade


def test_model_hw_norm_rejects_failed_report():
    model = build_model("oscillator", 1)
    model = _with_first_compact(model, mul(var(model.ctx, "z1")))
    rep = solve_gram(model, 2)
    assert rep.grams == [] and rep.failures
    with pytest.raises(ValueError, match="does not reach"):
        model_hw_norm(model, 0, rep)


# sha256 of each operator set's compiled columns (decoded from the
# diagonals), entry order included, on levels 0..L, recorded when the
# operators were expression trees; how the operators are built or compiled
# must not move them
COLUMN_DIGESTS = {
    ("so44", 1, 3): {
        "algebra": "2e4a92be44ee835e110709ac2ce3812927524ded0d3df88002e381a9913ee86b",
        "sl2": "2532d9ad444e4c6cfdfc94c3ac3d7e4237ba2d6f17ed6eebcf0cb2bf47627faa",
        "compact": "ab749a729328e7b7dd8b7b747dc8b9d49903648ec634dc983c05e9e72dc0bb3d",
        "raising": "5b2d1d5c66850c8052eeb508fc713b9af5fd58f1e3ac1f7c95d933c94a868873",
        "lowering": "79818252c82e649b37639b2ecdf8d75e68de86f846a4a09f1ec3d51cc0674fc9"},
    ("g2", 1, 4): {
        "algebra": "848c6b546046c14bd3b085411ef9e4e2ff85565adeb2d00fb1320c5a11fd09a3",
        "sl2": "a790b810506628794a6c6b3c332c8cbb2ef6336bca182a945ee8a703d1d31593",
        "compact": "ef7e147859235e618c32ae8da8c23f3097e061c26341ba9542bcb6b58c2f7aa2",
        "raising": "226e2b8d96fc441f73c1a9f4a968bda18d4983509315f06424c1c971c4ee513f",
        "lowering": "8c13ad48c84018dce4e92ef8c8c88cfb0bc3bd75f5a1950b9e52b4157816aece"},
    ("oscillator", 1, 3): {
        "algebra": "cad3d8e41197a5e4ccc5e9dbb51c09f5291ea449c80be5eea46099ef2050071a",
        "sl2": "4c5a437389e79a30c152b12d7426bbe3fc6bb9674e7502273e01c30c628e4e6e",
        "compact": "19a5fec3d5d430e413b8762a66ff1495317ae702e17e1f2d9a4249df29c2dad4",
        "raising": "3bf54c945fb582fb5508b33adc07097d04a7cd5a9a0329bc4ff64acaccd60ced",
        "lowering": "26ba455d6153c07a4d8b78a2c2cf8dfc8e5a409453c0545e68eadd4052291bfd"},
    ("oscillator", 2, 3): {
        "algebra": "5a408ce520835ed2722332412797ee8663caf5182dc44245a62c67d5f277bd60",
        "sl2": "285ce69948e1b58897bd068876b9cbc41c632e9934caa2b0dcf69b15e51a7213",
        "compact": "e1e4753dd8b03138524150034cefbdf347f24c0ae2d57082d58f7685d7731c36",
        "raising": "ddeed70e7b6a1fc24ffca3683c7bd77bc6734432cd62c622c3453dc9bdeab241",
        "lowering": "b42549471a5d32b1021440d75347bd3039304f832d02872e5273003da74f79c0"},
    ("oscillator", 3, 3): {
        "algebra": "bda99e4d8ff1aec208ad1b9157a1e6923eeb00602fc77b72c0334628a23c278b",
        "sl2": "e741640a83e39d54cc629a7f021aa0a4732526481c94a6645f0afddb096c5f24",
        "compact": "2e2845bdc3c8a9657b2aa888fbbe1730d1dac8f90874005884c0871aeb551fde",
        "raising": "19ddf817cf60884c37ece1080f982e370cff6cc2012d69054273bf84fd30412b",
        "lowering": "6ebd2619b6b5bd7af18914561fab66f36bd900f0dbbaab016e2c187587c26b46"},
}


@pytest.mark.parametrize("name, n, level", list(COLUMN_DIGESTS))
def test_compiled_column_digests(name, n, level):
    model = build_model(name, n)
    monos = [m for k in range(level + 1) for m in model.level_basis(k)]
    sets = {"algebra": [op for _, op in model.algebra_ops],
            "sl2": list(model.sl2),
            "compact": [op for _, op, _ in model.compact_ops],
            "raising": [mul(g.f) for g in model.generators],
            "lowering": [g.lower for g in model.generators]}
    got, compiled = {}, {}
    for k, ops in sets.items():
        # the digests hold the values v/d, so they check them too
        compiled[k] = _check_compiled(ops, monos)
        got[k] = _digest(_decode(*compiled[k]))
    assert got == COLUMN_DIGESTS[name, n, level]
    # raising lifts the last batch, level L + 1, to level L + 2: not numbered
    table, cols = compiled["raising"]
    assert len(table) > len(monos)
    assert set(table) == set(monos) | {tuple(map(add, m, f)) for m in monos
                                       for g in model.generators for f in g.f.terms}


@pytest.mark.parametrize("name", ["so44", "g2"])
def test_divisor_cancellation_keeps_compiled_columns(monkeypatch, name):
    # E's coefficients are 1/(P*w), so its GRADE factors have Q = P*w > 1 (4
    # in so44, 6 in g2) and 1/(E(E+1)) puts Q^2 in each lowering path's
    # coefficient numerator.  Q^2 divides every value of the divisor
    # product, so all of it cancels against Δ: each path's denominator is
    # its coefficient's times Δ/Q^2, and the compiled columns keep their
    # recorded digests and the contracts of `_check_compiled`
    model = build_model(name)
    level = {"so44": 3, "g2": 4}[name]
    monos = [m for k in range(level + 1) for m in model.level_basis(k)]
    seen, evaluate = [], opcalc._Batch.evaluate

    def spy(batch, coef, factors, values=True):
        got = evaluate(batch, coef, factors, values)
        grades = [f for f in factors if f[0] == opcalc.GRADE]
        if grades and batch.size:
            assert all(f[4] for f in grades)  # divisors only, no grade multiplier
            q2 = prod(f[3] for f in grades)
            delta = batch.divisor(tuple((opcalc.GRADE, f[1], f[2]) for f in grades))[0]
            seen.append(q2)
            assert delta % q2 == 0 and got[1] * q2 == coef.denominator * delta
        return got

    monkeypatch.setattr(opcalc._Batch, "evaluate", spy)
    for kind, ops in (("algebra", [op for _, op in model.algebra_ops]),
                      ("lowering", [g.lower for g in model.generators])):
        seen.clear()
        got = _digest(_decode(*_check_compiled(ops, monos)))
        assert got == COLUMN_DIGESTS[name, 1, level][kind]
        assert set(seen) == {{"so44": 16, "g2": 36}[name]}
        assert len(seen) >= len(model.generators)  # every lowering path


def test_oscillator_brackets_and_sl2():
    digests = {
        1: "d1c801f93a120ee0faec33b89b867aa6b92f459d00d7b6e8f4c0adb9cb029bd6",
        2: "91d829a0781967725ddf55d4fadd0bf3d9d67b88680a2c9f4e8c331fa58af5c0",
    }
    for n, rank in ((1, 3), (2, 10)):
        model = build_model("oscillator", n)
        rep = verify_brackets(model, 3)
        assert rep.closed and rep.rank == rank and rep.stable and rep.sl2_ok
        assert _sc_digest(rep) == digests[n]


def test_so44_brackets(so44):
    rep = verify_brackets(so44, 3)
    assert rep.closed and rep.rank == 28
    assert rep.stable and rep.sl2_ok and rep.failures == []
    assert _sc_digest(rep) == (
        "bee91f6ebe35ef3dad994136f43c6d115280d8b6896be0c555c108182fc339c5")


def test_g2_brackets(g2):
    rep = verify_brackets(g2, 3)
    assert rep.closed and rep.rank == 14
    assert rep.stable and rep.sl2_ok and rep.failures == []
    assert _sc_digest(rep) == (
        "20387130d1c48fa037127e8453d68d67c71dfa2853634a060e5e6ba7230a170d")


def test_oscillator_gram_norms():
    model = build_model("oscillator", 2)
    rep = solve_gram(model, 3)
    assert rep.well_defined and rep.symmetric and rep.positive_definite
    assert rep.adjoint_ok
    assert _gram_digest(rep) == (
        "32d20ea78f3e6bcb637204e1017358ac740f5778e1cb91d7abb8d31eabd59fa5")
    from math import factorial
    for lvl in range(4):
        basis = rep.bases[lvl]
        gram = rep.grams[lvl]
        for i, mono in enumerate(basis):
            expected = 1
            for a in mono:
                expected *= factorial(a)
            assert gram[(i, i)] == expected
            for j in range(i):
                assert gram.get((i, j), 0) == 0


def test_so44_gram(so44):
    rep = solve_gram(so44, 2)
    assert rep.well_defined and rep.symmetric
    assert rep.positive_definite and rep.adjoint_ok
    assert _gram_digest(rep) == (
        "3700f31f7007521ab0ebb96af99b83e737f3bae921d3399496a8dd4277364c69")
    g1 = rep.grams[1]
    for i in range(16):
        assert g1[(i, i)] == Q(1, 2)
        for j in range(i):
            assert g1.get((i, j), 0) == 0
    # normalized hw norms follow the spectral ladder with r0=a=b=1
    case = lookup_case("SO:4,4")
    for n in (1, 2):
        _, want = ladder_norms(case, 1, 1, 1, n)
        assert model_hw_norm(so44, n, rep if n <= 2 else None) == want
    # each level builds one Fraction per distinct value, shared by its
    # entries and pivots: 27 across levels 0..4, for 979 entries
    rep = solve_gram(so44, 4)
    for values in (*(g.values() for g in rep.grams), *rep.pivots):
        assert len({id(v) for v in values}) == len(set(values))
    assert sum(len(set(g.values())) for g in rep.grams) == 27
    assert sum(map(len, rep.grams)) == 979


def test_g2_gram(g2):
    rep = solve_gram(g2, 3)
    assert rep.well_defined and rep.symmetric
    assert rep.positive_definite and rep.adjoint_ok
    assert _gram_digest(rep) == (
        "70cc66e88e52255d3ddaf6bcc6da21cbcf57d067288b01e90e7718c4ed8297c9")
    g0 = rep.grams[0]
    diag = [g0[(i, i)] for i in range(3)]
    assert sorted(diag) == [Q(1, 2), Q(1), Q(1)]
    case = lookup_case("G2:2")
    for n in (1, 2, 3):
        _, want = ladder_norms(case, 1, Q(4, 3), Q(5, 3), n)
        assert model_hw_norm(g2, n, rep) == want
    assert model_hw_norm(g2, 2, rep) == Q(280, 243)


def test_so44_hw_norm_values(so44):
    rep = solve_gram(so44, 3)
    assert _gram_digest(rep) == (
        "79b1b262ee44d5a05907b81cfeab45e37a6131807b55b1faffde1966186bfd01")
    for n in (1, 2, 3):
        assert model_hw_norm(so44, n, rep) == Q(1, n + 1)


def test_reported_values_are_fractions(so44, g2):
    # the digests above hash repr(), which tells an int from a Fraction;
    # the integer closure kernel must hand back Fractions only
    for model, level in ((so44, 3), (g2, 4), (build_model("oscillator", 2), 3)):
        rep = verify_brackets(model, level)
        assert rep.structure_constants
        assert all(type(c) is Q for combo in rep.structure_constants.values()
                   for c in combo.values())
        gram = solve_gram(model, level)
        assert all(type(v) is Q for g in gram.grams for v in g.values())
    # the recursion runs on int rows over D_n = D_0 d^n, with d = 1 for
    # osc3's lowerings and d > 1 for g2's
    for model, level in ((build_model("oscillator", 3), 8), (g2, 6)):
        gram = solve_gram(model, level)
        assert gram.positive_definite and len(gram.grams) == level + 1
        assert all(type(v) is Q for g in gram.grams for v in g.values())


def test_integer_recheck_names_perturbed_pair(so44):
    small = [m for n in range(3) for m in so44.level_basis(n)]
    extra = so44.level_basis(3)
    table, cols = compile_ops([op for _, op in so44.algebra_ops], small + extra)
    assert cols[0].shifts.d == 60
    assert all(type(x) is int for c in cols for v in c.values() for x in v)
    small, extra = range(len(small)), range(len(small), len(small) + len(extra))
    rep = span_structure(cols, small, extra.stop)
    assert rep.closed and not rep.unstable
    sc = rep.structure_constants
    pair = sorted(p for p, combo in sc.items() if combo)[5]
    k = next(iter(sc[pair]))
    assert _residual(cols, pair, sc[pair], extra) == {}
    for delta in (1, Q(1, 7)):
        assert _residual(cols, pair, {**sc[pair], k: sc[pair][k] + delta}, extra)


def _with_first_algebra(model, extra):
    """The model with `extra` added to its first algebra operator."""
    name, op = model.algebra_ops[0]
    return model._replace(algebra_ops=((name, op + extra), *model.algebra_ops[1:]))


def _unstable_oscillator(level):
    # z^(L+2) d^(L+2) kills levels 0..L, so z1d1 with it added keeps the
    # constants of z1d1 below level L; [z1d1, z1z1] first differs on z^L,
    # where z1z1 lifts it to z^(L+2)
    model = build_model("oscillator", 1)
    assert model.algebra_ops[0][0] == "z1d1"
    z = var(model.ctx, "z1")
    return _with_first_algebra(model, mul(z ** (level + 2))
                               @ deriv(model.ctx, ("z1",) * (level + 2)))


def test_wrong_constant_is_not_stable():
    for level in (3, 4):
        rep = verify_brackets(_unstable_oscillator(level), level)
        assert rep.closed and rep.sl2_ok and not rep.stable
        assert rep.unstable == [("z1d1", "z1z1", (level,))]


def test_sl2_residual_fails_for_wrong_h(g2):
    e, ebar, h = g2.sl2
    # x1_1^8 d^8 is nonzero below level 3 only on level 2, the last that
    # [e, ebar] = h is checked on
    high = mul(var(g2.ctx, "x1_1") ** 8) @ deriv(g2.ctx, ("x1_1",) * 8)
    for wrong in (2 * h, h + scalar(g2.ctx, Q(1, 7)), h + high):
        rep = verify_brackets(g2._replace(sl2=(e, ebar, wrong)), 3)
        assert rep.closed and rep.stable and not rep.sl2_ok


def test_gram_flags_lowering_that_leaves_its_level():
    model = build_model("oscillator", 1)
    gen = model.generators[0]
    # d/dz + 1 keeps a part of each z^n on level n
    rep = solve_gram(_with_generator(model, 0, lower=gen.lower + scalar(model.ctx, 1)), 2)
    assert not (rep.well_defined or rep.symmetric or rep.positive_definite
                or rep.adjoint_ok)
    assert rep.grams == []
    assert rep.failures == ["lowering z1: path shift (0,) does not map level n into level n-1"]


def test_gram_names_lowering_with_no_path_back():
    # d/dz2 as z1's lowering lowers by one level, but no path of shift
    # (-1, 0) returns z1 m' to m'; without the check the recursion would
    # read level 1 through d/dz2, find a zero pivot and call it well-defined
    model = build_model("oscillator", 2)
    rep = solve_gram(_with_generator(model, 0, lower=deriv(model.ctx, ("z2",))), 3)
    assert not (rep.well_defined or rep.symmetric or rep.positive_definite
                or rep.adjoint_ok)
    assert rep.grams == []
    assert rep.failures == ["lowering z1: no path of shift (-1, 0) returns f m' to m'"]


def test_gram_names_raising_section_that_leaves_its_level(g2):
    u1, x1 = var(g2.ctx, "x1_1"), var(g2.ctx, "x2_1")
    # u1^3 moves block 1 by 3 and block 2 by 0: no level
    rep = solve_gram(_with_generator(g2, 0, f=u1 ** 3), 2)
    assert not (rep.well_defined or rep.symmetric or rep.positive_definite
                or rep.adjoint_ok)
    assert rep.failures == [
        "raising x11: path shift (3, 0, 0, 0) does not map level n into level n+1"]
    # u1^6 x1^2 lands two levels up, on a monomial of level n + 1
    rep = solve_gram(_with_generator(g2, 0, f=u1 ** 6 * x1 * x1), 2)
    assert not (rep.well_defined or rep.symmetric or rep.positive_definite
                or rep.adjoint_ok)
    assert rep.failures == [
        "raising x11: path shift (6, 0, 2, 0) does not map level n into level n+1"]


def test_gram_names_raising_section_that_is_not_one_monomial(g2):
    # x12 doubled, and x12 plus x11: every path keeps the level contract,
    # but the recursion reads f m' off the exponents and drops the rest
    gen, other = g2.generators[1], g2.generators[0]
    (m, c), = gen.f.terms.items()
    (m2, _), = other.f.terms.items()
    for terms in ({m: 2 * c}, {m: c, m2: c}):
        rep = solve_gram(_with_generator(g2, 1, f=opcalc.Polynomial(g2.ctx, terms)), 3)
        assert not (rep.well_defined or rep.symmetric or rep.positive_definite
                    or rep.adjoint_ok)
        assert rep.grams == []
        assert rep.failures == ["raising x12: section is not one monomial with coefficient 1"]


def test_gram_flags_scaled_lowering_as_not_adjoint(so44, g2):
    # doubling one lowering breaks B_n(f m', v) = B_{n-1}(m', L v) where a
    # row of level 2 is reached through that generator and another one;
    # scaling by 3/2 does too, with the lowerings' common denominator d > 1
    want = {"so44": "level 2: adjointness fails for x1112 at (1, 0, 1, 0, 0, 1, 1, 0):"
                    " row of (2, 0, 2, 0, 1, 1, 1, 1) disagrees",
            "g2": "level 2: adjointness fails for x12 at (2, 3, 1, 0):"
                  " row of (5, 3, 1, 1) disagrees"}
    for model, factor in ((so44, 2), (g2, 2), (g2, Q(3, 2))):
        gen = model.generators[1]
        rep = solve_gram(_with_generator(model, 1, lower=factor * gen.lower), 2)
        assert not rep.adjoint_ok and not rep.well_defined
        assert rep.symmetric and rep.positive_definite
        assert want[model.name] in rep.failures
        assert all("adjointness fails" in f for f in rep.failures)


@pytest.mark.parametrize("name, gens, unreached, failures, pivots", [
    ("so44", 1, (1, 0, 1, 0, 1, 0, 0, 1), 16, [1, 2]),
    ("g2", 2, (2, 3, 1, 0), 7, [3, 7])])
def test_gram_names_unreached_rows(name, gens, unreached, failures, pivots):
    # with only the first generators, some level-1 monomials are no f m':
    # their rows stay empty, which fails well_defined but not adjoint_ok,
    # and the first of them gives the zero pivot that ends the certificate
    model = build_model(name)
    rep = solve_gram(model._replace(generators=model.generators[:gens]), 1)
    assert (rep.well_defined, rep.symmetric, rep.positive_definite, rep.adjoint_ok) == (
        False, True, False, True)
    assert len(rep.failures) == failures
    assert rep.failures[0] == f"level 1: no factorization of {unreached}"
    assert all(f.startswith("level 1: no factorization of ") for f in rep.failures[:-1])
    assert rep.failures[-1] == f"level 1: pivot 0 at {unreached} is not positive"
    assert [len(p) for p in rep.pivots] == pivots


def test_level0_gram_names_compact_operator_that_leaves_level0():
    model = build_model("oscillator", 1)
    # z1 d1 + 1/2 + z1 sends 1 to 1/2 + z1, partly on level 1
    rep = solve_gram(_with_first_compact(model, mul(var(model.ctx, "z1"))), 2)
    assert not (rep.well_defined or rep.symmetric or rep.positive_definite
                or rep.adjoint_ok)
    assert rep.failures == ["compact z1d1: path shift (1,) does not map level n into level n+0"]


def _level0_failure(model):
    rep = solve_gram(model, 2)
    assert not (rep.well_defined or rep.symmetric or rep.positive_definite
                or rep.adjoint_ok)
    assert rep.failures == ["level-0 solve failed (inconsistent or underdetermined)"]


def test_level0_gram_underdetermined_without_raising_operators(g2):
    # H1 and H2, each its own adjoint, only force B(s, t) = 0 where s and t
    # differ in weight, which leaves the norms of x1_1 x1_2 and x1_2^2 free
    hs = [(name, op) for name, op, _ in g2.compact_ops if name.startswith("H")]
    _level0_failure(g2._replace(compact_ops=tuple((*h, k) for k, h in enumerate(hs))))


def test_level0_gram_inconsistent_with_e1_its_own_adjoint(g2):
    # B(E1 x1_1^2, t) = B(x1_1^2, E1 t) at t = x1_1 x1_2 reads
    # 0 = B(x1_1^2, x1_1^2), against the normalization of the hw monomial
    compact = list(g2.compact_ops)
    assert compact[0][0] == "E1"
    compact[0] = (*compact[0][:2], 0)
    _level0_failure(g2._replace(compact_ops=tuple(compact)))


def test_gram_names_wrong_shift_that_vanishes_on_its_levels():
    # z^(L+2) d^(L+1) kills levels 0..L, so evaluation there sees z1d1 and
    # d/dz unchanged; its shift (1,) still breaks the contract on level L+1
    level = 3
    model = build_model("oscillator", 1)
    z, gen = var(model.ctx, "z1"), model.generators[0]
    high = mul(z ** (level + 2)) @ deriv(model.ctx, ("z1",) * (level + 1))
    model = _with_first_compact(model, high)
    model = _with_generator(model, 0, lower=gen.lower + high)
    rep = solve_gram(model, level)
    assert not (rep.well_defined or rep.symmetric or rep.positive_definite
                or rep.adjoint_ok)
    assert rep.failures == [
        "compact z1d1: path shift (1,) does not map level n into level n+0",
        "lowering z1: path shift (1,) does not map level n into level n-1"]


def _dense_det(gram, n):
    """Determinant by dense exact Gaussian elimination with row swaps."""
    a = [[Q(gram.get((i, j), 0)) for j in range(n)] for i in range(n)]
    det = Q(1)
    for k in range(n):
        p = next((r for r in range(k, n) if a[r][k]), None)
        if p is None:
            return Q(0)
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        det *= a[k][k]
        for r in range(k + 1, n):
            f = a[r][k] / a[k][k]
            for c in range(k, n):
                a[r][c] -= f * a[k][c]
    return det


def test_gram_pivots_certify(so44, g2):
    for model in (so44, g2):
        rep = solve_gram(model, 4)
        assert rep.positive_definite
        assert [len(p) for p in rep.pivots] == [len(b) for b in rep.bases]
        assert all(type(d) is Q and d > 0 for p in rep.pivots for d in p)
    for n in (0, 1):
        prod = Q(1)
        for d in rep.pivots[n]:
            prod *= d
        assert prod == _dense_det(rep.grams[n], len(rep.bases[n]))


# every bundle of a registry row whose blocks all have q = 1: its pair
# model is read off the blocks' w and the bundle's r0 alone
FAMILY = [(cid, bm) for cid in sweep_case_ids()
          if all(blk.q == 1 for blk in lookup_case(cid).blocks)
          for bm in bundles.classify_bundles(lookup_case(cid))]


def test_family_rows():
    assert [(cid, bm.twist, bm.valid) for cid, bm in FAMILY] == [
        ("G2:2", "L0", True), ("SO:3,3", "L0", True), ("SO:3,3", "f0L0", True),
        ("SO:3,4", "L0", True), ("SO:4,4", "L0", True), ("SL:3", "L0", True),
        ("SL:3", "f0L0", False), ("SL:4", "L0", True), ("SL:4", "f0L0", True)]
    rows = {cid: (tuple(blk.w for blk in lookup_case(cid).blocks), bm.r0)
            for cid, bm in FAMILY if bm.twist == "L0"}
    assert PAIR_MODELS == {"so44": rows["SO:4,4"], "g2": rows["G2:2"]}


def _family_model(cid, bm):
    return pair_model(f"{cid} {bm.twist}", [blk.w for blk in lookup_case(cid).blocks], bm.r0)


def test_gram_images_lie_in_their_levels(so44, g2):
    # why `solve_gram` reads every image unchecked: compiled as it compiles
    # them, each nonzero lowering image of a level-n monomial is numbered
    # in level n-1, and each f m' of a level-(n-1) monomial m' in level n
    cases = [so44, g2] + [build_model("oscillator", n) for n in (1, 2, 3)]
    cases += [_family_model(cid, bm) for cid, bm in FAMILY if bm.valid]
    for model in cases:
        bases = [model.level_basis(n) for n in range(5)]
        off = list(accumulate(map(len, bases), initial=0))
        table, lower = compile_ops([g.lower for g in model.generators], chain(*bases))
        number = dict(zip(table, count()))
        for n in range(1, 5):
            level, below = range(off[n], off[n + 1]), range(off[n - 1], off[n])
            for gen, cols in zip(model.generators, lower):
                for s, v in cols.items():
                    assert all(cols.shifts.idx[s][j] in below for j in level if v[j]), \
                        (model.name, n, gen.name)
                (f,) = gen.f.terms
                assert all(number.get(tuple(map(add, m, f))) in level for m in bases[n - 1]), \
                    (model.name, n, gen.name)


# the level rules b = 4*r0 - 1 of SL:3's one block of weight 4 that close:
# the table's L0 bundle has r0 = 1/2, and no row has 1/4 or 3/4
SL3_RULES = (Q(1, 4), Q(1, 2), Q(3, 4))


def _sl3_model(r0):
    return pair_model("SL3", [blk.w for blk in lookup_case("SL:3").blocks], r0)


def test_raising_keeps_the_level_order(so44, g2):
    # why `solve_gram` can walk the back path over level n in level order:
    # each level lists its highest weight first, and m' -> f m' sends the
    # monomials of level n-1, in order, to increasing positions of level n
    cases = [so44, g2] + [build_model("oscillator", n) for n in (1, 2, 3)]
    cases += [_sl3_model(r0) for r0 in SL3_RULES + (1,)]
    cases += [_family_model(cid, bm) for cid, bm in FAMILY if bm.valid]
    for model in cases:
        bases = [model.level_basis(n) for n in range(6)]
        # the highest weight puts each block's whole degree on its first variable
        assert [basis[0] for basis in bases] == [
            sum(((blk.degree(n),) + (0,) * (len(blk.names) - 1) for blk in model.blocks), ())
            for n in range(6)]
        for n in range(1, 6):
            number = dict(zip(bases[n], count()))
            for gen in model.generators:
                (f,) = gen.f.terms
                at = [number[tuple(map(add, m, f))] for m in bases[n - 1]]
                assert all(x < y for x, y in zip(at, at[1:])), (model.name, n, gen.name)


def test_family_valid_bundles_are_verified():
    # only valid => verified: SL:3 also closes with b = 0 and b = 2, level
    # rules that no row of the table has
    norms = {}
    for cid, bm in FAMILY:
        if not bm.valid:
            continue
        level = 4 if cid == "SO:4,4" else 5
        model = _family_model(cid, bm)
        rep = verify_brackets(model, level)
        assert rep.closed and rep.stable and rep.sl2_ok, (cid, bm.twist)
        assert rep.rank == len(model.algebra_ops)
        gram = solve_gram(model, level)
        assert gram.well_defined and gram.positive_definite, (cid, bm.twist)
        case = lookup_case(cid)
        norms[cid, bm.twist] = [model_hw_norm(model, n, gram) for n in range(level + 1)]
        assert norms[cid, bm.twist] == [ladder_norms(case, bm.r0, bm.a, bm.b, n)[1]
                                        for n in range(level + 1)], (cid, bm.twist)
    for cid in ("SO:3,3", "SL:4"):
        assert norms[cid, "L0"] != norms[cid, "f0L0"]


def test_family_invalid_bundle_does_not_close():
    (cid, bm), = [(cid, bm) for cid, bm in FAMILY if not bm.valid]
    rep = verify_brackets(_family_model(cid, bm), 3)
    assert (cid, bm.twist) == ("SL:3", "f0L0")
    assert not rep.closed and rep.rank == 8 and rep.failures


@pytest.mark.parametrize("r0, ab", zip(SL3_RULES, [(Q(1, 2), Q(3, 4)), (Q(3, 4), Q(5, 4)),
                                                 (Q(5, 4), Q(3, 2))]))
def test_sl3_level_rules_are_verified(r0, ab):
    # each SL:3 level rule that closes has a positive Gram whose hw norms
    # are the spectral ladder's at the (a, b) its vacuum profile gives
    case, model = lookup_case("SL:3"), _sl3_model(r0)
    rep = verify_brackets(model, 5)
    assert rep.closed and rep.stable and rep.sl2_ok
    gram = solve_gram(model, 5)
    assert gram.well_defined and gram.symmetric and gram.positive_definite and gram.adjoint_ok
    assert extract_ab(case, r0) == ab
    assert [model_hw_norm(model, n, gram) for n in range(6)] == [
        ladder_norms(case, r0, *ab, n)[1] for n in range(6)]


def test_sl3_level_rule_one_does_not_close():
    # r0 = 1 has a Gram, but its brackets leave the span and its vacuum
    # profile has no 0 to extract (a, b) from
    model = _sl3_model(1)
    rep = verify_brackets(model, 5)
    assert not rep.closed and ("A1", "A2") in rep.failures
    gram = solve_gram(model, 5)
    assert gram.well_defined and gram.positive_definite and gram.adjoint_ok
    with pytest.raises(ExtractionFailure, match="missing 0 ") as err:
        extract_ab(lookup_case("SL:3"), 1)
    assert err.value.missing == 0


def _extraction_r0(case, grid):
    """The r0 of `grid` where `extract_ab` succeeds with a, b > 0."""
    out = []
    for r0 in grid:
        try:
            a, b = extract_ab(case, r0)
        except ExtractionFailure:
            continue
        if a > 0 and b > 0:
            out.append(r0)
    return out


def test_level_rules_are_classified_on_both_sides():
    # every level rule of each q = 1 weight set, over r0 = k/24 up to 4.
    # The pair model's rules have every w*r0 - 1 a non-negative integer and
    # some b_p < w_p, so that lowering kills level 0; all but SL:3's r0 = 1
    # verify at L=5 with hw norms equal to each row's ladder at its own
    # `extract_ab`.  The spectral side extracts (a, b) at more r0 than the
    # model has rules, and the table is valid at fewer
    rows: dict = {}
    for cid in dict.fromkeys(cid for cid, _ in FAMILY):
        rows.setdefault(tuple(blk.w for blk in lookup_case(cid).blocks), []).append(cid)
    assert rows == {(3, 1): ["G2:2"], (2, 2): ["SO:3,3", "SL:4"], (2, 1, 1): ["SO:3,4"],
                    (1, 1, 1, 1): ["SO:4,4"], (4,): ["SL:3"]}
    grid = [Q(k, 24) for k in range(1, 97)]
    rules, spectral, valid = {}, {}, {}
    for ws, cids in rows.items():
        rules[ws] = [r0 for r0 in grid
                     if all(w * r0 >= 1 and (w * r0).denominator == 1 for w in ws)
                     and any(w * r0 - 1 < w for w in ws)]
        for r0 in rules[ws]:
            model = pair_model(f"{ws} {r0}", ws, r0)
            rep, gram = verify_brackets(model, 5), solve_gram(model, 5)
            closes = (ws, r0) != ((4,), 1)
            assert (rep.closed, rep.stable, rep.sl2_ok) == (closes,) * 3, (ws, r0)
            assert gram.well_defined and gram.symmetric, (ws, r0)
            assert gram.positive_definite and gram.adjoint_ok, (ws, r0)
            if not closes:
                continue
            hw = [model_hw_norm(model, n, gram) for n in range(6)]
            for cid in cids:
                case = lookup_case(cid)
                assert hw == [ladder_norms(case, r0, *extract_ab(case, r0), n)[1]
                              for n in range(6)], (cid, r0)
        for cid in cids:
            case = lookup_case(cid)
            spectral[cid] = _extraction_r0(case, grid)
            valid[cid] = [bm.r0 for bm in bundles.classify_bundles(case) if bm.valid]
    assert rules == {(3, 1): [1], (2, 2): [Q(1, 2), 1], (2, 1, 1): [1], (1, 1, 1, 1): [1],
                     (4,): [Q(1, 4), Q(1, 2), Q(3, 4), 1]}
    assert spectral == {"G2:2": [Q(1, 3), Q(2, 3), 1], "SO:3,3": [Q(1, 2), 1],
                        "SL:4": [Q(1, 2), 1], "SO:3,4": [Q(1, 2), 1], "SO:4,4": [1],
                        "SL:3": [Q(1, 4), Q(1, 2), Q(3, 4)]}
    assert valid == {"G2:2": [1], "SO:3,3": [Q(1, 2), 1], "SL:4": [Q(1, 2), 1],
                     "SO:3,4": [1], "SO:4,4": [1], "SL:3": [Q(1, 2)]}
    # an integral rule with every b_p >= w_p closes too, but its lowerings
    # leave level 0 not killed, so the level contract refuses its Gram
    model = pair_model("g2", (3, 1), 2)
    rep, gram = verify_brackets(model, 5), solve_gram(model, 5)
    assert rep.closed and rep.stable and rep.sl2_ok and not gram.grams
    assert gram.failures[0] == ("lowering x11: path shift (-3, 0, -1, 0) maps level 0 into"
                                " level -1, which is not empty")


def _recursion(model, level):
    """The recursion's report on levels 0..level, given the bases and the
    solved level-0 Gram as `solve_gram`'s preamble gives them."""
    bases = [model.level_basis(n) for n in range(level + 1)]
    return models._gram_recursion(model, bases, models._level0_gram(model, bases[0]))


def _fischer_multiples(rep):
    """c_n per level, asserting that each Gram G_n is c_n times the
    Fischer form <x^a, x^b> = a! delta_ab; c_n is read at the level's
    first monomial, its highest weight."""
    out = []
    for basis, gram in zip(rep.bases, rep.grams):
        c = gram[0, 0] / prod(map(factorial, basis[0]))
        assert gram == {(i, i): c * prod(map(factorial, m)) for i, m in enumerate(basis)}
        out.append(c)
    return out


@pytest.mark.parametrize("name, ws, r0", [("so44", *PAIR_MODELS["so44"]),
                                          ("g2", *PAIR_MODELS["g2"])]
                         + [("SL3", (4,), r0) for r0 in SL3_RULES])
def test_gram_is_c_n_times_the_fischer_form(name, ws, r0):
    # G_n = c_n F_n with c_n/c_(n-1) = s/((n + r0 - 1)(n + r0)), s = prod
    # w^(-w); so every raising operator, on a level-n monomial v, has
    # |f v|^2 < (n + r0 + 1)^2 |v|^2, the growth bound under which the
    # representation exponentiates.  Read on the recursion: `solve_gram`
    # now builds these Grams from this formula
    model = pair_model(name, ws, r0)
    rep = _recursion(model, 5)
    c = _fischer_multiples(rep)
    s = Q(1, prod(w ** w for w in ws))
    assert [c[n] / c[n - 1] for n in range(1, 6)] == [
        s / ((n + r0 - 1) * (n + r0)) for n in range(1, 6)]
    if name == "so44":
        assert [c[n] / c[n - 1] for n in range(1, 4)] == [Q(1, 2), Q(1, 6), Q(1, 12)]
    if name == "g2":
        assert [c[n] / c[n - 1] for n in range(1, 3)] == [Q(1, 54), Q(1, 162)]
    # each Gram is diagonal, so |f v|^2 is the diagonal entry at f v
    growth = []
    for n in range(5):
        number, worst = dict(zip(rep.bases[n + 1], count())), 0
        for gen in model.generators:
            (f,) = gen.f.terms
            for i, v in enumerate(rep.bases[n]):
                j = number[tuple(map(add, v, f))]
                worst = max(worst, rep.grams[n + 1][j, j] / rep.grams[n][i, i])
        growth.append(worst / (n + r0 + 1) ** 2)
    assert all(g < 1 for g in growth), growth
    if name == "so44":
        assert growth == [Q(n + 1, n + 2) ** 3 for n in range(5)]


def test_fischer_multiple_catches_scaled_lowerings(g2):
    # every lowering scaled by 9/8 keeps the Gram positive and adjoint,
    # and c_1/c_0 reads 1/48 where the rule gives 1/54
    model = _lowering_surgery(g2, lambda v, c, fs: (v, Q(9, 8) * c, fs))
    rep = _recursion(model, 2)
    assert rep.well_defined and rep.positive_definite and rep.adjoint_ok
    mutant, c = _fischer_multiples(rep), _fischer_multiples(_recursion(g2, 2))
    assert (mutant[1] / mutant[0], c[1] / c[0]) == (Q(1, 48), Q(1, 54))


@pytest.fixture
def gram_compiles(monkeypatch):
    """Every `compile_ops` call as (operators, sources), every
    `_gram_recursion` call as its model's name, and every
    `_positive_definite` call as the size of the Gram it certifies."""
    calls, recursions, certifications = [], [], []
    recursion, positive_definite = models._gram_recursion, models._positive_definite

    def spy(ops, monos):
        calls.append((list(ops), list(monos)))
        return compile_ops(*calls[-1])

    def spy_recursion(model, bases, g0):
        recursions.append(model.name)
        return recursion(model, bases, g0)

    def spy_certificate(n, basis, gram, *args):
        certifications.append(len(gram))
        return positive_definite(n, basis, gram, *args)

    monkeypatch.setattr(models, "compile_ops", spy)
    monkeypatch.setattr(models, "_gram_recursion", spy_recursion)
    monkeypatch.setattr(models, "_positive_definite", spy_certificate)
    return calls, recursions, certifications


def _fischer_route(gram_compiles, model, level):
    """solve_gram(model, level), asserting that it took the Fischer route:
    it compiled only the compact operators, on level 0, no lowering, and
    certified no Gram by elimination."""
    calls, recursions, certifications = gram_compiles
    for spied in gram_compiles:
        spied.clear()
    rep = solve_gram(model, level)
    assert calls == [([op for _, op, _ in model.compact_ops], model.level_basis(0))], model.name
    assert recursions == [] and certifications == []
    return rep


@pytest.mark.parametrize("name, n, level", [("so44", 1, 4), ("g2", 1, 6), ("oscillator", 1, 8),
                                            ("oscillator", 2, 8), ("oscillator", 3, 8)])
def test_shipped_models_take_the_fischer_route(gram_compiles, name, n, level):
    # a silent fall-back to the recursion would compile every lowering, and
    # one to the per-level elimination would call _positive_definite
    rep = _fischer_route(gram_compiles, build_model(name, n), level)
    assert rep.well_defined and rep.symmetric and rep.positive_definite and rep.adjoint_ok


def _each_lowering(model, wrap):
    """The model with each generator's lowering L replaced by wrap(L)."""
    return model._replace(generators=tuple(g._replace(lower=wrap(g.lower))
                                           for g in model.generators))


def test_fischer_route_matches_the_recursion(gram_compiles, so44, g2):
    # whole reports, each taken by the route.  g2's two surgery mutants
    # keep every hypothesis with another kappa, (3 - E) times every
    # lowering vanishes first on level 3, above the level checked, and
    # E - 5/2 times every lowering gives kappa(1) < 0, so the route reads
    # the first pivot of level 1 as not positive.  The recursion certifies
    # every level up to and including the first that is not
    # positive-definite
    _, _, certifications = gram_compiles
    cases = [(so44, 5), (g2, 6)] + [(_sl3_model(r0), 5) for r0 in SL3_RULES]
    cases += [(build_model("oscillator", n), 6) for n in (1, 2, 3)]
    cases += [(_lowering_surgery(g2, lambda v, c, fs: (v, Q(9, 8) * c, fs)), 4),
              (_lowering_surgery(g2, _divisor_shifted), 4),
              (_each_lowering(g2, lambda low: grade_scale(g2.ctx, "energy", 3, -1) @ low), 2),
              (_each_lowering(g2, lambda low: grade_scale(g2.ctx, "energy", Q(-5, 2), 1) @ low), 4)]
    for model, level in cases:
        rep = _fischer_route(gram_compiles, model, level)
        assert _recursion(model, level) == rep, model.name
        assert certifications == [len(basis) for basis in rep.bases[:len(rep.pivots)]]
    # the last case, E - 5/2 times every lowering
    assert not rep.positive_definite and [len(p) for p in rep.pivots] == [3, 1]
    assert rep.failures == ["level 1: pivot -5/3 at (5, 0, 1, 0) is not positive"]


def _broken_hypotheses():
    """(model, level) per hypothesis of `solve_gram`'s lemma that fails."""
    g2, so44 = build_model("g2"), build_model("so44")
    osc1, osc2 = build_model("oscillator", 1), build_model("oscillator", 2)
    osc2.ctx.add_grading("first", [1, 0], 0)
    low, (z1, z2) = g2.generators[0].lower, osc2.generators
    return {
        # g2's first lowering plus an eighth of itself: its first path alone
        # is g2's
        "second path": (_with_generator(g2, 0, lower=low + Q(1, 8) * low), 3),
        # z d^2: the back path's word is z z, not z
        "word": (_with_generator(osc1, 0, lower=mul(var(osc1.ctx, "z1"))
                                 @ deriv(osc1.ctx, ("z1", "z1"))), 3),
        # e1 d1 and e1 d2, e1 read at the source: one kappa at the highest
        # weight, but e1 varies on the block
        "grade": (osc2._replace(generators=(
            z1._replace(lower=grade_scale(osc2.ctx, "first", 1, 1) @ z1.lower),
            z2._replace(lower=grade_scale(osc2.ctx, "first", 0, 1) @ z2.lower))), 3),
        "kappa": (_with_generator(so44, 1, lower=2 * so44.generators[1].lower), 2),
        "subset": (so44._replace(generators=so44.generators[:1]), 1),
        # (3 - E) times every lowering: kappa(3) = 0
        "vanishes": (_each_lowering(g2, lambda low: grade_scale(g2.ctx, "energy", 3, -1)
                                    @ low), 3),
        # 1/(E - 3) after every lowering, singular on level 3
        "singular": (_each_lowering(g2, lambda low: grade_divide(g2.ctx, "energy", -3, 1)
                                    @ low), 4)}


def test_solve_gram_runs_its_preamble_once(gram_compiles, monkeypatch):
    # the contract check and the level-0 solve serve both routes, so a
    # model that falls back to the recursion runs each once
    _, recursions, _ = gram_compiles
    model, level = _broken_hypotheses()["kappa"]
    counts = Counter()
    for name in ("degree_contract_failures", "_level0_gram"):
        def spy(*args, f=getattr(models, name), name=name):
            counts[name] += 1
            return f(*args)
        monkeypatch.setattr(models, name, spy)
    solve_gram(model, level)
    assert recursions == ["so44"]
    assert counts == {"degree_contract_failures": 1, "_level0_gram": 1}


def test_broken_hypotheses_reach_the_recursion(gram_compiles, monkeypatch):
    # each keeps the recursion's verdict: flags, first failure and pivot
    # counts, or its SingularGradeError
    _, recursions, _ = gram_compiles
    cases = _broken_hypotheses()
    with pytest.raises(SingularGradeError) as err:
        solve_gram(*cases.pop("singular"))
    assert (err.value.monomial, err.value.grade) == ((8, 0, 2, 0), 3)
    assert recursions == ["g2"]
    flags, verdicts = {}, {}

    def run(name, model, level):
        recursions.clear()
        rep = solve_gram(model, level)
        assert recursions == [model.name], name
        flags[name] = (rep.well_defined, rep.symmetric, rep.positive_definite, rep.adjoint_ok)
        verdicts[name] = (len(rep.failures), rep.failures[:1], [len(p) for p in rep.pivots])

    for name, (model, level) in cases.items():
        run(name, model, level)
    # a level-0 Gram that is not c_0 F_0: the identity on g2's level 0
    monkeypatch.setattr(models, "_level0_gram", lambda model, basis: [{0: 1}, {1: 1}, {2: 1}])
    run("level 0", build_model("g2"), 2)
    # well_defined, symmetric, positive_definite, adjoint_ok
    assert flags == {"second path": (False, True, True, False), "word": (True, True, False, True),
                     "grade": (False, True, False, False), "kappa": (False, True, True, False),
                     "subset": (False, True, False, True), "vanishes": (True, True, False, True),
                     "level 0": (False, True, True, False)}
    assert verdicts == {
        "second path": (14, ["level 1: adjointness fails for x21 at (2, 0, 0, 0):"
                             " row of (4, 1, 1, 0) disagrees"], [3, 12, 27, 48]),
        "word": (1, ["level 1: pivot 0 at (1,) is not positive"], [1, 1]),
        "grade": (3, ["level 2: adjointness fails for z2 at (1, 0): row of (1, 1) disagrees"],
                  [1, 2]),
        "kappa": (14, ["level 2: adjointness fails for x1112 at (1, 0, 1, 0, 0, 1, 1, 0):"
                       " row of (2, 0, 2, 0, 1, 1, 1, 1) disagrees"], [1, 16, 81]),
        "subset": (16, ["level 1: no factorization of (1, 0, 1, 0, 1, 0, 0, 1)"], [1, 2]),
        "vanishes": (1, ["level 3: pivot 0 at (11, 0, 3, 0) is not positive"], [3, 12, 27, 1]),
        "level 0": (8, ["level 1: adjointness fails for x21 at (2, 0, 0, 0):"
                        " row of (4, 1, 1, 0) disagrees"], [3, 12, 27])}


def test_route_reads_block_degrees_and_one_tail(gram_compiles):
    # the route reads the derivative steps off `block_degrees`, not off one
    # word, and takes one tail of coefficient and grade factors for every
    # lowering, not kappa values that agree on levels 1..L; each report
    # equals the recursion's
    _, recursions, _ = gram_compiles
    g2, osc2 = build_model("g2"), build_model("oscillator", 2)
    ctx, x11 = g2.ctx, g2.generators[0]
    recip = grade_divide(ctx, "energy", 1, 1) @ grade_divide(ctx, "energy", 0, 1)
    split = deriv(ctx, ("x1_1",)) @ deriv(ctx, ("x1_1", "x1_1")) @ deriv(ctx, ("x2_1",))
    model = _with_generator(g2, 0, lower=Q(1, 27) * (recip @ split))
    (_, _, factors), = model.generators[0].lower.paths
    assert [f[0] for f in factors] == [opcalc.DERIV] * 3 + [opcalc.GRADE] * 2
    rep = _fischer_route(gram_compiles, model, 5)
    assert rep == _recursion(g2, 5) == _recursion(model, 5)
    # E x11's lowering: kappa' = n kappa, equal to the rest on level 1 alone
    osc2.ctx.add_grading("first", [1, 0], 0)
    z1 = osc2.generators[0]
    for model, level in [(_with_generator(g2, 0, lower=grade_scale(ctx, "energy", 0, 1)
                                          @ x11.lower), 1),
                         # z1's lowering over 1 + e1, which varies on the block
                         (_with_generator(osc2, 0, lower=grade_divide(osc2.ctx, "first", 1, 1)
                                          @ z1.lower), 3)]:
        recursions.clear()
        rep = solve_gram(model, level)
        assert recursions == [model.name] and rep == _recursion(model, level)
    assert block_degrees([g.lower for g in model.generators], [range(2)]) is None
    # every lowering divided by E - 1 before its derivative steps: on level
    # 1..L that is kappa/n, but on level 0 the divisor is read live and
    # vanishes, so the recursion raises
    recursions.clear()
    with pytest.raises(SingularGradeError) as err:
        solve_gram(_each_lowering(g2, lambda low: low @ grade_divide(ctx, "energy", -1, 1)), 2)
    assert (err.value.monomial, err.value.grade, recursions) == ((2, 0, 0, 0), 1, ["g2"])


def test_pair_model_needs_integral_level_rule():
    with pytest.raises(ValueError, match="block 1: w\\*r0 - 1 = -1/2"):
        pair_model("bad", (1,), Q(1, 2))
    with pytest.raises(ValueError, match="block 2: w\\*r0 - 1 = 1/2"):
        pair_model("bad", (2, 3), Q(1, 2))


def _lowering_surgery(model, change, names=None):
    """The model with each lowering path, one that divides by a grade, of
    the operators `names` names (of all, the sl2 triple included, where
    None) replaced by change(shift, coefficient, factors)."""
    def edit(name, op):
        if names is not None and name not in names:
            return op
        return opcalc.Op(op.ctx, tuple(
            change(*path) if any(f[0] == opcalc.GRADE and f[4] for f in path[2]) else path
            for path in op.paths))
    return model._replace(
        generators=tuple(gen._replace(lower=edit(gen.name, gen.lower)) for gen in model.generators),
        algebra_ops=tuple((name, edit(name, op)) for name, op in model.algebra_ops),
        sl2=tuple(edit(None, op) for op in model.sl2))


def _divisor_shifted(shift, c, factors):
    """The path with each grade divisor (A.e + B)/Q read one higher, as
    (A.e + B + Q)/Q: E(E+1) becomes (E+1)(E+2)."""
    return shift, c, tuple((*f[:2], f[2] + f[3], *f[3:]) if f[0] == opcalc.GRADE and f[4] else f
                           for f in factors)


def test_singular_divisor_past_the_sample_raises_with_the_symmetry(monkeypatch, so44):
    # every divisor E(E+1) read as (E-6)(E-5): it vanishes first where a
    # lowering lands on level 4, E = 5, which at L = 4 only the level-5
    # images of the sample are lowered to.  The mutant keeps so44's
    # symmetry, so closure compiles values past the sample for the least
    # pairs' operators alone; the divisor check runs on every operator all
    # the same, and the error is that of the compile with every operator
    def shifted(shift, c, factors):
        return shift, c, tuple((*f[:2], f[2] - 6 * f[3], *f[3:])
                               if f[0] == opcalc.GRADE and f[4] else f for f in factors)

    model = _lowering_surgery(so44, shifted)
    assert list(_kept_swaps(model)) == list(_kept_swaps(so44))
    errors = []
    for _ in range(2):
        with pytest.raises(SingularGradeError) as err:
            verify_brackets(model, 4)
        errors.append((err.value.monomial, err.value.grade))
        monkeypatch.setattr(models, "automorphisms", lambda ops, perms: {})
    assert errors[0] == errors[1]
    (mono, grade), _ = errors
    assert grade == 5 and [sum(mono[k:k + 2]) for k in range(0, 8, 2)] == [4] * 4


def test_g2_mutant_table(g2):
    # Each verdict on g2 and on four mutants of it, built by surgery on
    # the lowering paths or by the level rule: E(E+1) read as (E+1)(E+2)
    # in every lowering, every lowering scaled by 9/8, the sign of A21's
    # lowering half flipped, and r0 = 2.  Closure at L=5, the Gram at L=4;
    # `hw` is whether the hw norms are the G2:2 L0 bundle's
    # `ladder_norms`, None where there is no Gram.  `stable` is False
    # wherever closure fails
    mutants = {
        "g2": g2,
        "divisor (E+1)(E+2)": _lowering_surgery(g2, _divisor_shifted),
        "every lowering x9/8": _lowering_surgery(g2, lambda v, c, fs: (v, Q(9, 8) * c, fs)),
        "one mixed cubic's sign": _lowering_surgery(g2, lambda v, c, fs: (v, -c, fs), {"A21"}),
        "r0 = 2": pair_model("g2", (3, 1), 2),
    }
    case = lookup_case("G2:2")
    ladder = [ladder_norms(case, 1, *extract_ab(case, 1), n)[1] for n in range(5)]
    table = {}
    for name, model in mutants.items():
        closure, gram = verify_brackets(model, 5), solve_gram(model, 4)
        hw = [model_hw_norm(model, n, gram) for n in range(5)] == ladder if gram.grams else None
        table[name] = (closure.closed, closure.stable, closure.sl2_ok, gram.well_defined,
                       gram.positive_definite, gram.adjoint_ok, hw)
    # closed, stable, sl2_ok, well_defined, positive_definite, adjoint_ok, hw
    assert table == {
        "g2":                     (True, True, True, True, True, True, True),
        "divisor (E+1)(E+2)":     (False, False, False, True, True, True, False),
        "every lowering x9/8":    (True, True, False, True, True, True, False),
        "one mixed cubic's sign": (False, False, True, True, True, True, True),
        "r0 = 2":                 (True, True, True, False, False, False, None),
    }
    assert len(set(table.values())) == len(table)  # no two rows fail the same verdicts
    # only the Gram catches r0 = 2: the level contract refuses its level
    # rule, which leaves level 0 not killed by the lowerings
    failures = solve_gram(mutants["r0 = 2"], 4).failures
    assert len(failures) == len(g2.generators)
    assert all("maps level 0 into level -1, which is not empty" in f for f in failures)


def _reference_brackets(model, max_level):
    """`verify_brackets` with no sample: every source of levels
    0..max_level compiled, `span_structure` over all of them, and
    [e, ebar] = h checked on every source below max_level."""
    ops = [op for _, op in model.algebra_ops]
    bases = [model.level_basis(n) for n in range(max_level + 1)]
    table, cols = compile_ops(ops + list(model.sl2), chain.from_iterable(bases))
    d = cols[0].shifts.d
    cols, (e, ebar, h) = cols[:len(ops)], cols[len(ops):]
    stop = sum(map(len, bases))
    small = stop - len(bases[-1])
    rep = span_structure(cols, range(small), stop)
    names = [name for name, _ in model.algebra_ops]
    return models.BracketReport(
        rep.rank, rep.closed, rep.independent, rep.closed and not rep.unstable,
        not _residual((e, ebar, h), (0, 1), {2: d}, range(small)),
        {pair: {k: Q(c, d) for k, c in sorted(combo.items())}
         for pair, combo in rep.structure_constants.items()},
        [(names[i], names[j]) for i, j in rep.failures],
        [(names[i], names[j], table[m]) for (i, j), m in rep.unstable])


@pytest.fixture
def compiles(monkeypatch):
    """Every `compile_ops` call of `verify_brackets` as (sources, numbered
    monomials, the numbers of the operators with values past the
    sources)."""
    calls = []

    def spy(ops, monos, reach=None):
        monos = list(monos)
        table, cols = compile_ops(ops, monos, reach)
        calls.append((monos, table, {k for k, col in enumerate(cols) if col.full}))
        return table, cols

    monkeypatch.setattr(models, "compile_ops", spy)
    return calls


def _fails_on(model, pair, combo, mono):
    """Whether [A_i, A_j] = sum_k combo[k] A_k fails on `mono`, for pair =
    (i, j), from a compile of that one monomial."""
    _, cols = compile_ops([op for _, op in model.algebra_ops], [mono])
    d = cols[0].shifts.d
    return bool(_residual(cols, pair, {k: c * d for k, c in combo.items()}, range(1)))


@pytest.fixture
def sampled(compiles):
    """`verify_brackets` checked against `_reference_brackets`: (sample
    size, sources, report) per call, the sample size read off the
    `compile_ops` call that decides the report, its last, where every
    operator has values past the sources unless it is its first.  Every
    field but the unstable pairs' witnesses equals the reference's; each
    witness is a sampled level-L monomial where the pair's reported
    constants fail."""

    def check(model, level):
        compiles.clear()
        rep = verify_brackets(model, level)
        ref = _reference_brackets(model, level)
        assert len(compiles) in (1, 2)
        sources, _, full = compiles[-1]
        assert len(compiles) == 1 or len(full) == len(model.algebra_ops) + 3
        assert repr(rep[:-1]) == repr(ref[:-1])
        assert [w[:2] for w in rep.unstable] == [w[:2] for w in ref.unstable]
        names = [name for name, _ in model.algebra_ops]
        for a, b, mono in rep.unstable:
            pair = names.index(a), names.index(b)
            assert mono in sources and mono in model.level_basis(level)
            assert _fails_on(model, pair, rep.structure_constants[pair], mono)
        return (len(sources), sum(len(model.level_basis(n)) for n in range(level + 1)), rep)

    return check


def test_sampled_check_matches_full_check(sampled, so44, g2):
    # the SO:4,4 bundle at level 3 is so44 at level 3
    cases = [(so44, 4), (g2, 4), (g2, 6)]
    cases += [(build_model("oscillator", n), 8) for n in (1, 2, 3)]
    cases += [(_family_model(cid, bm), 3) for cid, bm in FAMILY]
    cases += [(_unstable_oscillator(level), level) for level in (3, 4)]
    # x1_1^k d^k raises block 1's degree bound to 2k; these fail at
    # different pairs or are unstable, so the witnesses are searched for
    x = var(so44.ctx, "x1_1")
    cases += [(_with_first_algebra(so44, mul(x ** k) @ deriv(so44.ctx, ("x1_1",) * k)), level)
              for k in range(2, 6) for level in (3, 4)]
    got = [sampled(model, level) for model, level in cases]
    # so44 at level 4: three values of e_p1 per block on each level >= 2
    assert got[0][:2] == (260, 979)
    assert sum(bool(rep.failures) for *_, rep in got) == 6
    # the sample keeps e_p1 <= 2 in so44's blocks 2-4, whose degree bound
    # the mutants leave at 1, so their witnesses are not the highest weights
    assert {m for *_, rep in got for *_, m in rep.unstable} == {
        (3,), (4,), (3, 0, 2, 1, 2, 1, 2, 1), (4, 0, 2, 2, 2, 2, 2, 2)}


def test_sample_degree_bounds(sampled, so44, g2):
    # D_p is twice these per-block bounds: (2, 2, 2, 2), (6, 2) and (4,)
    pairs = [range(k, k + 2) for k in range(0, 8, 2)]
    for model, blocks, delta in [(so44, pairs, [1, 1, 1, 1]), (g2, pairs[:2], [3, 1])] + [
            (build_model("oscillator", n), [range(n)], [2]) for n in (1, 2, 3)]:
        ops = [op for _, op in model.algebra_ops] + list(model.sl2)
        assert block_degrees(ops, blocks) == delta
    sample = models._sample(so44, 4, [op for _, op in so44.algebra_ops])
    # a level-n monomial of so44 has degree n in each block
    assert Counter(sum(m[:2]) for level in sample for m in level) == {
        0: 1, 1: 16, 2: 81, 3: 81, 4: 81}
    # a divisor that varies within a level makes every level its own sample
    osc = build_model("oscillator", 2)
    osc.ctx.add_grading("first", [1, 0], 1)
    varying = _with_first_algebra(osc, grade_divide(osc.ctx, "first", 1, 1))
    assert sampled(osc, 8)[:2] == (35, 45)
    size, total, rep = sampled(varying, 8)
    assert not rep.closed and (size, total) == (45, 45)
    # a grade multiplier that varies within a level counts 1 in the block it
    # reads: the `first` grade e_1 + 1 after d^2/dz1^2 has degree 3, so
    # D = 6 and the sample keeps 7 values of e_1 per level, not the 5 that
    # degree 2 would
    graded = _with_first_algebra(osc, grade_scale(osc.ctx, "first", 0, 1)
                                 @ deriv(osc.ctx, ("z1", "z1")))
    ops = [op for _, op in graded.algebra_ops] + list(graded.sl2)
    assert block_degrees(ops, [range(2)]) == [3]
    size, total, rep = sampled(graded, 8)
    assert (size, total) == (42, 45)
    assert not rep.closed and len(rep.failures) == 9 and rep.rank == 10


def test_compile_only_the_sample(compiles, so44):
    # one compile, of the sample and what it reaches, where the full check
    # numbers 2,275 monomials for 979 sources.  Values past the sample are
    # computed only for the operators of the 12 least pairs of so44's
    # orbits and for e = A1111 and ebar = A2222, one object each with an
    # algebra operator
    verify_brackets(so44, 4)
    assert [(len(monos), len(table)) for monos, table, _ in compiles] == [(260, 866)]
    names = [name for name, _ in so44.algebra_ops] + ["e", "ebar", "h"]
    assert {names[k] for k in compiles[0][2]} == {
        "E1", "F1", "H1", "E2", "H2", "A1111", "A1112", "A1122", "A1222", "A2111", "A2222",
        "e", "ebar"}
    # an unstable pair's witness is read off that compile's sources
    compiles.clear()
    rep = verify_brackets(_unstable_oscillator(3), 3)
    assert rep.unstable and len(compiles) == 1


def test_closure_recompiles_where_a_least_pair_does_not_close_stably(compiles, so44):
    # so44 without E1 fails at a least pair, the x1_1^k d^k mutants fail or
    # are unstable at one, and osc3 and osc4 at level 2 are dependent: each
    # compiles values past the sample first for the least pairs' operators
    # alone (osc3's 44 least pairs compose 19 of its 21 operators, osc4's
    # 50 22 of 36), then for every operator, and the second compile decides
    # the report
    x = var(so44.ctx, "x1_1")
    cases = [(so44._replace(algebra_ops=so44.algebra_ops[1:]), 4)]
    cases += [(_with_first_algebra(so44, mul(x ** k) @ deriv(so44.ctx, ("x1_1",) * k)), level)
              for k, level in [(2, 3), (3, 3), (4, 3), (5, 4)]]
    cases += [(build_model("oscillator", n), 2) for n in (3, 4)]
    for model, level in cases:
        compiles.clear()
        rep = verify_brackets(model, level)
        assert not (rep.closed and rep.stable and rep.independent)
        every = len(model.algebra_ops) + 3
        assert [len(full) < every for *_, full in compiles] == [True, False]
        assert compiles[0][:2] == compiles[1][:2]  # the same sources and numbering
    # where the least pairs compose every operator, as in g2, osc1 and
    # osc2, the one compile has values past the sample for all and e, ebar,
    # not h, which no bracket reads, and osc2 at level 2, dependent, is
    # decided by it
    for model, level in [(build_model("g2"), 4)] + [
            (build_model("oscillator", n), level) for n in (1, 2) for level in (2, 4)]:
        compiles.clear()
        assert verify_brackets(model, level).closed
        assert [len(full) for *_, full in compiles] == [len(model.algebra_ops) + 2]


def test_closure_compiles_index_the_final_numbering(compiles, monkeypatch, so44, g2):
    # for every source m and every shift s of each compile of closure,
    # idx[s][m] is the number of m + vecs[s] in the compile's table, None
    # where it has none, also where m + vecs[s] is an image numbered after
    # the sources: so44 at level 4 (one compile, with a reach), g2 at
    # level 6, and osc3 at level 2 (dependent: two compiles)
    registries = []
    spy = models.compile_ops

    def kept(ops, monos, reach=None):
        table, cols = spy(ops, monos, reach)
        registries.append(({vec for op in ops for vec, _, _ in op.paths}, cols[0].shifts))
        return table, cols

    monkeypatch.setattr(models, "compile_ops", kept)
    for model, level, calls in [(so44, 4, 1), (g2, 6, 1), (build_model("oscillator", 3), 2, 2)]:
        compiles.clear()
        registries.clear()
        verify_brackets(model, level)
        assert len(compiles) == len(registries) == calls
        for (monos, table, _), (paths, shifts) in zip(compiles, registries):
            number = dict(zip(table, count()))
            vecs = shifts.vecs[:len(shifts.idx)]  # `bracket` registers the rest
            assert set(vecs) == paths
            assert shifts.idx == [[number.get(tuple(map(add, m, vec))) for m in monos]
                                  for vec in vecs]
            assert any(k >= len(monos) for ix in shifts.idx for k in ix if k is not None)


def _residual_per_pair(cols, basis, stop, orbits):
    """`span_structure` as one `_residual` per pair: the prefix solve, then
    sum_k c_k op_k rebuilt and subtracted for every pair over every later
    source, the first nonzero source deciding.  The orbits are not used:
    every pair is checked, so it returns None, for a compile with values
    past the sources for every operator, where some operator has none."""
    if not all(col.full for col in cols):
        return None
    lo, hi, size = basis.start, basis.stop, 8
    while True:
        prefix, span = range(lo, min(lo + size, hi)), Reducer()
        for k, col in enumerate(cols):
            span.add(k, _stacked({s: v[prefix.start:prefix.stop] for s, v in col.items()}, lo))
        if span.rank == len(cols) or prefix.stop == hi:
            break
        size *= 2
    sc, failures, unstable = {}, [], []
    for i, j in combinations(range(len(cols)), 2):
        check = range(prefix.stop, hi if failures else stop)
        combo = span.solve(_stacked(bracket(cols[i], cols[j], prefix), lo))
        res = () if combo is None else _residual(cols, (i, j), combo, check).values()
        first = min((check[next(p for p, x in enumerate(v) if x)] for v in res), default=stop)
        if combo is None or first < hi:
            failures.append((i, j))
        else:
            sc[(i, j)] = combo
            if first < stop:
                unstable.append(((i, j), first))
    return SpanReport(span.rank, not failures, span.rank == len(cols), sc, failures,
                      [] if failures else unstable)


def test_closure_matches_residual_per_pair(monkeypatch, so44):
    # failures and unstable witnesses as the residual of every pair finds
    # them: an unstable oscillator, so44 without E1, and so44 with
    # x1_1^k d^k added to E1, which fail at many pairs
    x = var(so44.ctx, "x1_1")
    cases = [(_unstable_oscillator(3), 3), (so44._replace(algebra_ops=so44.algebra_ops[1:]), 4)]
    cases += [(_with_first_algebra(so44, mul(x ** k) @ deriv(so44.ctx, ("x1_1",) * k)), level)
              for k in (2, 3) for level in (3, 4)]
    got = [verify_brackets(model, level) for model, level in cases]
    monkeypatch.setattr(models, "span_structure", _residual_per_pair)
    want = [verify_brackets(model, level) for model, level in cases]
    assert [repr(rep) for rep in got] == [repr(rep) for rep in want]
    assert got[0].unstable == [("z1d1", "z1z1", (3,))]
    assert [len(rep.failures) for rep in got[1:]] == [4, 22, 22, 8, 22]


def _kept_swaps(model):
    """The signed variable permutations of `model` that map its algebra
    operators onto themselves up to sign, as `verify_brackets` keeps them."""
    ops = [op for _, op in model.algebra_ops]
    return opcalc.automorphisms(ops, models._variable_swaps(model))


def test_energy_is_constant_on_each_level(so44, g2):
    # E = (1/P) sum_p (degree_p + 1)/w_p takes the one value n + r0 on
    # level n, every block counted alike, for every pair model
    cases = [(so44, PAIR_MODELS["so44"][1]), (g2, PAIR_MODELS["g2"][1])]
    cases += [(_family_model(cid, bm), bm.r0) for cid, bm in FAMILY if bm.valid]
    assert len(cases) == 10
    for model, r0 in cases:
        weights = model.ctx.gradings["energy"].weights
        assert all(len({weights[i] for i in r}) == 1 for r in models._ranges(model.blocks))
        for n in range(5):
            assert {model.ctx.grade_of(m, "energy") for m in model.level_basis(n)} == {n + r0}, \
                (model.name, n)


def test_kept_variable_swaps(so44, g2):
    # so44 keeps all seven offers: the rotation (x_p1, x_p2) -> (x_p2, -x_p1)
    # of each block, which sends E_p to -F_p and H_p to -H_p, and the swap
    # of each block with the next, which the energy divisor weighs alike
    assert len(models._variable_swaps(so44)) == 7
    kept = _kept_swaps(so44)
    assert list(kept) == [((1, 0, 2, 3, 4, 5, 6, 7), (1,)), ((0, 1, 3, 2, 4, 5, 6, 7), (3,)),
                          ((0, 1, 2, 3, 5, 4, 6, 7), (5,)), ((0, 1, 2, 3, 4, 5, 7, 6), (7,)),
                          ((2, 3, 0, 1, 4, 5, 6, 7), ()), ((0, 1, 4, 5, 2, 3, 6, 7), ()),
                          ((0, 1, 2, 3, 6, 7, 4, 5), ())]
    names = [name for name, _ in so44.algebra_ops]

    def moves(key):
        image, signs = kept[key]
        return {names[k]: (names[v], s) for k, (v, s) in enumerate(zip(image, signs))
                if (v, s) != (k, 1)}

    swap = moves(((0, 1, 4, 5, 2, 3, 6, 7), ()))
    assert swap["E2"] == ("E3", 1) and swap["H3"] == ("H2", 1) and swap["A1211"] == ("A1121", 1)
    assert "A1112" not in swap and len(swap) == 14
    rotation = moves(((1, 0, 2, 3, 4, 5, 6, 7), (1,)))
    assert rotation["E1"] == ("F1", -1) and rotation["F1"] == ("E1", -1)
    assert rotation["H1"] == ("H1", -1)
    assert rotation["A1112"] == ("A2112", 1) and rotation["A2112"] == ("A1112", -1)
    assert len(rotation) == 19
    # the oscillators keep the rotation of each two adjacent variables; g2
    # keeps the rotation of each of its two blocks, whose weights differ
    assert [list(_kept_swaps(build_model("oscillator", n))) for n in (1, 2, 3, 4)] == [
        [], [((1, 0), (1,))], [((1, 0, 2), (1,)), ((0, 2, 1), (2,))],
        [((1, 0, 2, 3), (1,)), ((0, 2, 1, 3), (2,)), ((0, 1, 3, 2), (3,))]]
    assert list(_kept_swaps(g2)) == [((1, 0, 2, 3), (1,)), ((0, 1, 3, 2), (3,))]
    # every family bundle keeps each block rotation and the swap of each
    # block with the next equal one: SO:3,3 and SL:4 that of their two
    # blocks, SO:3,4 that of its last two
    kept = {(cid, bm.twist): list(_kept_swaps(_family_model(cid, bm)))
            for cid, bm in FAMILY if bm.valid}
    assert kept.pop(("SO:4,4", "L0")) == list(_kept_swaps(so44))
    rotations = [((1, 0, 2, 3), (1,)), ((0, 1, 3, 2), (3,))]
    assert kept == {("G2:2", "L0"): rotations, ("SL:3", "L0"): [((1, 0), (1,))],
                    **{(cid, twist): rotations + [((2, 3, 0, 1), ())]
                       for cid in ("SO:3,3", "SL:4") for twist in ("L0", "f0L0")},
                    ("SO:3,4", "L0"): [((1, 0, 2, 3, 4, 5), (1,)), ((0, 1, 3, 2, 4, 5), (3,)),
                                       ((0, 1, 2, 3, 5, 4), (5,)), ((0, 1, 4, 5, 2, 3), ())]}
    # SO:3,4 is offered its 3 rotations and the swap of its last two blocks
    (cid, bm), = [(cid, bm) for cid, bm in FAMILY if cid == "SO:3,4"]
    assert len(models._variable_swaps(_family_model(cid, bm))) == 4


def _all_swaps(model):
    """Every signed variable permutation that `_variable_swaps` generates
    from: the rotation x_i -> x_j, x_j -> -x_i of each two variables i < j
    of one block, then the swap of each two blocks with equal (number of
    names, a, b)."""
    ranges, nv = models._ranges(model.blocks), len(model.ctx.names)
    out = []
    for r in ranges:
        for i, j in combinations(r, 2):
            perm = list(range(nv))
            perm[i], perm[j] = j, i
            out.append((tuple(perm), (j,)))
    for (p, rp), (q, rq) in combinations(zip(model.blocks, ranges), 2):
        if (len(p.names), p.a, p.b) == (len(q.names), q.a, q.b):
            perm = list(range(nv))
            perm[rp.start:rp.stop], perm[rq.start:rq.stop] = rq, rp
            out.append((tuple(perm), ()))
    return out


def test_generators_give_the_orbits_of_every_swap(so44, g2):
    # adjacent rotations and the swaps of each block with the next equal
    # one generate the group of every rotation and block swap, so the
    # orbits of operator pairs are the same: as sets of pairs, least pairs
    # first, each orbit's constants handed along a spanning tree of it
    cases = [so44, g2] + [build_model("oscillator", n) for n in (1, 2, 3, 4)]
    cases += [_family_model(cid, bm) for cid, bm in FAMILY if bm.valid]
    sizes = []
    for model in cases:
        ops = [op for _, op in model.algebra_ops]
        partitions = []
        for offers in (models._variable_swaps(model), _all_swaps(model)):
            orbits = opcalc.pair_orbits(len(ops), automorphisms(ops, offers).values())
            partitions.append({root: {root} | {pair for pair, *_ in members}
                               for root, members in orbits.items()})
            for root, members in orbits.items():
                assert all(root < pair for pair, *_ in members)
                reached = {root}
                for pair, parent, image, signs in members:
                    assert parent in reached and pair not in reached
                    assert sorted(image[k] for k in parent) == list(pair)
                    reached.add(pair)
        assert partitions[0] == partitions[1], model.name
        assert set().union(*partitions[0].values()) == set(combinations(range(len(ops)), 2))
        sizes.append((len(models._variable_swaps(model)), len(_all_swaps(model))))
    assert sizes[:6] == [(7, 10), (2, 2), (0, 0), (1, 1), (2, 3), (3, 6)]


def test_closure_by_symmetry_matches_direct_check(monkeypatch, so44, g2):
    # with the rotations and swaps, closure brackets one pair per orbit
    # and hands its constants on; without them, every pair is checked.
    # The mutants fail at many pairs (so44 without E1, x1_1^k d^k added to
    # E1 for k = 2, 3) or are unstable at orbits of pairs (k = 4, 5), whose
    # members are then checked directly.  z1d1 + z2d2 listed before osc2's
    # operators, which the rotation keeps, makes them dependent: constants
    # are not unique, and none is handed on
    x = var(so44.ctx, "x1_1")
    cases = [(so44, level) for level in (3, 4, 6)] + [(g2, 6), (g2, 8)]
    cases += [(build_model("oscillator", n), 8) for n in (1, 2, 3)]
    osc = build_model("oscillator", 2)
    ops = dict(osc.algebra_ops)
    cases += [(osc._replace(algebra_ops=(("S", ops["z1d1"] + ops["z2d2"]), *osc.algebra_ops)), 8)]
    # osc3 and osc4 at level 2 are dependent, and recompile with every operator
    cases += [(build_model("oscillator", n), 2) for n in (3, 4)]
    cases += [(_family_model(cid, bm), 3) for cid, bm in FAMILY if bm.valid]
    cases += [(_unstable_oscillator(3), 3), (so44._replace(algebra_ops=so44.algebra_ops[1:]), 4)]
    cases += [(_with_first_algebra(so44, mul(x ** k) @ deriv(so44.ctx, ("x1_1",) * k)), level)
              for k, level in [(2, 3), (2, 4), (3, 3), (3, 4), (4, 3), (5, 4)]]
    got = [verify_brackets(model, level) for model, level in cases]
    monkeypatch.setattr(models, "automorphisms", lambda ops, perms: {})
    want = [verify_brackets(model, level) for model, level in cases]
    assert [repr(rep) for rep in got] == [repr(rep) for rep in want]
    assert [len(rep.failures) for rep in got[-7:-2]] == [4, 22, 22, 8, 22]
    assert [len(rep.unstable) for rep in got[-2:]] == [8, 8]
    dependent = got[8]
    assert dependent.closed and dependent.rank == 10 and not dependent.independent


def test_scaled_lowering_keeps_only_the_swaps_that_fix_it(monkeypatch, so44):
    # A1112 with its lowering half scaled by 9/8: the swap of blocks 3 and
    # 4 moves A1112 and is dropped; those of blocks 1, 2 and 2, 3 fix it,
    # and generate the swaps of blocks 1, 2 and 3.  Every block rotation is
    # dropped: that of block p sends A1112 to plus or minus the operator
    # whose tag differs from 1112 in digit p, which is not scaled
    ops = list(so44.algebra_ops)
    k = [name for name, _ in ops].index("A1112")
    op = ops[k][1]
    assert op.paths[0][2] == () and len(op.paths) == 2
    raising, lowering = (opcalc.Op(op.ctx, (path,)) for path in op.paths)
    ops[k] = "A1112", raising + Q(9, 8) * lowering
    model = so44._replace(algebra_ops=tuple(ops))
    assert list(_kept_swaps(model)) == [((2, 3, 0, 1, 4, 5, 6, 7), ()),
                                        ((0, 1, 4, 5, 2, 3, 6, 7), ())]
    got = verify_brackets(model, 4)
    monkeypatch.setattr(models, "automorphisms", lambda ops, perms: {})
    want = verify_brackets(model, 4)
    assert repr(got) == repr(want) and not got.closed


def test_sign_flipped_mixed_cubics_keep_the_rotations_and_fail(monkeypatch, g2):
    # g2 with the lowering half of its four mixed cubics (A2k, A3k)
    # negated: the block rotations still permute its operators up to sign,
    # but the brackets no longer close, at 24 pairs; with the rotations
    # the failures and the report are those of the pair-by-pair check
    ops = list(g2.algebra_ops)
    for k, (name, op) in enumerate(ops):
        if name[0] == "A" and name[1] in "23":
            assert op.paths[0][2] == () and len(op.paths) == 2
            raising, lowering = (opcalc.Op(op.ctx, (path,)) for path in op.paths)
            ops[k] = name, raising - lowering
    model = g2._replace(algebra_ops=tuple(ops))
    assert list(_kept_swaps(model)) == [((1, 0, 2, 3), (1,)), ((0, 1, 3, 2), (3,))]
    got = verify_brackets(model, 4)
    monkeypatch.setattr(models, "automorphisms", lambda ops, perms: {})
    want = verify_brackets(model, 4)
    assert repr(got) == repr(want)
    assert not got.closed and len(got.failures) == 24


def test_closure_brackets_one_pair_per_orbit(monkeypatch, so44):
    # so44 at level 4 brackets 12 of its 378 pairs, osc2 25 of 45.  A
    # failing or unstable pair's witness is read off the bracket its
    # constants were solved from, with nothing bracketed again: osc2 at
    # level 2 is dependent, so all of its 45 pairs are checked, 8 of them
    # unstable; so44 without E1 at level 4 fails at 4 pairs and brackets 33
    # of its 351.  With x1_1^k d^k added to E1, so44 at level 3 fails at
    # 22 pairs for k = 2 and is unstable at 8 for k = 4: only a pair that
    # closes with stable constants hands them on, so each member of a
    # failed or unstable orbit is bracketed once, as its own representative.
    # The brackets counted are those over the compile that decides the
    # report: where a least pair fails or is unstable, or the operators are
    # dependent, the recompile with values past the sample for every operator
    calls = []

    def spy(a, b, monos):
        calls.append((id(a), id(b)))
        return bracket(a, b, monos)

    def compile_spy(*args):  # only the brackets of the compile that decides count
        calls.clear()
        return compile_ops(*args)

    monkeypatch.setattr(opcalc, "bracket", spy)
    monkeypatch.setattr(models, "compile_ops", compile_spy)
    osc = build_model("oscillator", 2)
    x = var(so44.ctx, "x1_1")
    mutants = [(_with_first_algebra(so44, mul(x ** k) @ deriv(so44.ctx, ("x1_1",) * k)), 3)
               for k in (2, 4)]
    counts = []
    for model, level in ((so44, 4), (osc, 8), (osc, 2),
                         (so44._replace(algebra_ops=so44.algebra_ops[1:]), 4), *mutants):
        calls.clear()
        rep = verify_brackets(model, level)
        assert len(calls) == len(set(calls))
        counts.append((len(calls), len(rep.structure_constants), rep.independent,
                       len(rep.failures), len(rep.unstable)))
    assert counts == [(12, 378, True, 0, 0), (25, 45, True, 0, 0), (45, 45, False, 0, 8),
                      (33, 347, True, 4, 0), (53, 356, True, 22, 0), (43, 378, True, 0, 8)]


def test_family_bundles_bracket_one_pair_per_orbit(monkeypatch):
    # the block rotations and the swaps of equal blocks that each family
    # bundle keeps cut the pairs bracketed: G2:2 30 of 91, SL:3 16 of 28,
    # SO:3,3 and SL:4 23 of 105, SO:3,4 32 of 210, SO:4,4 12 of 378
    calls = []

    def spy(a, b, monos):
        calls.append((id(a), id(b)))
        return bracket(a, b, monos)

    monkeypatch.setattr(opcalc, "bracket", spy)
    counts = {}
    for cid, bm in FAMILY:
        if bm.valid:
            calls.clear()
            rep = verify_brackets(_family_model(cid, bm), 4)
            assert rep.closed and rep.stable
            counts[cid, bm.twist] = len(calls), len(rep.structure_constants)
    assert counts == {("G2:2", "L0"): (30, 91), ("SO:3,3", "L0"): (23, 105),
                      ("SO:3,3", "f0L0"): (23, 105), ("SO:3,4", "L0"): (32, 210),
                      ("SO:4,4", "L0"): (12, 378), ("SL:3", "L0"): (16, 28),
                      ("SL:4", "L0"): (23, 105), ("SL:4", "f0L0"): (23, 105)}


def _filtered_levels(model, max_level, ops):
    """Levels 0..max_level listed whole, sorted descending, each cut to the
    monomials whose first k - 1 exponents in block p sum to at most
    2*block_degrees(ops)[p]: the sample as filtered from whole levels,
    which `models._sample` generates from the blocks instead."""
    ends = list(accumulate(len(blk.names) for blk in model.blocks))
    ranges = [range(end - len(blk.names), end) for blk, end in zip(model.blocks, ends)]
    degrees = block_degrees(ops, ranges)
    out = []
    for n in range(max_level + 1):
        parts = [[c for c in product(range(blk.degree(n) + 1), repeat=len(r))
                  if sum(c) == blk.degree(n)] for blk, r in zip(model.blocks, ranges)]
        level = sorted((sum(combo, ()) for combo in product(*parts)), reverse=True)
        assert model.level_basis(n) == level
        out.append([m for m in level if all(sum(m[r.start:r.stop - 1]) <= 2 * dp
                                            for r, dp in zip(ranges, degrees))])
    return out


@pytest.mark.parametrize("level", [3, 5, 7])
def test_direct_samples_match_filtered_levels(level, so44, g2):
    cases = [so44, g2] + [build_model("oscillator", n) for n in (1, 2, 3)]
    cases += [_family_model(cid, bm) for cid, bm in FAMILY if bm.valid]
    for model in cases:
        ops = [op for _, op in model.algebra_ops] + list(model.sl2)
        assert models._sample(model, level, ops) == _filtered_levels(model, level, ops), \
            model.name


def test_closure_lists_no_level(monkeypatch, so44):
    # the samples come from the blocks; only the whole-level fallback, here
    # for a grade divisor that varies within a level, lists a level
    calls, whole = [], models.ModelSpec.level_basis

    def spy(model, n):
        calls.append(n)
        return whole(model, n)

    monkeypatch.setattr(models.ModelSpec, "level_basis", spy)
    rep = verify_brackets(so44, 8)
    assert rep.closed and rep.stable and rep.sl2_ok
    assert calls == []
    osc = build_model("oscillator", 2)
    osc.ctx.add_grading("first", [1, 0], 1)
    verify_brackets(_with_first_algebra(osc, grade_divide(osc.ctx, "first", 1, 1)), 3)
    assert calls == [0, 1, 2, 3]


def _sheared_oscillator():
    """The two-variable oscillator in u = z1, v = z1 + z2, whose Gram is not
    diagonal: multiplication by u and v is adjoint, for the Fischer form in
    z, to d/dz1 = d_u + d_v and d/dz1 + d/dz2 = d_u + 2 d_v, two-path
    lowerings."""
    ctx = VariableContext(["u", "v"])
    du, dv = deriv(ctx, ("u",)), deriv(ctx, ("v",))
    gens = (GeneratorInfo("u", var(ctx, "u"), du + dv),
            GeneratorInfo("v", var(ctx, "v"), du + 2 * dv))
    return models.ModelSpec("sheared", ctx, (models.Block(("u", "v")),), (), gens, (), ())


def _sheared_fischer(m1, m2):
    """<u^a v^b, u^c v^d> for the Fischer form <z^e, z^f> = e! delta_ef."""
    def in_z(a, b):  # z1^a (z1 + z2)^b as {exponents: coefficient}
        return {(a + i, b - i): comb(b, i) for i in range(b + 1)}

    p, q = in_z(*m1), in_z(*m2)
    return sum(c * q[e] * factorial(e[0]) * factorial(e[1]) for e, c in p.items() if e in q)


def test_sheared_oscillator_gram_is_the_pulled_back_fischer_form():
    rep = solve_gram(_sheared_oscillator(), 5)
    assert rep.well_defined and rep.symmetric and rep.positive_definite and rep.adjoint_ok
    assert rep.failures == []
    for basis, gram in zip(rep.bases, rep.grams):
        assert {(i, j): _sheared_fischer(a, b) for i, a in enumerate(basis)
                for j, b in enumerate(basis)} == gram
    assert sum(i != j for i, j in rep.grams[3]) == 12
    for n in range(3):
        assert prod(rep.pivots[n]) == _dense_det(rep.grams[n], len(rep.bases[n]))


@pytest.mark.parametrize("name", ["so44", "g2"])
def test_singular_grade_error_levels(name):
    # E is n + 1 on level n, so c + E vanishes on level -c - 1, which level
    # 4 reaches for c = -6.  Read after d^2 in the first variable, which
    # lowers block 1's degree by 2, E is n + 1/2 in so44 and n + 2/3 in g2,
    # so no integer c vanishes there and c = -(k + 1/2), or -(k + 2/3),
    # vanishes on level k; d^2 kills so44's levels 0 and 1, whose block-1
    # degree is below 2.  Which mutants raise, and the grade, are those of
    # the check on every source; the monomial named is the first sampled
    # one, or one it reaches, where the divisor vanishes.
    model = build_model(name)
    v = model.ctx.names[0]
    frac = Q(1, 2) if name == "so44" else Q(2, 3)
    raised = {}
    for wrap in (False, True):
        for c in [-2, -3, -5, -6, -7] + ([-(k + frac) for k in (0, 1, 2, 4, 5, 6)] if wrap else []):
            div = grade_divide(model.ctx, "energy", c, 1)
            if wrap:
                div = mul(var(model.ctx, v) ** 2) @ div @ deriv(model.ctx, (v, v))
            try:
                verify_brackets(_with_first_algebra(model, div), 4)
            except SingularGradeError as err:
                assert model.ctx.grade_of(err.monomial, "energy") == err.grade == -c
                raised[wrap, c] = err.monomial
    unwrapped = {"so44": [(1, 0, 1, 0, 1, 0, 1, 0), (2, 0, 2, 0, 2, 0, 2, 0),
                          (2, 2, 2, 2, 2, 2, 2, 2), (3, 2, 3, 2, 3, 2, 3, 2)],
                 "g2": [(5, 0, 1, 0), (6, 2, 2, 0), (6, 8, 2, 2), (9, 8, 3, 2)]}[name]
    wrapped = {"so44": {2: (0, 0, 2, 0, 2, 0, 2, 0), 4: (2, 0, 2, 2, 2, 2, 2, 2),
                        5: (3, 0, 3, 2, 3, 2, 3, 2)},
               "g2": {0: (0, 0, 0, 0), 1: (3, 0, 1, 0), 2: (4, 2, 2, 0), 4: (4, 8, 2, 2),
                      5: (7, 8, 3, 2)}}[name]
    assert raised == {**{(False, c): m for c, m in zip((-2, -3, -5, -6), unwrapped)},
                      **{(True, -(k + frac)): m for k, m in wrapped.items()}}
