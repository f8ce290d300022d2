import hashlib
from collections import Counter
from fractions import Fraction as Q
from itertools import accumulate, chain, combinations, count, product
from math import comb, factorial, prod
from operator import add

import pytest

from orbitq import bundles, models, opcalc
from orbitq.jordan import lookup_case, sweep_case_ids
from orbitq.ladder import ladder_norms
from orbitq.models import (PAIR_MODELS, GeneratorInfo, build_model, degree_contract_failures,
                           model_hw_norm, pair_model, solve_gram, verify_brackets)
from orbitq.opcalc import (SingularGradeError, SpanReport, VariableContext, _stacked,
                           block_degrees, bracket, compile_ops, deriv, grade_divide, mul, scalar,
                           span_structure)
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
    assert not models._positive_definite(3, [(2, 0), (1, 1)], gram, 1, failures, [])
    assert failures == ["level 3: pivot -3 at (1, 1) is not positive"]
    # a hand-built negative level-0 Gram for osc1 propagates up the recursion
    monkeypatch.setattr(models, "_level0_gram", lambda model, basis: [{0: Q(-1)}])
    rep = solve_gram(build_model("oscillator", 1), 2)
    assert rep.well_defined and rep.symmetric and rep.adjoint_ok
    assert not rep.positive_definite
    assert rep.failures == ["level 0: pivot -1 at (0,) is not positive"]
    assert rep.pivots == [[Q(-1)]]


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
    assert len(g0) == 3 and g2.hw_monomial(0) in g0
    assert len(g2.level_basis(1)) == 12
    assert g2.hw_monomial(1) == (5, 0, 1, 0)
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
        "GramReport(max_level=3, bases=[[(0,)], [(1,)], [(2,)], [(3,)]],"
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
    assert cols[0].shifts.size > len(monos)
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

    def spy(batch, coef, factors):
        got = evaluate(batch, coef, factors)
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


def test_family_valid_bundles_are_verified():
    # only valid => verified: SL:3 also closes with b = 0 and b = 2, level
    # rules whose hw norms match no row of the table
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


def test_pair_model_needs_integral_level_rule():
    with pytest.raises(ValueError, match="block 1: w\\*r0 - 1 = -1/2"):
        pair_model("bad", (1,), Q(1, 2))
    with pytest.raises(ValueError, match="block 2: w\\*r0 - 1 = 1/2"):
        pair_model("bad", (2, 3), Q(1, 2))


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
    monomials)."""
    calls = []

    def spy(ops, monos):
        monos = list(monos)
        table, cols = compile_ops(ops, monos)
        calls.append((monos, table))
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
    size, sources, report) per call, the sample size read off its only
    `compile_ops` call.  Every field but the unstable pairs' witnesses
    equals the reference's; each witness is a sampled level-L monomial
    where the pair's reported constants fail."""

    def check(model, level):
        compiles.clear()
        rep = verify_brackets(model, level)
        ref = _reference_brackets(model, level)
        assert len(compiles) == 1
        assert repr(rep[:-1]) == repr(ref[:-1])
        assert [w[:2] for w in rep.unstable] == [w[:2] for w in ref.unstable]
        names = [name for name, _ in model.algebra_ops]
        for a, b, mono in rep.unstable:
            pair = names.index(a), names.index(b)
            assert mono in compiles[0][0] and mono in model.level_basis(level)
            assert _fails_on(model, pair, rep.structure_constants[pair], mono)
        return (len(compiles[0][0]), sum(len(model.level_basis(n)) for n in range(level + 1)),
                rep)

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


def test_compile_only_the_sample(compiles, so44):
    # one compile, of the sample and what it reaches, where the full check
    # numbers 2,275 monomials for 979 sources
    verify_brackets(so44, 4)
    assert [(len(monos), len(table)) for monos, table in compiles] == [(260, 866)]
    # an unstable pair's witness is read off that compile's sources
    compiles.clear()
    rep = verify_brackets(_unstable_oscillator(3), 3)
    assert rep.unstable and len(compiles) == 1


def _residual_per_pair(cols, basis, stop, perms):
    """`span_structure` as one `_residual` per pair: the prefix solve, then
    sum_k c_k op_k rebuilt and subtracted for every pair over every later
    source, the first nonzero source deciding.  The operator permutations
    `perms` are not used: every pair is checked."""
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
    # so44 keeps all ten offers: the rotation (x_p1, x_p2) -> (x_p2, -x_p1)
    # of each block, which sends E_p to -F_p and H_p to -H_p, and the six
    # block swaps, which the energy divisor weighs alike
    assert len(models._variable_swaps(so44)) == 10
    kept = _kept_swaps(so44)
    assert list(kept) == [((1, 0, 2, 3, 4, 5, 6, 7), (1,)), ((0, 1, 3, 2, 4, 5, 6, 7), (3,)),
                          ((0, 1, 2, 3, 5, 4, 6, 7), (5,)), ((0, 1, 2, 3, 4, 5, 7, 6), (7,)),
                          ((2, 3, 0, 1, 4, 5, 6, 7), ()), ((4, 5, 2, 3, 0, 1, 6, 7), ()),
                          ((6, 7, 2, 3, 4, 5, 0, 1), ()), ((0, 1, 4, 5, 2, 3, 6, 7), ()),
                          ((0, 1, 6, 7, 4, 5, 2, 3), ()), ((0, 1, 2, 3, 6, 7, 4, 5), ())]
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
    # the oscillators keep the rotation of each two variables; g2 keeps
    # the rotation of each of its two blocks, whose weights differ
    assert [list(_kept_swaps(build_model("oscillator", n))) for n in (1, 2, 3)] == [
        [], [((1, 0), (1,))], [((1, 0, 2), (1,)), ((2, 1, 0), (2,)), ((0, 2, 1), (2,))]]
    assert list(_kept_swaps(g2)) == [((1, 0, 2, 3), (1,)), ((0, 1, 3, 2), (3,))]
    # every family bundle keeps each block rotation and each swap of two
    # equal blocks: SO:3,3 and SL:4 that of their two blocks, SO:3,4 that
    # of its last two
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
    # A1112 with its lowering half scaled by 9/8: the swaps of block 4 with
    # blocks 1, 2 and 3 move A1112 and are dropped; those of blocks 1, 2,
    # 1, 3 and 2, 3 fix it.  Every block rotation is dropped: that of block
    # p sends A1112 to plus or minus the operator whose tag differs from
    # 1112 in digit p, which is not scaled
    ops = list(so44.algebra_ops)
    k = [name for name, _ in ops].index("A1112")
    op = ops[k][1]
    assert op.paths[0][2] == () and len(op.paths) == 2
    raising, lowering = (opcalc.Op(op.ctx, (path,)) for path in op.paths)
    ops[k] = "A1112", raising + Q(9, 8) * lowering
    model = so44._replace(algebra_ops=tuple(ops))
    assert list(_kept_swaps(model)) == [((2, 3, 0, 1, 4, 5, 6, 7), ()),
                                        ((4, 5, 2, 3, 0, 1, 6, 7), ()),
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
    # of its 351
    calls = []

    def spy(a, b, monos):
        calls.append((id(a), id(b)))
        return bracket(a, b, monos)

    monkeypatch.setattr(opcalc, "bracket", spy)
    osc = build_model("oscillator", 2)
    counts = []
    for model, level in ((so44, 4), (osc, 8), (osc, 2),
                         (so44._replace(algebra_ops=so44.algebra_ops[1:]), 4)):
        calls.clear()
        rep = verify_brackets(model, level)
        assert len(calls) == len(set(calls))
        counts.append((len(calls), len(rep.structure_constants), rep.independent,
                       len(rep.failures), len(rep.unstable)))
    assert counts == [(12, 378, True, 0, 0), (25, 45, True, 0, 0), (45, 45, False, 0, 8),
                      (33, 347, True, 4, 0)]


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
