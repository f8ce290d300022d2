import hashlib
from collections import Counter
from fractions import Fraction as Q
from itertools import chain

import pytest

from orbitq import bundles, models
from orbitq.jordan import lookup_case, sweep_case_ids
from orbitq.ladder import ladder_norms
from orbitq.models import (PAIR_MODELS, build_model, degree_contract_failures,
                           model_hw_norm, pair_model, solve_gram, verify_brackets)
from orbitq.opcalc import (SingularGradeError, block_degrees, bracket, compile_ops, deriv,
                           grade_divide, mul, residual, scalar, span_structure)
from test_opcalc import _check_compiled, _decode, xyw  # noqa: F401 (xyw is a fixture)


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
    assert not models._positive_definite(3, [(2, 0), (1, 1)], gram, failures, [])
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
    for ctx, grading, exps, grade in ((so44.ctx, "beta", (2, 0, 1, 0, 0, 1, 1, 0), 3),
                                      (xyw, "half", (0, 0, 0), Q(1, 2)),
                                      (xyw, "half", (1, 2, 1), Q(9, 2))):
        value = ctx.grade_of(exps, grading)
        assert type(value) is Q and value == grade


def test_model_hw_norm_rejects_failed_report():
    model = build_model("oscillator", 1)
    model = _with_first_compact(model, mul(model.ctx.var("z1")))
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
    _, cols = compiled["raising"]
    idx = cols[0].shifts.idx
    assert cols[0].shifts.size > len(monos)
    assert all(idx[s][m] is None for col in cols for s, v in col.items()
               for m in range(len(monos), len(v)) if v[m])


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
    assert residual(cols, pair, sc[pair], extra) == {}
    for delta in (1, Q(1, 7)):
        assert residual(cols, pair, {**sc[pair], k: sc[pair][k] + delta}, extra)


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
    z = model.ctx.var("z1")
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
    high = mul(g2.ctx.var("x1_1") ** 8) @ deriv(g2.ctx, ("x1_1",) * 8)
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
    u1, x1 = g2.ctx.var("x1_1"), g2.ctx.var("x2_1")
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
    rep = solve_gram(_with_first_compact(model, mul(model.ctx.var("z1"))), 2)
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
    z, gen = model.ctx.var("z1"), model.generators[0]
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
        not bracket(e, ebar, range(small), ((h, d),)),
        {pair: {k: Q(c, d) for k, c in combo.items()}
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
    return bool(residual(cols, pair, {k: c * d for k, c in combo.items()}, range(1)))


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
    x = so44.ctx.var("x1_1")
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
    bases = [so44.level_basis(n) for n in range(5)]
    sample = models._sample(so44, bases, [op for _, op in so44.algebra_ops])
    # a level-n monomial of so44 has degree n in each block
    assert Counter(sum(m[:2]) for level in sample for m in level) == {
        0: 1, 1: 16, 2: 81, 3: 81, 4: 81}
    # a divisor that varies within a level, and a level that is not all
    # compositions, make every level its own sample
    osc = build_model("oscillator", 2)
    osc.ctx.add_grading("first", [1, 0], 1)
    varying = _with_first_algebra(osc, grade_divide(osc.ctx, "first", 1, 1))

    class Cone(models.ModelSpec):
        __slots__ = ()

        def level_basis(self, n):
            return super().level_basis(n)[n > 0:]

    assert sampled(osc, 8)[:2] == (35, 45)
    size, total, rep = sampled(varying, 8)
    assert not rep.closed and (size, total) == (45, 45)
    size, total, rep = sampled(Cone(*osc), 8)
    assert rep.closed and (size, total) == (37, 37)


def test_compile_only_the_sample(compiles, so44):
    # one compile, of the sample and what it reaches, where the full check
    # numbers 2,275 monomials for 979 sources
    verify_brackets(so44, 4)
    assert [(len(monos), len(table)) for monos, table in compiles] == [(260, 866)]
    # an unstable pair's witness is read off that compile's sources
    compiles.clear()
    rep = verify_brackets(_unstable_oscillator(3), 3)
    assert rep.unstable and len(compiles) == 1


@pytest.mark.parametrize("name", ["so44", "g2"])
def test_singular_grade_error_levels(name):
    # beta is n + 1 on level n, so c + beta vanishes on level -c - 1, which
    # level 4 reaches for c = -6.  Read after d^2 in the first variable it
    # vanishes on level -c + 1 in so44, whose beta reads that variable, and
    # as before in g2, whose beta does not.  Which mutants raise, and the
    # grade, are those of the check on every source; the monomial named is
    # the first sampled one, or one it reaches, where the divisor vanishes.
    model = build_model(name)
    v = model.ctx.names[0]
    raised = {}
    for wrap in (False, True):
        for c in (-2, -3, -5, -6, -7):
            div = grade_divide(model.ctx, "beta", c, 1)
            if wrap:
                div = mul(model.ctx.var(v) ** 2) @ div @ deriv(model.ctx, (v, v))
            try:
                verify_brackets(_with_first_algebra(model, div), 4)
            except SingularGradeError as err:
                assert model.ctx.grade_of(err.monomial, "beta") == err.grade
                raised[wrap, c] = err.grade
    assert raised == {**{(False, c): -c for c in (-2, -3, -5, -6)},
                      **{(True, c): -c for c in ((-2, -3) if name == "so44" else
                                                 (-2, -3, -5, -6))}}
