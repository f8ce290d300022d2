import random
from fractions import Fraction as Q

import pytest

from orbitq import sweep_seed
from orbitq.exactalg import ContextMismatchError, Polynomial, VariableContext
from orbitq.opcalc import (OpCompose, OpDeriv, OpGradeDivide, OpGradeScale,
                           OpMul, OpScalar, OpScaled, OpSum, SingularGradeError,
                           commutator, compile_ops, flatten, solve_linear_system,
                           span_structure)
from orbitq.sparse import clear_denominators


@pytest.fixture
def zctx():
    c = VariableContext(["z"])
    c.add_grading("deg", [1], 0)
    return c


def test_weyl_halfshift(zctx):
    # (z d/dz + 1/2) z^2 = (5/2) z^2
    op = OpSum((OpCompose(OpMul(zctx.var("z")), OpDeriv(("z",))),
                OpScalar(Q(1, 2))))
    z2 = zctx.var("z") ** 2
    assert op.apply(z2) == Q(5, 2) * z2


def test_grade_divisor(zctx):
    m = zctx.var("z") ** 2
    op = OpCompose(OpGradeDivide("deg", 1, 1), OpGradeDivide("deg", 0, 1))
    assert op.apply(m) == Q(1, 6) * m
    with pytest.raises(SingularGradeError):
        OpGradeDivide("deg", -2, 1).apply(m)


def test_grade_divisor_quartic_example():
    names = [f"x{p}_{i}" for p in range(1, 5) for i in (1, 2)]
    c = VariableContext(names)
    c.add_grading("beta", [1, 1, 0, 0, 0, 0, 0, 0], 1)
    m = c.one()
    for p in range(1, 5):
        m = m * c.var(f"x{p}_1")
    op = OpCompose(OpGradeDivide("beta", 1, 1), OpGradeDivide("beta", 0, 1))
    assert op.apply(m) == Q(1, 6) * m


def test_commutator_canonical_pair(zctx):
    z = zctx.var("z")
    com = commutator(OpDeriv(("z",)), OpMul(z))
    for n in range(5):
        assert com.apply(z ** n) == z ** n


def test_commutator_z2_d2(zctx):
    z = zctx.var("z")
    com = commutator(OpMul(z * z), OpDeriv(("z", "z")))
    assert com.apply(z) == -6 * z


def test_commutator_grading_raises(zctx):
    # [E, z.] = z. when z carries grade 1
    e = OpGradeScale("deg", 0, 1)
    com = commutator(e, OpMul(zctx.var("z")))
    z = zctx.var("z")
    for n in range(4):
        assert com.apply(z ** n) == z ** (n + 1)


def test_compile_identity(zctx):
    basis = [(0,), (1,), (2,)]
    (cols,) = compile_ops([OpScalar(1)], zctx, basis)
    assert cols == {m: {m: Q(1)} for m in basis}


def test_matrix_escape_flagged(zctx):
    # z. sends (0,) outside the basis; the column of (1,) is compiled too,
    # so a product of two operators on the basis is a column lookup
    mul, d = compile_ops([OpMul(zctx.var("z")), OpDeriv(("z",))], zctx, [(0,)])
    assert set(mul[(0,)]) - {(0,)} == {(1,)}
    assert mul == {(0,): {(1,): Q(1)}, (1,): {(2,): Q(1)}}
    assert d == {(0,): {}, (1,): {(0,): Q(1)}}


def test_matrix_with_target(zctx):
    # read against the target basis [(0,), (1,)], the column of (0,) is the
    # single entry (1, 0) = 1 and nothing escapes
    target = [(0,), (1,)]
    (mul,) = compile_ops([OpMul(zctx.var("z"))], zctx, [(0,)])
    index = {m: i for i, m in enumerate(target)}
    assert set(mul[(0,)]) <= set(index)
    entries = {(index[m], 0): c for m, c in mul[(0,)].items()}
    assert entries == {(1, 0): Q(1)}


def _osc_triple(zctx):
    z = zctx.var("z")
    h = OpSum((OpCompose(OpMul(z), OpDeriv(("z",))), OpScalar(Q(1, 2))))
    return [OpMul(z * z), h, OpDeriv(("z", "z"))]


def test_span_structure_sl2(zctx):
    basis = [(n,) for n in range(7)]
    rep = span_structure(compile_ops(_osc_triple(zctx), zctx, basis), basis)
    assert rep.closed and rep.independent and rep.rank == 3
    # [z^2, d^2] = -4(z d + 1/2)
    assert rep.structure_constants[(0, 2)] == {1: Q(-4)}
    # [z^2, h] = -2 z^2 and [h, d^2] = -2 d^2
    assert rep.structure_constants[(0, 1)] == {0: Q(-2)}
    assert rep.structure_constants[(1, 2)] == {2: Q(-2)}


def test_span_structure_reports_failure(zctx):
    z = zctx.var("z")
    # {z., d} brackets to a scalar, which is not in the span
    basis = [(n,) for n in range(4)]
    rep = span_structure(compile_ops([OpMul(z), OpDeriv(("z",))], zctx, basis),
                         basis)
    assert not rep.closed
    assert rep.failures == [(0, 1)]


def test_span_structure_rank_deficiency(zctx):
    z = zctx.var("z")
    basis = [(n,) for n in range(3)]
    rep = span_structure(compile_ops([OpMul(z), OpScaled(2, OpMul(z))], zctx, basis),
                         basis)
    assert not rep.independent
    assert rep.rank == 1


def test_extensionality_random(zctx):
    rng = random.Random(sweep_seed() + 3)
    z = zctx.var("z")
    leaves = [OpMul(z), OpDeriv(("z",)), OpScalar(Q(1, 3)),
              OpGradeScale("deg", 1, 2)]
    for _ in range(200):
        a, b = rng.choice(leaves), rng.choice(leaves)
        p = sum((Q(rng.randrange(-3, 4)) * z ** k for k in range(4)),
                zctx.zero())
        assert OpSum((a, b)).apply(p) == a.apply(p) + b.apply(p)
        assert OpCompose(a, b).apply(p) == a.apply(b.apply(p))
        assert OpScaled(Q(2, 5), a).apply(p) == Q(2, 5) * a.apply(p)


def test_jacobi_identity(zctx):
    z = zctx.var("z")
    ops = [OpMul(z * z), OpDeriv(("z",)), OpGradeScale("deg", 1, 1)]
    p = z ** 3 + 2 * z
    a, b, c = ops
    total = (commutator(a, commutator(b, c)).apply(p)
             + commutator(b, commutator(c, a)).apply(p)
             + commutator(c, commutator(a, b)).apply(p))
    assert total.is_zero()


def test_solve_linear_system():
    # x + y = 3, x - y = 1
    sol = solve_linear_system([{"x": 1, "y": 1}, {"x": 1, "y": -1}],
                              [3, 1], ["x", "y"])
    assert sol == {"x": Q(2), "y": Q(1)}
    # inconsistent
    assert solve_linear_system([{"x": 1}, {"x": 1}], [1, 2], ["x"]) is None
    # underdetermined
    assert solve_linear_system([{"x": 1, "y": 1}], [1], ["x", "y"]) is None


def test_memo_is_per_context():
    d_y = OpDeriv(("y",))
    xy = VariableContext(["x", "y"])
    assert d_y.apply(xy.var("x") * xy.var("y") ** 2) == 2 * xy.var("x") * xy.var("y")
    yx = VariableContext(["y", "x"])
    # same exponent tuple (1, 2), now meaning y*x^2
    assert d_y.apply(yx.var("y") * yx.var("x") ** 2) == yx.var("x") ** 2


def test_memo_hit_keeps_context_check():
    a, b = VariableContext(["z"]), VariableContext(["z"])
    op = OpMul(a.var("z"))
    assert op.apply(a.var("z")) == a.var("z") ** 2
    with pytest.raises(ContextMismatchError):
        op.apply(b.var("z"))


def _reference(op, poly):
    """The tree applied node by node in `Polynomial` arithmetic."""
    ctx = poly.ctx
    if isinstance(op, OpMul):
        return op.poly * poly
    if isinstance(op, OpDeriv):
        return poly.diff(op.word)
    if isinstance(op, OpGradeScale):
        fac = {m: op.c0 + op.c1 * ctx.grade_of(m, op.grading) for m in poly.terms}
        if isinstance(op, OpGradeDivide):
            return Polynomial(ctx, {m: c / fac[m] for m, c in poly.terms.items()})
        return Polynomial(ctx, {m: c * fac[m] for m, c in poly.terms.items()})
    if isinstance(op, OpScalar):
        return poly * op.c
    if isinstance(op, OpScaled):
        return _reference(op.op, poly) * op.c
    if isinstance(op, OpSum):
        return sum((_reference(sub, poly) for sub in op.ops), ctx.zero())
    return _reference(op.outer, _reference(op.inner, poly))


@pytest.fixture
def xyw():
    c = VariableContext(["x", "y", "w"])
    # a non-integral shift, like the oscillator's n/2; the grade is >= 1/2
    c.add_grading("half", [1, Q(1, 2), 2], Q(1, 2))
    return c


def _random_tree(rng, ctx, depth):
    coeff = lambda: Q(rng.randrange(-3, 4), rng.randrange(1, 4))
    if depth == 0 or rng.random() < 0.3:
        kind = rng.randrange(5)
        if kind == 0:
            poly = ctx.zero()
            for _ in range(rng.randrange(1, 3)):
                poly = poly + ctx.mono({n: rng.randrange(3) for n in ctx.names}, coeff())
            return OpMul(poly)
        if kind == 1:
            return OpDeriv(rng.choices(ctx.names, k=rng.randrange(3)))
        if kind == 2:
            return OpGradeScale("half", coeff(), coeff())
        if kind == 3:
            # positive on grades >= 1/2, so never singular
            return OpGradeDivide("half", rng.randrange(3), rng.randrange(1, 3))
        return OpScalar(rng.choice((0, 1, Q(-2, 3))))
    kind = rng.randrange(3)
    if kind == 0:
        return OpSum([_random_tree(rng, ctx, depth - 1) for _ in range(rng.randrange(2, 4))])
    if kind == 1:
        return OpScaled(rng.choice((0, coeff())), _random_tree(rng, ctx, depth - 1))
    return OpCompose(_random_tree(rng, ctx, depth - 1), _random_tree(rng, ctx, depth - 1))


def test_compiled_paths_match_reference(xyw):
    rng = random.Random(sweep_seed() + 11)
    x, y, w = (xyw.var(n) for n in xyw.names)
    half = OpGradeDivide("half", 0, 1)
    trees = [OpScalar(0), OpScaled(0, OpMul(x)),
             OpCompose(OpSum((OpMul(x * y), OpDeriv("w"))),
                       OpSum((OpDeriv("xy"), OpScaled(Q(1, 3), OpMul(w)), OpScalar(2)))),
             OpCompose(half, OpSum((OpMul(x), OpMul(-x), OpGradeScale("half", 1, Q(1, 2)))))]
    trees += [_random_tree(rng, xyw, 3) for _ in range(60)]
    monos = [(a, b, c) for a in range(3) for b in range(3) for c in range(2)]
    for tree, cols in zip(trees, compile_ops(trees, xyw, monos)):
        assert set(monos) <= set(cols)
        for m, img in cols.items():
            assert img == _reference(tree, Polynomial(xyw, {m: Q(1)})).terms
            assert all(type(v) is int or v.denominator != 1 for v in img.values())
        p = Polynomial(xyw, {m: coeff for m, coeff in zip(monos, (Q(1, 2), -3, 5))})
        assert tree.apply(p) == _reference(tree, p)
    assert flatten(trees[0], xyw) == [] and flatten(trees[1], xyw) == []


def test_compile_shares_repeated_operators(xyw):
    x = xyw.var("x")
    a, b = OpScaled(Q(1, 2), OpMul(x)), OpDeriv("x")
    cols = compile_ops([a, b, a], xyw, [(1, 0, 0)])
    assert cols[0] is cols[2] and cols[0] is not cols[1]
    assert clear_denominators(cols) == 2
    # scaled once: (1/2) * 2
    assert cols[0][(1, 0, 0)] == {(2, 0, 0): 1}


def test_compile_raises_context_and_singular_errors(zctx):
    other = VariableContext(["z"])
    with pytest.raises(ContextMismatchError):
        compile_ops([OpSum((OpDeriv("z"), OpMul(other.var("z"))))], zctx, [(1,)])
    # z. then 1/(grade - 2): singular where z lands on z^2
    op = OpCompose(OpGradeDivide("deg", -2, 1), OpMul(zctx.var("z")))
    with pytest.raises(SingularGradeError) as err:
        compile_ops([op], zctx, [(0,), (1,)])
    assert err.value.monomial == (2,) and err.value.grade == 2
