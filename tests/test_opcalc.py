import random
from fractions import Fraction as Q

import pytest

from orbitq import sweep_seed
from orbitq.exactalg import ContextMismatchError, VariableContext
from orbitq.opcalc import (OpCompose, OpDeriv, OpGradeDivide, OpGradeScale,
                           OpMul, OpScalar, OpScaled, OpSum, SingularGradeError,
                           commutator, compile_ops, solve_linear_system,
                           span_structure)


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
