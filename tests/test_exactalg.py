import random
from fractions import Fraction as Q

import pytest

from orbitq import sweep_seed
from orbitq.exactalg import ContextMismatchError, VariableContext, poly_mul_terms


@pytest.fixture
def ctx():
    c = VariableContext(["x", "y", "z"])
    c.add_grading("deg", [1, 1, 1], 0)
    return c


def test_ring_identities(ctx):
    x, y = ctx.var("x"), ctx.var("y")
    assert (x + y) * (x - y) == x * x - y * y
    assert (Q(2, 3) * x) * (Q(3, 2) * x) == x * x
    # exponents are non-negative ints
    with pytest.raises(ValueError):
        ctx.mono({"x": Q(1, 2)})
    with pytest.raises(ValueError):
        ctx.mono({"x": -1})


def test_mul_is_exact_no_drift(ctx):
    x = ctx.var("x")
    p = Q(1, 3) * x + Q(1, 6)
    assert 6 * p == 2 * x + 1


def test_zero_pruning(ctx):
    x = ctx.var("x")
    assert not (x - x).terms
    # the raw term product drops coefficients that cancel, too
    assert poly_mul_terms((x + 1).terms, (x - 1).terms) == (x * x - 1).terms


def test_diff_basic(ctx):
    x, y = ctx.var("x"), ctx.var("y")
    assert (x ** 3).diff(["x"]) == 3 * x * x
    assert (x * x * y + x * y * y).diff(["x"]) == 2 * x * y + y * y


def test_diff_full_contraction():
    names = [f"x{p}_{i}" for p in range(1, 5) for i in (1, 2)]
    c = VariableContext(names)
    m = c.one()
    for p in range(1, 5):
        m = m * c.var(f"x{p}_1")
    assert m.diff([f"x{p}_1" for p in range(1, 5)]) == c.one()


def test_context_mismatch():
    a = VariableContext(["x"])
    b = VariableContext(["x"])
    with pytest.raises(ContextMismatchError):
        a.var("x") * b.var("x")


def test_grade_of_shift_only():
    c = VariableContext(["x"])
    c.add_grading("e", [0], Q(5, 2))
    assert c.grade_of((0,), "e") == Q(5, 2)


def test_grade_of_eigenvalue_formula():
    # section grade p + z + (m+1)/2 realized as a weighted monomial grade
    m = 10
    c = VariableContext(["f0", "n1"])
    c.add_grading("E", [1, 1], Q(m + 1, 2))
    assert c.grade_of((0, 0), "E") == Q(11, 2)
    assert c.grade_of((3, 2), "E") == Q(21, 2)


def test_grade_additivity_random():
    rng = random.Random(sweep_seed())
    c = VariableContext(["x", "y", "z"])
    c.add_grading("g", [Q(1, 2), 2, 3], Q(7, 3))
    shift = Q(7, 3)
    for _ in range(50):
        e1 = tuple(rng.randrange(5) for _ in range(3))
        e2 = tuple(rng.randrange(5) for _ in range(3))
        (uv,) = (c.mono(dict(zip(c.names, e1))) * c.mono(dict(zip(c.names, e2)))).terms
        assert c.grade_of(uv, "g") == c.grade_of(e1, "g") + c.grade_of(e2, "g") - shift


def _random_poly(rng, ctx, nterms=4):
    p = ctx.zero()
    for _ in range(nterms):
        coeff = Q(rng.randrange(-6, 7), rng.randrange(1, 5))
        exps = {n: rng.randrange(4) for n in ctx.names}
        p = p + ctx.mono(exps, coeff)
    return p


def test_ring_axioms_random(ctx):
    rng = random.Random(sweep_seed() + 1)
    for _ in range(30):
        a, b, c = (_random_poly(rng, ctx) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_mixed_partials_commute(ctx):
    rng = random.Random(sweep_seed() + 2)
    for _ in range(30):
        p = _random_poly(rng, ctx)
        assert p.diff(["x", "y"]) == p.diff(["y", "x"])

