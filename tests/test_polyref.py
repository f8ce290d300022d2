import random
from fractions import Fraction as Q

import pytest

from orbitq.opcalc import VariableContext
from polyref import (mono, one, pochhammer, poly_mul_terms, sweep_seed, var,
                     zero)


@pytest.fixture
def ctx():
    c = VariableContext(["x", "y", "z"])
    c.add_grading("deg", [1, 1, 1], 0)
    return c


def test_ring_identities(ctx):
    x, y = var(ctx, "x"), var(ctx, "y")
    assert (x + y) * (x - y) == x * x - y * y
    assert (Q(2, 3) * x) * (Q(3, 2) * x) == x * x
    # exponents are non-negative ints
    with pytest.raises(ValueError):
        mono(ctx, {"x": Q(1, 2)})
    with pytest.raises(ValueError):
        mono(ctx, {"x": -1})


def test_mul_is_exact_no_drift(ctx):
    x = var(ctx, "x")
    p = Q(1, 3) * x + Q(1, 6)
    assert 6 * p == 2 * x + 1


def test_zero_pruning(ctx):
    x = var(ctx, "x")
    assert not (x - x).terms
    # the raw term product drops coefficients that cancel, too
    assert poly_mul_terms((x + 1).terms, (x - 1).terms) == (x * x - 1).terms


def test_diff_basic(ctx):
    x, y = var(ctx, "x"), var(ctx, "y")
    assert (x ** 3).diff(["x"]) == 3 * x * x
    assert (x * x * y + x * y * y).diff(["x"]) == 2 * x * y + y * y


def test_diff_full_contraction():
    names = [f"x{p}_{i}" for p in range(1, 5) for i in (1, 2)]
    c = VariableContext(names)
    m = one(c)
    for p in range(1, 5):
        m = m * var(c, f"x{p}_1")
    assert m.diff([f"x{p}_1" for p in range(1, 5)]) == one(c)


def _random_poly(rng, ctx, nterms=4):
    p = zero(ctx)
    for _ in range(nterms):
        coeff = Q(rng.randrange(-6, 7), rng.randrange(1, 5))
        exps = {n: rng.randrange(4) for n in ctx.names}
        p = p + mono(ctx, exps, coeff)
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


def test_pochhammer():
    assert pochhammer(Q(3, 2), 2) == Q(15, 4)
    assert pochhammer(Q(3, 2), 0) == 1
    fact = 1
    for n in range(1, 8):
        fact *= n
        assert pochhammer(1, n) == fact
