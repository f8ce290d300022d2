import random
from collections import Counter
from fractions import Fraction as Q
from itertools import combinations
from math import gcd, lcm, perm
from operator import add, sub

import pytest

from orbitq import opcalc
from orbitq.opcalc import (DERIV, GRADE, ContextMismatchError, SingularGradeError,
                           VariableContext, automorphisms, bracket, combination, compile_ops,
                           deriv, grade_divide, grade_scale, mul, scalar, span_structure)
from orbitq.sparse import Reducer, axpy
from polyref import Polynomial, mono, one, sweep_seed, var, zero


def narrow(x):
    """x as an `int` when it is integral, else as a `Fraction`."""
    return x.numerator if x.denominator == 1 else x


def _decode(table, cols):
    """`compile_ops` diagonals as columns keyed by monomial: per operator,
    {monomial: {monomial: value}} in number order, each column in shift
    order, each value v/d for the registry's d, an `int` where integral."""
    return [{table[m]: {tuple(map(add, table[m], diags.shifts.vecs[s])):
                        narrow(Q(v[m], diags.shifts.d)) for s, v in diags.items() if v[m]}
             for m in range(len(table))}
            for diags in cols]


def _undiag(table, shifts, res, basis):
    """A `bracket` residual over the range `basis` as
    {(image monomial, source number): value}."""
    return {(tuple(map(add, table[m], shifts.vecs[s])), m): x
            for s, v in res.items() for m, x in zip(basis, v) if x}


def _minus(a, b, n):
    """a - b for {shift id: value list} dicts over n sources, all-zero
    lists dropped, a missing list read as zeros."""
    zeros, out = [0] * n, {}
    for s in a.keys() | b.keys():
        v = list(map(sub, a.get(s, zeros), b.get(s, zeros)))
        if any(v):
            out[s] = v
    return out


def _residual(cols, pair, combo, basis):
    """[op_i, op_j] - sum_k combo[k] op_k on the range `basis`, for pair =
    (i, j), as {shift id: value list}, all-zero lists dropped: `bracket`
    less each term, read off the raw `Diagonals` lists one at a time."""
    i, j = pair
    res = bracket(cols[i], cols[j], basis)
    for k, c in combo.items():
        term = {s: [c * x for x in v[basis.start:basis.stop]] for s, v in cols[k].items()}
        res = _minus(res, term, len(basis))
    return res


def _apply(op, poly):
    """`op` applied to `poly` through its compiled columns."""
    assert op.ctx is poly.ctx
    (cols,) = _decode(*compile_ops([op], poly.terms))
    out: dict = {}
    for m, c in poly.terms.items():
        axpy(out, c, cols[m])
    return Polynomial(poly.ctx, out)


def _path_reference(op, m):
    """`op` applied to x^m one path and one factor at a time, as the `Op`
    docstring defines the factors, in `Fraction` arithmetic."""
    out: dict = {}
    for vec, coef, factors in op.paths:
        c = Q(coef)
        for f in factors:
            if f[0] == DERIV:
                _, i, r, k = f
                c = c and c * perm(m[i] + r, k)
            else:
                _, terms, b, q, divide, _, _ = f
                g = Q(sum(a * m[i] for i, a in terms) + b, q)
                c = c and (c / g if divide else c * g)
        axpy(out, 1, {tuple(map(add, m, vec)): c} if c else {})
    return out


def _check_compiled(ops, monos):
    """Compile `ops` on `monos` and check the value and numbering contracts:
    every value is an `int` and gcd(d, values) = 1, so d is the least
    denominator of the values v/d; `table` lists exactly the compiled
    monomials, the inputs first, and idx holds, for each input monomial
    m, the number of m + shift or None.  Returns (table, cols)."""
    table, cols = compile_ops(ops, monos)
    shifts = cols[0].shifts
    sources = list(dict.fromkeys(monos))
    assert table[:len(sources)] == sources
    number = {m: k for k, m in enumerate(table)}
    for s, vec in enumerate(shifts.vecs):
        assert shifts.idx[s] == [number.get(tuple(map(add, m, vec))) for m in sources]
    values = [x for col in cols for v in col.values() for x in v]
    assert all(type(x) is int for x in values) and gcd(shifts.d, *values) == 1
    return table, cols


@pytest.fixture
def zctx():
    c = VariableContext(["z"])
    c.add_grading("deg", [1], 0)
    return c


def test_weyl_halfshift(zctx):
    # (z d/dz + 1/2) z^2 = (5/2) z^2
    op = mul(var(zctx, "z")) @ deriv(zctx, ("z",)) + scalar(zctx, Q(1, 2))
    z2 = var(zctx, "z") ** 2
    assert _apply(op, z2) == Q(5, 2) * z2


def test_grade_divisor(zctx):
    m = var(zctx, "z") ** 2
    op = grade_divide(zctx, "deg", 1, 1) @ grade_divide(zctx, "deg", 0, 1)
    assert _apply(op, m) == Q(1, 6) * m
    with pytest.raises(SingularGradeError):
        _apply(grade_divide(zctx, "deg", -2, 1), m)


def test_grade_divisor_quartic_example():
    names = [f"x{p}_{i}" for p in range(1, 5) for i in (1, 2)]
    c = VariableContext(names)
    c.add_grading("beta", [1, 1, 0, 0, 0, 0, 0, 0], 1)
    m = one(c)
    for p in range(1, 5):
        m = m * var(c, f"x{p}_1")
    op = grade_divide(c, "beta", 1, 1) @ grade_divide(c, "beta", 0, 1)
    assert _apply(op, m) == Q(1, 6) * m


def test_commutator_canonical_pair(zctx):
    z = var(zctx, "z")
    a, b = deriv(zctx, ("z",)), mul(z)
    com = a @ b - b @ a
    for n in range(5):
        assert _apply(com, z ** n) == z ** n


def test_commutator_z2_d2(zctx):
    z = var(zctx, "z")
    a, b = mul(z * z), deriv(zctx, ("z", "z"))
    com = a @ b - b @ a
    assert _apply(com, z) == -6 * z


def test_commutator_grading_raises(zctx):
    # [E, z.] = z. when z carries grade 1
    z = var(zctx, "z")
    e, times_z = grade_scale(zctx, "deg", 0, 1), mul(z)
    com = e @ times_z - times_z @ e
    for n in range(4):
        assert _apply(com, z ** n) == z ** (n + 1)


def test_compile_identity(zctx):
    basis = [(0,), (1,), (2,)]
    (cols,) = _decode(*compile_ops([scalar(zctx, 1)], basis))
    assert cols == {m: {m: Q(1)} for m in basis}


def test_matrix_escape_flagged(zctx):
    # z. sends (0,) outside the basis; the column of (1,) is compiled too,
    # so a product of two operators on the basis is a column lookup
    zmul, d = _decode(*compile_ops([mul(var(zctx, "z")), deriv(zctx, ("z",))], [(0,)]))
    assert set(zmul[(0,)]) - {(0,)} == {(1,)}
    assert zmul == {(0,): {(1,): Q(1)}, (1,): {(2,): Q(1)}}
    assert d == {(0,): {}, (1,): {(0,): Q(1)}}


def test_matrix_with_target(zctx):
    # read against the target basis [(0,), (1,)], the column of (0,) is the
    # single entry (1, 0) = 1 and nothing escapes
    target = [(0,), (1,)]
    (zmul,) = _decode(*compile_ops([mul(var(zctx, "z"))], [(0,)]))
    index = {m: i for i, m in enumerate(target)}
    assert set(zmul[(0,)]) <= set(index)
    entries = {(index[m], 0): c for m, c in zmul[(0,)].items()}
    assert entries == {(1, 0): Q(1)}


def _osc_triple(zctx):
    z = var(zctx, "z")
    h = mul(z) @ deriv(zctx, ("z",)) + scalar(zctx, Q(1, 2))
    return [mul(z * z), h, deriv(zctx, ("z", "z"))]


def test_span_structure_sl2(zctx):
    basis = [(n,) for n in range(7)]
    _, cols = compile_ops(_osc_triple(zctx), basis)
    rep = span_structure(cols, range(len(basis)), len(basis))
    assert rep.closed and rep.independent and rep.rank == 3
    # the diagonals are the operators times d, so the constants are too
    d = cols[0].shifts.d
    assert d == 2
    # [z^2, d^2] = -4(z d + 1/2)
    assert rep.structure_constants[(0, 2)] == {1: Q(-4) * d}
    # [z^2, h] = -2 z^2 and [h, d^2] = -2 d^2
    assert rep.structure_constants[(0, 1)] == {0: Q(-2) * d}
    assert rep.structure_constants[(1, 2)] == {2: Q(-2) * d}


def test_span_structure_reports_failure(zctx):
    z = var(zctx, "z")
    # {z., d} brackets to a scalar, which is not in the span
    basis = [(n,) for n in range(4)]
    _, cols = compile_ops([mul(z), deriv(zctx, ("z",))], basis)
    rep = span_structure(cols, range(len(basis)), len(basis))
    assert not rep.closed
    assert rep.failures == [(0, 1)]


def test_span_structure_rank_deficiency(zctx):
    z = var(zctx, "z")
    basis = [(n,) for n in range(3)]
    _, cols = compile_ops([mul(z), 2 * mul(z)], basis)
    rep = span_structure(cols, range(len(basis)), len(basis))
    assert not rep.independent
    assert rep.rank == 1


def _zd(ctx, a, b):
    """z^a (d/dz)^b."""
    return mul(var(ctx, "z") ** a) @ deriv(ctx, "z" * b)


def test_span_structure_grows_prefix_past_operators_zero_on_first_sources(zctx):
    # z^16 d^16 and z^17 d^16 vanish on z^0..z^15, so the prefix doubles
    # from 8 sources to 32 before the rank is 4; [d, z^17 d^16] = 17 z^16 d^16
    # is then solved there.  [d, W] and [z^17 d^16, W] with
    # W = z d + z^34 d^34 equal -d and z^17 d^16 on the prefix and leave the
    # span only from z^33 on, so they fail only through the rest-range check
    ops = [deriv(zctx, "z"), _zd(zctx, 16, 16), _zd(zctx, 17, 16),
           _zd(zctx, 1, 1) + _zd(zctx, 34, 34)]
    _, cols = compile_ops(ops, [(n,) for n in range(40)])
    rep = span_structure(cols, range(40), 40)
    assert rep.rank == 4 and rep.independent and not rep.closed
    assert rep.structure_constants == {(0, 2): {1: 17}, (1, 3): {}}
    assert rep.failures == [(0, 1), (0, 3), (1, 2), (2, 3)]


def test_span_structure_fails_bracket_that_leaves_span_after_prefix(zctx):
    # G = z d + z^17 d^17 and z^8 d^8, which vanishes on z^0..z^7, so the
    # prefix is z^0..z^15; [z, G] = -z - 17 z^17 d^16 is -z on it and
    # leaves the span of the three on z^16, the one source after it
    ops = [mul(var(zctx, "z")), _zd(zctx, 1, 1) + _zd(zctx, 17, 17), _zd(zctx, 8, 8)]
    _, cols = compile_ops(ops, [(n,) for n in range(17)])
    rep = span_structure(cols, range(17), 17)
    assert rep.rank == 3 and rep.independent
    assert rep.failures == [(0, 1), (0, 2)]
    assert rep.structure_constants == {(1, 2): {}}


def _span_reference(cols, basis):
    """span_structure's fields by the full-range algorithm: every operator
    and bracket stacked over all of `basis` into one `Reducer`."""
    def stacked(diags):
        return {(s, basis.start + p): x for s, v in diags.items() for p, x in enumerate(v) if x}

    span, sc, failures = Reducer(), {}, []
    independent = all([span.add(k, stacked({s: v[basis.start:basis.stop]
                                             for s, v in col.items()}))
                       for k, col in enumerate(cols)])
    for i, j in combinations(range(len(cols)), 2):
        combo = span.solve(stacked(bracket(cols[i], cols[j], basis)))
        if combo is None:
            failures.append((i, j))
        else:
            sc[(i, j)] = combo
    return span.rank, not failures, independent, sc, failures


def _random_span_ops(rng, ctx):
    """A random operator set over one variable: half the time a mixed basis
    of a closed algebra, else sums of c z^a d^b (some of high order, zero on
    many first sources), some graded, with multiples and sums of earlier
    operators mixed in."""
    coeff = lambda: Q(rng.randrange(-3, 4), rng.randrange(1, 3))
    if rng.random() < 0.4:
        family = rng.choice([[(2, 0), (1, 1), (0, 2)], [(0, 0), (1, 0), (0, 1)],
                             [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)],
                             [(0, 1), (1, 1), (2, 1)]])
        base = [_zd(ctx, a, b) for a, b in family]
        ops = [op + sum((coeff() * base[j] for j in rng.sample(range(len(base)), 2)
                         if base[j] is not op), scalar(ctx, 0)) for op in base]
        rng.shuffle(ops)
        return ops

    def term():
        op = (coeff() or 1) * _zd(ctx, rng.randrange(4), rng.choice((0, 1, 2, rng.randrange(24))))
        if rng.random() < 0.2:
            op = grade_scale(ctx, "deg", rng.randrange(-3, 3), rng.randrange(2)) @ op
        return op

    ops = []
    for _ in range(rng.randrange(1, 7)):
        r = rng.random()
        if ops and r < 0.15:
            ops.append(rng.randrange(1, 4) * rng.choice(ops))
        elif len(ops) > 1 and r < 0.3:
            a, b = rng.sample(ops, 2)
            ops.append(a + rng.randrange(-2, 3) * b)
        else:
            ops.append(sum((term() for _ in range(rng.randrange(2))), term()))
    return ops


def _unstable_reference(cols, sc, check):
    """Per pair of `sc`, the first source of the range `check` where its
    constants fail, one source at a time."""
    out = []
    for (i, j), combo in sc.items():
        m = next((m for m in check if _residual(cols, (i, j), combo, range(m, m + 1))), None)
        if m is not None:
            out.append(((i, j), m))
    return out


def test_span_structure_matches_full_range_reference(zctx):
    # rank, flags, failures, constants with their values' types and the
    # order of every dict, and the unstable witnesses, on the compiled int
    # diagonals and on the exact values they stand for, over ranges from 0
    # and from inside the numbering, each split into a solve part and a
    # check part
    rng = random.Random(sweep_seed() + 17)
    witnessed = 0
    for _ in range(200):
        ops = _random_span_ops(rng, zctx)
        n = rng.randrange(3, 50)
        _, cols = compile_ops(ops, [(k,) for k in range(n)])
        if rng.random() >= 0.5:  # the exact values, not scaled by d
            d = cols[0].shifts.d
            for v in {id(v): v for col in cols for v in col.values()}.values():
                v[:] = [narrow(Q(x, d)) for x in v]
        start = rng.choice((0, 0, rng.randrange(n)))
        basis = range(start, rng.choice((n, rng.randrange(start, n + 1))))
        rep = span_structure(cols, basis, n)
        got = (rep.rank, rep.closed, rep.independent, rep.structure_constants, rep.failures,
               rep.unstable)
        want = _span_reference(cols, basis)
        want += (_unstable_reference(cols, want[3], range(basis.stop, n)) if want[1] else [],)
        assert got == want
        assert ([[(k, type(c)) for k, c in combo.items()] for combo in got[3].values()]
                == [[(k, type(c)) for k, c in combo.items()] for combo in want[3].values()])
        assert list(got[3]) == list(want[3])
        witnessed += bool(rep.unstable)
    assert witnessed


def test_compile_scales_to_least_denominator(zctx):
    # v/d is the value of the paths applied one monomial at a time, and d
    # the lcm of those values' denominators; each set lists its first
    # operator twice, and their one `Diagonals` is scaled once.  Some sets
    # are integral, with d = 1
    rng = random.Random(sweep_seed() + 19)
    ds = set()
    for _ in range(100):
        ops = _random_span_ops(rng, zctx)
        ops += ops[:1]
        table, cols = _check_compiled(ops, [(k,) for k in range(rng.randrange(3, 30))])
        d = cols[0].shifts.d
        want = [_path_reference(op, m) for op in ops for m in table]
        assert d == lcm(*(c.denominator for ref in want for c in ref.values()))
        assert want == [{(m[0] + cols[0].shifts.vecs[s][0],): Q(v[k], d)
                         for s, v in col.items() if v[k]}
                        for col in cols for k, m in enumerate(table)]
        ds.add(d)
    assert 1 in ds and len(ds) > 1


def test_extensionality_random(zctx):
    rng = random.Random(sweep_seed() + 3)
    z = var(zctx, "z")
    leaves = [mul(z), deriv(zctx, ("z",)), scalar(zctx, Q(1, 3)),
              grade_scale(zctx, "deg", 1, 2)]
    for _ in range(200):
        a, b = rng.choice(leaves), rng.choice(leaves)
        p = sum((Q(rng.randrange(-3, 4)) * z ** k for k in range(4)),
                zero(zctx))
        assert _apply(a + b, p) == _apply(a, p) + _apply(b, p)
        assert _apply(a @ b, p) == _apply(a, _apply(b, p))
        assert _apply(Q(2, 5) * a, p) == Q(2, 5) * _apply(a, p)


def test_jacobi_identity(zctx):
    z = var(zctx, "z")
    ops = [mul(z * z), deriv(zctx, ("z",)), grade_scale(zctx, "deg", 1, 1)]
    p = z ** 3 + 2 * z
    a, b, c = ops
    bc, ca, ab = b @ c - c @ b, c @ a - a @ c, a @ b - b @ a
    total = _apply(a @ bc - bc @ a, p) + _apply(b @ ca - ca @ b, p) + _apply(c @ ab - ab @ c, p)
    assert not total.terms


def test_deriv_follows_context_order():
    xy = VariableContext(["x", "y"])
    assert (_apply(deriv(xy, ("y",)), var(xy, "x") * var(xy, "y") ** 2)
            == 2 * var(xy, "x") * var(xy, "y"))
    yx = VariableContext(["y", "x"])
    # same exponent tuple (1, 2), now meaning y*x^2
    assert _apply(deriv(yx, ("y",)), var(yx, "y") * var(yx, "x") ** 2) == var(yx, "x") ** 2


def test_ops_of_different_contexts_do_not_mix():
    a, b = VariableContext(["z"]), VariableContext(["z"])
    op, other = mul(var(a, "z")), mul(var(b, "z"))
    assert _apply(op, var(a, "z")) == var(a, "z") ** 2
    for combine in (lambda: op + other, lambda: op - other, lambda: op @ other,
                    lambda: other @ op - op @ other):
        with pytest.raises(ContextMismatchError):
            combine()
    with pytest.raises(ContextMismatchError):
        compile_ops([op, other], [(1,)])


def test_context_mismatch():
    a = VariableContext(["x"])
    b = VariableContext(["x"])
    with pytest.raises(ContextMismatchError):
        var(a, "x") * var(b, "x")


def test_context_rejects_duplicate_names_and_miscounted_gradings():
    with pytest.raises(ValueError):
        VariableContext(["x", "y", "x"])
    c = VariableContext(["x", "y"])
    for weights in ([1], [1, 1, 1]):
        with pytest.raises(ValueError):
            c.add_grading("g", weights)
    assert not c.gradings


def test_mul_drops_zero_terms(zctx):
    # the library's `Polynomial` is a bare record, so `mul` filters zeros:
    # zero leaves no path, as for `scalar` and `c * op`
    want = mul(opcalc.Polynomial(zctx, {(1,): Q(2)})).paths
    assert mul(opcalc.Polynomial(zctx, {(1,): Q(2), (3,): Q(0)})).paths == want
    assert mul(opcalc.Polynomial(zctx, {(0,): 0})).paths == ()


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
        (uv,) = (mono(c, dict(zip(c.names, e1))) * mono(c, dict(zip(c.names, e2)))).terms
        assert c.grade_of(uv, "g") == c.grade_of(e1, "g") + c.grade_of(e2, "g") - shift


# Test-local operator descriptions: nested tuples that `_build` turns into
# an `Op` with the combinators and `_reference` evaluates node by node.

def _build(desc, ctx):
    kind, *args = desc
    if kind == "mul":
        return mul(*args)
    if kind == "deriv":
        return deriv(ctx, *args)
    if kind == "scale":
        return grade_scale(ctx, *args)
    if kind == "divide":
        return grade_divide(ctx, *args)
    if kind == "scalar":
        return scalar(ctx, *args)
    if kind == "sum":
        return sum((_build(sub, ctx) for sub in args[0]), scalar(ctx, 0))
    if kind == "scaled":
        return args[0] * _build(args[1], ctx)
    return _build(args[0], ctx) @ _build(args[1], ctx)


def _reference(desc, poly):
    """The description applied node by node in `Polynomial` arithmetic."""
    ctx = poly.ctx
    kind, *args = desc
    if kind == "mul":
        return args[0] * poly
    if kind == "deriv":
        return poly.diff(args[0])
    if kind in ("scale", "divide"):
        grading, c0, c1 = args
        fac = {m: Q(c0) + Q(c1) * ctx.grade_of(m, grading) for m in poly.terms}
        if kind == "divide":
            return Polynomial(ctx, {m: c / fac[m] for m, c in poly.terms.items()})
        return Polynomial(ctx, {m: c * fac[m] for m, c in poly.terms.items()})
    if kind == "scalar":
        return poly * Q(args[0])
    if kind == "scaled":
        return _reference(args[1], poly) * Q(args[0])
    if kind == "sum":
        return sum((_reference(sub, poly) for sub in args[0]), zero(ctx))
    return _reference(args[0], _reference(args[1], poly))


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
            poly = zero(ctx)
            for _ in range(rng.randrange(1, 3)):
                poly = poly + mono(ctx, {n: rng.randrange(3) for n in ctx.names}, coeff())
            return ("mul", poly)
        if kind == 1:
            return ("deriv", rng.choices(ctx.names, k=rng.randrange(3)))
        if kind == 2:
            return ("scale", "half", coeff(), coeff())
        if kind == 3:
            # positive on grades >= 1/2, so never singular
            return ("divide", "half", rng.randrange(3), rng.randrange(1, 3))
        return ("scalar", rng.choice((0, 1, Q(-2, 3))))
    kind = rng.randrange(3)
    if kind == 0:
        return ("sum", [_random_tree(rng, ctx, depth - 1) for _ in range(rng.randrange(2, 4))])
    if kind == 1:
        return ("scaled", rng.choice((0, coeff())), _random_tree(rng, ctx, depth - 1))
    return ("compose", _random_tree(rng, ctx, depth - 1), _random_tree(rng, ctx, depth - 1))


def _seeded_trees(xyw):
    """Four fixed descriptions, then 60 random ones of depth <= 3."""
    rng = random.Random(sweep_seed() + 11)
    x, y, w = (var(xyw, n) for n in xyw.names)
    half = ("divide", "half", 0, 1)
    trees = [("scalar", 0), ("scaled", 0, ("mul", x)),
             ("compose", ("sum", [("mul", x * y), ("deriv", "w")]),
                         ("sum", [("deriv", "xy"), ("scaled", Q(1, 3), ("mul", w)), ("scalar", 2)])),
             ("compose", half, ("sum", [("mul", x), ("mul", -x), ("scale", "half", 1, Q(1, 2))]))]
    return trees + [_random_tree(rng, xyw, 3) for _ in range(60)]


def test_compiled_paths_match_reference(xyw):
    trees = _seeded_trees(xyw)
    ops = [_build(tree, xyw) for tree in trees]
    monos = [(a, b, c) for a in range(3) for b in range(3) for c in range(2)]
    for tree, op, cols in zip(trees, ops, _decode(*compile_ops(ops, monos))):
        assert set(monos) <= set(cols)
        for m, img in cols.items():
            assert img == _reference(tree, Polynomial(xyw, {m: Q(1)})).terms
            assert all(type(v) is int or v.denominator != 1 for v in img.values())
        p = Polynomial(xyw, {m: coeff for m, coeff in zip(monos, (Q(1, 2), -3, 5))})
        assert _apply(op, p) == _reference(tree, p)
    assert ops[0].paths == () and ops[1].paths == ()


def test_composition_folds_paths_at_construction(xyw):
    # `@` stores each path folded: regrouping a composition or moving a
    # scalar across it leaves the stored paths as they are, and an outer
    # factor is read after the inner shift, here (1, -1, 0): the grade
    # 1 + (2x + y + 4w + 1)/2 of x^(e + run) has B = 3 + 2 - 1 over Q = 2
    ops = [_build(tree, xyw) for tree in _seeded_trees(xyw)]
    for a, b, c in zip(ops, ops[1:], ops[2:]):
        assert ((a @ b) @ c).paths == (a @ (b @ c)).paths
        for k in (0, Q(-2, 3)):
            assert ((k * a) @ b).paths == (k * (a @ b)).paths
    op = grade_divide(xyw, "half", 1, 1) @ mul(var(xyw, "x")) @ deriv(xyw, "y")
    assert op.paths == (((1, -1, 0), 1, ((DERIV, 1, 0, 1),
                                         (GRADE, ((0, 2), (1, 1), (2, 4)), 4, 2, True, "half",
                                          (1, -1, 0)))),)


def _coupling_trees(xyw):
    """Neighbours that `bracket` skips or must not skip: x. and d/dy, and
    yw. and d/dx, move and read disjoint variables; d/dy and x. meet a
    grade factor that reads every variable, and d/dx meets x. and xy.,
    which move the variable it reads; xy. and yw. read nothing."""
    x, y, w = (var(xyw, n) for n in xyw.names)
    return [("mul", x), ("deriv", "y"), ("scale", "half", 1, 2), ("mul", x), ("deriv", "x"),
            ("mul", x * y), ("mul", y * w), ("deriv", "x")]


def _bracket_reference(ctx, trees, table, d, basis, c=None):
    """[A, B] - c C for the descriptions (A, B, C) = `trees` on the
    monomial numbers `basis`, one monomial at a time in `Fraction`
    arithmetic, as {(image monomial, source number): value}, times d^2:
    the compiled diagonals hold d times each operator, so their bracket
    is d^2 times the operators', and a term enters at d times c.  No term
    when c is None."""
    ta, tb, tc = trees
    want = {}
    for k in basis:
        x = Polynomial(ctx, {table[k]: Q(1)})
        res = _reference(ta, _reference(tb, x)) - _reference(tb, _reference(ta, x))
        if c is not None:
            res = res - c * _reference(tc, x)
        want.update(((m2, k), v * d * d) for m2, v in res.terms.items())
    return want


def test_stacked_bracket_matches_reference(xyw):
    # `bracket` less `combination`, [A, B] - c C over a range of monomial
    # numbers, against the descriptions applied one monomial at a time in
    # `Fraction` arithmetic; the second range does not start at 0, like the
    # level-L re-check's
    trees = _seeded_trees(xyw) + _coupling_trees(xyw)
    ops = [_build(tree, xyw) for tree in trees]
    monos = [(a, b, c) for a in range(3) for b in range(3) for c in range(2)]
    table, cols = compile_ops(ops, monos)
    shifts = cols[0].shifts
    d = shifts.d
    for basis in (range(len(monos)), range(7, len(monos))):
        for i, triple in enumerate(zip(trees, trees[1:] + trees[:1], trees[2:] + trees[:2])):
            c = Q(i - 30, 7)
            combo = {(i + 2) % len(ops): c * d} if i % 2 else {}
            full = bracket(cols[i], cols[(i + 1) % len(ops)], basis)
            total = combination(cols, combo, basis)
            want = _bracket_reference(xyw, triple, table, d, basis, c if combo else None)
            assert _undiag(table, shifts, _minus(full, total, len(basis)), basis) == want
            assert all(len(v) == len(basis) and any(v) for v in [*full.values(), *total.values()])
    mx, dy, scale, _, dx, mxy, myw, _ = cols[-8:]
    sid = shifts.ids.get
    # the read sets: a grade factor reads every variable of nonzero weight
    assert (mx.reads, dy.reads, scale.reads, dx.reads, myw.reads) == (
        {sid((1, 0, 0)): 0}, {sid((0, -1, 0)): 0b010}, {sid((0, 0, 0)): 0b111},
        {sid((-1, 0, 0)): 0b001}, {sid((0, 1, 1)): 0})
    basis = range(len(monos))
    assert bracket(mx, dy, basis) == {} and bracket(myw, dx, basis) == {}
    assert bracket(mxy, myw, basis) == {}
    # [1 + 2 grade, x.] = 2 x., [d/dx, xy.] = y.: coupled, so not skipped
    assert bracket(scale, mx, basis) and bracket(dx, mxy, basis) and bracket(dy, scale, basis)
    # a constant diagonal on one side or both (the multiple of a monomial,
    # a scalar), beside diagonals that read: on every input, on the inputs
    # x^2 y^b w^c, whose images under x. are reached monomials, and on an
    # empty range
    x, y, w = (var(xyw, n) for n in xyw.names)
    trees = [("mul", x * y), ("scalar", Q(-2, 3)), ("sum", [("mul", x), ("deriv", "y")]),
             ("deriv", "xw"), ("scale", "half", 1, 2), ("mul", Q(3, 2) * w)]
    table, cols = compile_ops([_build(tree, xyw) for tree in trees], monos)
    shifts, d = cols[0].shifts, cols[0].shifts.d
    sid = shifts.ids.get
    assert cols[0].reads == {sid((1, 1, 0)): 0} and cols[1].reads == {sid((0, 0, 0)): 0}
    assert cols[2].reads == {sid((1, 0, 0)): 0, sid((0, -1, 0)): 0b010}
    assert all(table[k][0] == 2 and table[shifts.idx[sid((1, 0, 0))][k]][0] == 3
               and shifts.idx[sid((1, 0, 0))][k] >= len(monos) for k in range(12, 18))
    for basis in (range(len(monos)), range(12, 18), range(5, 5)):
        for i, j in combinations(range(len(trees)), 2):
            for k, c in ((i, None), ((j + 1) % len(trees), Q(j - 2, 5))):
                full = bracket(cols[i], cols[j], basis)
                total = combination(cols, {} if c is None else {k: c * d}, basis)
                want = _bracket_reference(xyw, (trees[i], trees[j], trees[k]), table, d, basis, c)
                assert _undiag(table, shifts, _minus(full, total, len(basis)), basis) == want
                assert all(len(v) == len(basis) and any(v)
                           for v in [*full.values(), *total.values()])
    # xy. and (3/2) w. both read nothing: skipped, and their bracket is 0
    assert bracket(cols[0], cols[5], range(len(monos))) == {}


def test_compile_reach_limits_values_past_the_inputs(xyw, zctx):
    # `reach` keeps the table, the index and the divisor check: the
    # operators it names have every value of the compile without it, each
    # other operator its values on the inputs alone, all read as v/d over
    # the least d of the values computed
    trees = _seeded_trees(xyw) + _coupling_trees(xyw)
    ops = [_build(tree, xyw) for tree in trees]
    monos = [(a, b, c) for a in range(3) for b in range(3) for c in range(2)]
    table, cols = _check_compiled(ops, monos)
    want, shifts = _decode(table, cols), cols[0].shifts
    assert len(table) > len(monos)
    for reach in ({0}, {1, 4}, set(range(0, len(ops), 3)), set()):
        got_table, got = compile_ops(ops, monos, reach)
        reg = got[0].shifts
        assert got_table == table and (reg.vecs, reg.idx) == (shifts.vecs, shifts.idx)
        assert [col.full for col in got] == [k in reach for k in range(len(ops))]
        values = [x for col in got for v in col.values() for x in v]
        assert all(type(x) is int for x in values) and gcd(reg.d, *values) == 1
        for k, col in enumerate(got):
            rows = range(len(table) if col.full else len(monos))
            assert all(len(v) == len(rows) for v in col.values())
            assert {table[m]: {tuple(map(add, table[m], reg.vecs[s])): Q(v[m], reg.d)
                               for s, v in col.items() if v[m]} for m in rows} == {
                table[m]: want[k][table[m]] for m in rows}
    # a divisor that vanishes only on a monomial past the inputs, z^2,
    # raises there, named alike, whether or not its operator is reached
    z = var(zctx, "z")
    ops = [mul(z), grade_divide(zctx, "deg", -2, 1)]
    for reach in (None, {0}, set()):
        with pytest.raises(SingularGradeError) as err:
            compile_ops(ops, [(0,), (1,)], reach)
        assert (err.value.monomial, err.value.grade) == ((2,), 2)


def _tuple_numbering(trees, ctx, monos):
    """`compile_ops`' numbering for operators of one path each, keyed by
    exponent tuples: `monos` without repeats, then the images of those
    operator by operator, source by source; these are the compiled
    monomials, and their count is returned too."""
    number = {m: k for k, m in enumerate(dict.fromkeys(monos))}
    for tree in trees:
        for m in list(number)[:len(set(monos))]:
            for t in _reference(tree, Polynomial(ctx, {m: Q(1)})).terms:
                number.setdefault(t, len(number))
    return list(number), len(number)


def test_compile_codes_number_like_tuples_at_digit_boundary():
    # d/dx^3 on x y^2 reaches (-2, 2): without the offset digit its code
    # would borrow from y and be that of x^4 y, the image of x^3 y under x.
    # Only the inputs are looked up from: x^4, reached from x^3, gets its
    # values but no index, so x^5, its image under x., gets no number
    ctx = VariableContext(["x", "y"])
    trees = [("deriv", "xxx"), ("mul", var(ctx, "x"))]
    monos = [(3, 0), (3, 1), (1, 2)]
    table, cols = compile_ops([_build(t, ctx) for t in trees], monos)
    want, size = _tuple_numbering(trees, ctx, monos)
    assert table == want and {(4, 1), (0, 1)} <= set(table) and (5, 0) not in table
    shifts = cols[0].shifts
    number = {m: k for k, m in enumerate(want)}
    for s, vec in enumerate(shifts.vecs):
        assert shifts.idx[s] == [number.get(tuple(map(add, m, vec))) for m in monos]
    for tree, got in zip(trees, _decode(table, cols)):
        assert got == {m: _reference(tree, Polynomial(ctx, {m: Q(1)})).terms for m in want[:size]}
    # with no negative shift there is no offset digit: in a base one too
    # small x^2, looked up from the input x, would carry into y and be
    # taken for y, which is numbered
    table, cols = compile_ops([mul(var(ctx, "x"))], [(1, 0), (0, 1)])
    assert table == [(1, 0), (0, 1), (2, 0), (1, 1)]
    assert cols[0].shifts.idx[0] == [2, 3]


def test_compile_numbers_monomials(zctx):
    # inputs first, in order and without repeats; then, in first-seen
    # order, what their images reach (z^3, from z. on z^2); what the images
    # of those reach (z^4) is not compiled and gets no number
    z = var(zctx, "z")
    d, zmul = deriv(zctx, "z"), mul(z)
    table, cols = compile_ops([d, zmul, zmul], [(2,), (0,), (2,), (1,)])
    assert table == [(2,), (0,), (1,), (3,)]
    assert cols[1] is cols[2] and cols[0] is not cols[1]
    shifts = cols[0].shifts
    assert shifts is cols[1].shifts
    # one diagonal each: d/dz moves by -1, z. by +1, in first-path order
    assert shifts.vecs[:2] == [(-1,), (1,)]
    assert cols[0] == {0: [2, 0, 1, 3]} and cols[1] == {1: [1, 1, 1, 1]}
    # the number of m + shift for each input m; z^0 - 1 is not a monomial
    assert shifts.idx[0] == [2, None, 1] and shifts.idx[1] == [3, 2, 0]
    assert _decode(table, cols)[0] == {(2,): {(1,): 2}, (0,): {}, (1,): {(0,): 1},
                                       (3,): {(2,): 3}}
    # diagonals in path order: z. before d/dz
    table, (col,) = compile_ops([zmul + d], [(1,)])
    assert table == [(1,), (2,), (0,)]
    assert [col.shifts.vecs[s] for s in col] == [(1,), (-1,)]
    assert list(_decode(table, [col])[0][(1,)].items()) == [((2,), 1), ((0,), 1)]


def test_compile_numbers_in_first_live_path_order(zctx):
    # on z the first path, (grade - 2) z., is 0, so z^3 from z^2. is seen
    # before z^2 from z., although the two z. paths share a diagonal
    z = var(zctx, "z")
    op = grade_scale(zctx, "deg", -2, 1) @ mul(z) + mul(z * z) + mul(z)
    table, (col,) = compile_ops([op], [(1,)])
    assert table == [(1,), (3,), (2,)]
    assert _decode(table, [col])[0] == {(1,): {(2,): 1, (3,): 1}, (3,): {(4,): 3, (5,): 1},
                                        (2,): {(3,): 2, (4,): 1}}


def test_compile_sums_paths_over_a_large_batch_denominator(zctx):
    # one shift whose paths divide by different divisor products, one of
    # them taking 199 distinct values on z^0..z^199: (z^k)' / (1 + deg) +
    # (z^k)' / ((2 + deg)(1 + deg)) is (1 + 1/(k + 1)) z^(k - 1), so the
    # paths' denominators and d are lcms of about 200 values, and d is
    # still least
    dz = deriv(zctx, "z")
    op = (grade_divide(zctx, "deg", 1, 1) @ dz
          + grade_divide(zctx, "deg", 2, 1) @ grade_divide(zctx, "deg", 1, 1) @ dz)
    table, (col,) = _check_compiled([op], [(k,) for k in range(200)])
    d = col.shifts.d
    assert len(table) == 200 and len(col) == 1 and d == lcm(*range(1, 201))
    assert [_path_reference(op, m) for m in table] == [
        {(m[0] + col.shifts.vecs[s][0],): Q(v[k], d) for s, v in col.items() if v[k]}
        for k, m in enumerate(table)]


def test_compile_shares_repeated_operators(xyw):
    x = var(xyw, "x")
    a, b = Q(1, 2) * mul(x), deriv(xyw, "x")
    table, cols = compile_ops([a, b, a], [(1, 0, 0)])
    assert cols[0] is cols[2] and cols[0] is not cols[1]
    assert cols[0].shifts.d == 2
    # scaled once: (1/2) * 2
    assert list(cols[0].values()) == [[1, 1, 1]]
    assert _decode(table, cols)[0][(1, 0, 0)] == {(2, 0, 0): Q(1, 2)}


def test_compile_raises_context_and_singular_errors(zctx):
    other = VariableContext(["z"])
    with pytest.raises(ContextMismatchError):
        compile_ops([deriv(zctx, "z") + mul(var(other, "z"))], [(1,)])
    # z. then 1/(grade - 2): singular where z lands on z^2
    op = grade_divide(zctx, "deg", -2, 1) @ mul(var(zctx, "z"))
    with pytest.raises(SingularGradeError) as err:
        compile_ops([op], [(0,), (1,)])
    assert err.value.monomial == (2,) and err.value.grade == 2
    # the first monomial decides, then the first path, then the first step
    for op, monos, want in ((grade_divide(zctx, "deg", -3, 1) + grade_divide(zctx, "deg", -1, 1),
                             [(3,), (2,), (1,)], (3,)),
                            (grade_divide(zctx, "deg", -1, 1) @ grade_divide(zctx, "deg", -3, 1),
                             [(1,), (3,)], (1,))):
        with pytest.raises(SingularGradeError) as err:
            compile_ops([op], monos)
        assert err.value.monomial == want


def _sharing_ops(singular=False):
    """Operators whose paths share leading derivative words, grade value
    lists and divisor products, with coefficients 1, -1 and 1/27: words of
    order 2 and 3 in x, a grade multiplier, the oscillator's e and ebar on
    x and y, a shift carried by several paths, and beside a live path
    with the same leading d/dx a dead one, whose divisor 1 + (x-degree
    after d/dx) vanishes exactly where d/dx is 0.  With `singular` that
    divisor loses its 1 and vanishes on x, where the path lives."""
    c = VariableContext(["x", "y", "u", "v"])
    c.add_grading("g", [1, 1, 0, 0], 1)
    c.add_grading("gx", [1, 0, 0, 0], 0)
    x, y = var(c, "x"), var(c, "y")
    recip = grade_divide(c, "g", 1, 1) @ grade_divide(c, "g", 0, 1)

    def low(word):
        return recip @ deriv(c, word)

    tiny = Q(1, 27)
    return [low("xu") - low("xv") + tiny * low("yu"),
            tiny * low("xxu") - low("xxv") + low("xxxv"),
            grade_scale(c, "g", 2, 1) @ deriv(c, "xu") + low("xu") - tiny * low("xu"),
            Q(1, 2) * mul(x * x + y * y),
            Q(-1, 2) * (deriv(c, "xx") + deriv(c, "yy")),
            mul(x) @ deriv(c, "x") + mul(y) @ deriv(c, "y") + scalar(c, 1),
            grade_divide(c, "gx", 0 if singular else 1, 1) @ deriv(c, "x")
            - tiny * low("x") + mul(y) @ deriv(c, "xu")]


def test_compile_shares_lists_across_paths(monkeypatch):
    # the batch lists the paths share give each path its own value: the
    # per-path reference on every compiled monomial, with the contracts
    # of `_check_compiled`
    ops = _sharing_ops()
    monos = [(a, b, u, v) for a in range(4) for b in range(3) for u in range(2) for v in range(2)]
    calls, real = [], opcalc._Batch.divisor

    def spy(batch, keys):
        got = real(batch, keys)
        calls.append((batch, keys, got, got[1][:]))
        return got

    monkeypatch.setattr(opcalc._Batch, "divisor", spy)
    table, cols = _check_compiled(ops, monos)
    # each divisor product is inverted once per batch: every path that
    # divides by it reads one (Δ, Δ // product) pair, Δ the lcm of the
    # product's values (1 where it is 0), and nothing writes to its list
    pairs = {}
    for batch, keys, got, before in calls:
        assert pairs.setdefault((batch, keys), got) is got and got[1] == before
        den = [1] * batch.size
        for _, terms, b in keys:
            grade = [b + sum(a * batch.exps[i][j] for i, a in terms) for j in range(batch.size)]
            den = [x * g for x, g in zip(den, grade)]
        den = [x or 1 for x in den]
        assert got == (lcm(*den), [lcm(*den) // x for x in den])
    # 4 products a batch, in 2 batches, read 20 times: 1/(g(g+1)) after the
    # six words that lower g by 1, twice after those that lower it by 2
    assert len(pairs) == 8 and len(calls) == 20
    monkeypatch.undo()
    shifts = cols[0].shifts
    d = shifts.d
    for op, col in zip(ops, cols):
        for k, m in enumerate(table):
            assert _path_reference(op, m) == {tuple(map(add, m, shifts.vecs[s])): Q(v[k], d)
                                              for s, v in col.items() if v[k]}
    # a divisor that vanishes on a live path names its monomial and grade
    ops = _sharing_ops(singular=True)
    with pytest.raises(SingularGradeError) as err:
        compile_ops(ops, monos)
    assert (err.value.monomial, err.value.grade) == ((0, 0, 0, 0), 0)
    # two compiles of one input are equal and share no list: changing one
    # leaves the other as it was
    again_table, again = compile_ops(_sharing_ops(), monos)
    assert again_table == table and [dict(c) for c in again] == [dict(c) for c in cols]
    assert again[0].shifts.idx == shifts.idx and again[0].shifts.d == d
    lists = lambda cs: [v for c in cs for v in c.values()] + cs[0].shifts.idx
    assert not {id(v) for v in lists(cols)} & {id(v) for v in lists(again)}
    before = [dict((s, v[:]) for s, v in c.items()) for c in again]
    for v in lists(cols):
        v[:] = [None] * len(v)
    assert [dict(c) for c in again] == before


def test_compile_builds_each_grade_linear_part_once(monkeypatch):
    # a grade's linear part sum_i A_i e_i is walked over the exponent
    # columns once per batch and terms, and shared by every B: g and g + 1
    # read at several running shifts, and gx, are keys of two terms, so
    # each batch reads 3 columns for its grades, one per term of g and gx,
    # for more than three (terms, B) keys
    reads, keys, inside = Counter(), Counter(), []
    init, grade = opcalc._Batch.__init__, opcalc._Batch.grade

    class Columns(list):
        def __getitem__(self, i):
            if inside:
                reads[inside[-1]] += 1
            return super().__getitem__(i)

    def spy_init(batch, monos, nv):
        init(batch, monos, nv)
        batch.exps = Columns(batch.exps)

    def spy_grade(batch, key):
        keys[batch] += key not in batch.grades
        inside.append(batch)
        try:
            return grade(batch, key)
        finally:
            inside.pop()

    monkeypatch.setattr(opcalc._Batch, "__init__", spy_init)
    monkeypatch.setattr(opcalc._Batch, "grade", spy_grade)
    monos = [(a, b, u, v) for a in range(4) for b in range(3) for u in range(2) for v in range(2)]
    compile_ops(_sharing_ops(), monos)
    assert len(keys) == 2 and min(keys.values()) > 3
    assert reads == {batch: 3 for batch in keys}


def test_bracket_slices_follow_range_and_compile(xyw):
    # `bracket` slices each operator's diagonals on the range it is given:
    # ranges that share a start or a stop, of one compile, and then the
    # same ranges in a compile of other operators, whose shift ids and
    # diagonals differ, each match the reference
    trees = _seeded_trees(xyw)[2:12] + _coupling_trees(xyw)
    monos = [(a, b, c) for a in range(3) for b in range(3) for c in range(2)]
    for part in (trees[:9], trees[9:]):
        ops = [_build(tree, xyw) for tree in part]
        table, cols = compile_ops(ops, monos)
        shifts, d = cols[0].shifts, cols[0].shifts.d
        for basis in (range(0, 9), range(0, len(monos)), range(5, len(monos)), range(5, 9)):
            for i in range(len(ops) - 2):
                c = Q(i + 1, 3)
                got = _minus(bracket(cols[i], cols[i + 1], basis),
                             combination(cols, {i + 2: c * d}, basis), len(basis))
                want = _bracket_reference(xyw, part[i:i + 3], table, d, basis, c)
                assert _undiag(table, shifts, got, basis) == want


def test_automorphisms_compare_relabelled_paths():
    # x <-> y swaps the first and third operators, re-sorting their grade
    # terms and derivative words, and fixes w d/dw; x y + 2 d/dx^2 has an
    # image once x y + 2 d/dy^2 is listed.  The "lean" grade reads x and y
    # unequally, so an operator with it has no image
    ctx = VariableContext(["x", "y", "w"])
    ctx.add_grading("even", [1, 1, 0], 1)
    ctx.add_grading("lean", [1, 2, 0], 1)
    x, y, w = (var(ctx, v) for v in ("x", "y", "w"))
    ops = [grade_divide(ctx, "even", 1, 1) @ mul(x * w) @ deriv(ctx, ("y", "w")),
           mul(x * y) + 2 * deriv(ctx, ("x", "x")),
           grade_divide(ctx, "even", 1, 1) @ mul(y * w) @ deriv(ctx, ("x", "w")),
           mul(w) @ deriv(ctx, ("w",))]
    swap, cycle = ((1, 0, 2), ()), ((2, 0, 1), ())
    assert automorphisms(ops, [swap]) == {}
    ops.append(mul(x * y) + 2 * deriv(ctx, ("y", "y")))
    assert automorphisms(ops, [swap, cycle, ((0, 1, 2), ())]) == {
        swap: ((2, 4, 0, 3, 1), (1, 1, 1, 1, 1))}
    assert automorphisms(ops + [grade_scale(ctx, "lean", 0, 1)], [swap]) == {}
    # operators with equal path multisets give no permutation, nor does
    # an operator listed with its negative
    assert automorphisms(ops + [ops[3]], [swap]) == {}
    assert automorphisms(ops + [-1 * ops[3]], [swap]) == {}
    # the rotation x -> y, y -> -x negates each path of odd net shift in y:
    # it sends the first operator to minus the third, but x y + 2 d/dx^2 to
    # -x y + 2 d/dy^2, which is neither listed nor minus one listed
    rotation = ((1, 0, 2), (1,))
    assert automorphisms(ops, [rotation]) == {}


def test_automorphisms_of_sl2_carry_signs():
    # E = x d/dy, F = y d/dx, H = x d/dx - y d/dy: the rotation x -> y,
    # y -> -x conjugates E to -F, F to -E and H to -H; the bare
    # transposition gives E <-> F and H to -H
    ctx = VariableContext(["x", "y"])
    x, y = var(ctx, "x"), var(ctx, "y")
    e, f = mul(x) @ deriv(ctx, ("y",)), mul(y) @ deriv(ctx, ("x",))
    h = mul(x) @ deriv(ctx, ("x",)) - mul(y) @ deriv(ctx, ("y",))
    rotation, transposition = ((1, 0), (1,)), ((1, 0), ())
    assert automorphisms([e, f, h], [rotation, transposition]) == {
        rotation: ((1, 0, 2), (-1, -1, -1)), transposition: ((1, 0, 2), (1, 1, -1))}
    # negating both variables fixes each operator, so it moves none and is
    # not kept; an operator listed with its negative gives none at all
    assert automorphisms([e, f, h], [((0, 1), (0, 1))]) == {}
    assert automorphisms([e, f, h, -1 * h], [rotation]) == {}