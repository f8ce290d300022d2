"""Composable linear operators on polynomials, their compiled columns,
and span closure.

Operators are expression trees built from four leaves (multiplication by a
polynomial, a derivative word, a grade-affine multiplier, a grade-affine
divisor) and three nodes (sum, scalar multiple, composition).  All action
is exact, and a tree holds no state.  `compile_ops` evaluates each tree
once per monomial into columns {monomial: image}; closure checks then
compose operators as products of those columns in the `sparse` kernel.
The closure checks take columns with `Fraction` or, once cleared by
`sparse.clear_denominators`, `int` entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .exactalg import (ContextMismatchError, Polynomial, VariableContext,
                       diff_terms, narrow, poly_mul_terms)
from .sparse import ONE, Reducer, axpy


class SingularGradeError(ArithmeticError):
    """A grade divisor hit a monomial where its affine function vanishes."""

    def __init__(self, monomial, grade):
        super().__init__(f"grade divisor is singular on {monomial} (grade {grade})")
        self.monomial = monomial
        self.grade = grade


class OperatorExpr:
    """Base class; subclasses implement `apply_terms` on term dicts."""

    def apply(self, poly: Polynomial) -> Polynomial:
        return Polynomial(poly.ctx, self.apply_terms(poly.ctx, poly.terms))

    def apply_terms(self, ctx: VariableContext, terms: dict) -> dict:
        raise NotImplementedError

    def __add__(self, other):
        if isinstance(other, OperatorExpr):
            return OpSum((self, other))
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, OperatorExpr):
            return OpSum((self, OpScaled(Fraction(-1), other)))
        return NotImplemented

    def __neg__(self):
        return OpScaled(Fraction(-1), self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return OpScaled(Fraction(other), self)
        if isinstance(other, OperatorExpr):
            return OpCompose(self, other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return OpScaled(Fraction(other), self)
        return NotImplemented


class OpMul(OperatorExpr):
    """Multiplication by a fixed polynomial."""

    def __init__(self, poly: Polynomial):
        self.poly = poly

    def apply_terms(self, ctx, terms):
        if self.poly.ctx is not ctx:
            raise ContextMismatchError("multiplier from a different context")
        return poly_mul_terms(self.poly.terms, terms)


class OpDeriv(OperatorExpr):
    """Composition of partial derivatives, given as a variable-name word."""

    def __init__(self, word: Iterable[str]):
        self.word = tuple(word)

    def apply_terms(self, ctx, terms):
        for name in self.word:
            terms = diff_terms(ctx, terms, name)
        return terms


class OpGradeScale(OperatorExpr):
    """Multiply each graded component by c0 + c1*grade."""

    def __init__(self, grading: str, c0, c1):
        self.grading = grading
        self.c0 = Fraction(c0)
        self.c1 = Fraction(c1)

    def _factor(self, ctx, m):
        return self.c0 + self.c1 * ctx.grade_of(m, self.grading)

    def apply_terms(self, ctx, terms):
        out = {}
        for m, c in terms.items():
            f = self._factor(ctx, m)
            if f:
                out[m] = c * f
        return out


class OpGradeDivide(OpGradeScale):
    """Divide each graded component by c0 + c1*grade (error where it vanishes)."""

    def apply_terms(self, ctx, terms):
        out = {}
        for m, c in terms.items():
            f = self._factor(ctx, m)
            if f == 0:
                raise SingularGradeError(m, ctx.grade_of(m, self.grading))
            out[m] = c / f
        return out


class OpScalar(OperatorExpr):
    def __init__(self, c):
        self.c = Fraction(c)

    def apply_terms(self, ctx, terms):
        return {m: c * self.c for m, c in terms.items()} if self.c else {}


class OpSum(OperatorExpr):
    def __init__(self, ops: Sequence[OperatorExpr]):
        self.ops = tuple(ops)

    def apply_terms(self, ctx, terms):
        out: dict = {}
        for op in self.ops:
            axpy(out, ONE, op.apply_terms(ctx, terms))
        return out


class OpScaled(OperatorExpr):
    def __init__(self, c, op: OperatorExpr):
        self.c = Fraction(c)
        self.op = op

    def apply_terms(self, ctx, terms):
        return {m: c * self.c for m, c in self.op.apply_terms(ctx, terms).items()} if self.c else {}


class OpCompose(OperatorExpr):
    """`outer * inner`: apply `inner` first."""

    def __init__(self, outer: OperatorExpr, inner: OperatorExpr):
        self.outer = outer
        self.inner = inner

    def apply_terms(self, ctx, terms):
        return self.outer.apply_terms(ctx, self.inner.apply_terms(ctx, terms))


def commutator(a: OperatorExpr, b: OperatorExpr) -> OperatorExpr:
    return OpSum((OpCompose(a, b), OpScaled(Fraction(-1), OpCompose(b, a))))


def compile_ops(ops: Sequence[OperatorExpr], ctx: VariableContext,
                monos: Iterable[tuple]) -> list:
    """Each operator's columns {monomial: image}, on `monos` and on every
    monomial their images reach: all that products of two of the operators
    look up on `monos`.  Each tree is evaluated once per monomial."""
    monos = dict.fromkeys(monos)
    cols = [{m: op.apply_terms(ctx, {m: ONE}) for m in monos} for op in ops]
    reach = [m2 for col in cols for img in col.values() for m2 in img
             if m2 not in monos]
    for op, col in zip(ops, cols):
        col.update((m, op.apply_terms(ctx, {m: ONE})) for m in dict.fromkeys(reach))
    return cols


def bracket(a, b, m, terms=()) -> dict:
    """A(B m) - B(A m) - sum of c * C m over the (C, c) in `terms`, from the
    columns of A, B and each C.

    The closure checks run this hundreds of thousands of times on small
    columns, so it is one fused accumulate into a single dict, with the
    entries that cancel dropped at the end, rather than `sparse.axpy`
    calls on intermediate images."""
    out: dict = {}
    get = out.get
    for k, c in b[m].items():
        for k2, x in a[k].items():
            w = get(k2)
            out[k2] = c * x if w is None else w + c * x
    for k, c in a[m].items():
        for k2, x in b[k].items():
            w = get(k2)
            out[k2] = -c * x if w is None else w - c * x
    for cols, c in terms:
        for k2, x in cols[m].items():
            w = get(k2)
            out[k2] = -c * x if w is None else w - c * x
    return {k: x for k, x in out.items() if x}


@dataclass
class SpanReport:
    rank: int
    closed: bool
    independent: bool
    structure_constants: dict  # (i, j) with i < j -> {k: exact coefficient}
    failures: list = field(default_factory=list)


def _stack(images) -> dict:
    return {(m, col): c for col, img in enumerate(images) for m, c in img.items()}


def span_structure(cols: Sequence, basis: Sequence[tuple]) -> SpanReport:
    """Commutator closure of operators, given by their `compile_ops`
    columns, acting on the span of `basis`.

    All images are exact (no truncation): a bracket fails only if it
    genuinely leaves the linear span of the operators as maps on the basis
    columns.
    """
    basis = tuple(basis)
    span = Reducer()
    independent = True
    for k, col in enumerate(cols):
        if not span.add(k, _stack(col[m] for m in basis)):
            independent = False
    sc: dict = {}
    failures: list = []
    for i, j in combinations(range(len(cols)), 2):
        combo = span.solve(_stack(bracket(cols[i], cols[j], m) for m in basis))
        if combo is None:
            failures.append((i, j))
        else:
            sc[(i, j)] = combo
    return SpanReport(span.rank, not failures, independent, sc, failures)


def verify_structure_constants(cols: Sequence, sc: dict, basis: Sequence[tuple]) -> list:
    """Check [op_i, op_j] = sum_k sc[i,j][k] op_k column-by-column on `basis`,
    with the operators given by their `compile_ops` columns.

    Returns the list of (i, j) pairs that fail; used to confirm constants
    solved on a smaller basis remain exact on a larger one.  Integral
    constants enter the residual as `int`, so on `int` columns it is
    summed in `int`.
    """
    bad = []
    for (i, j), combo in sorted(sc.items()):
        terms = [(cols[k], narrow(c)) for k, c in combo.items()]
        if any(bracket(cols[i], cols[j], m, terms) for m in basis):
            bad.append((i, j))
    return bad


def solve_linear_system(equations: Sequence[dict], rhs: Sequence[Fraction],
                        unknowns: Sequence) -> dict | None:
    """Unique exact solution of a (possibly overdetermined) linear system.

    Each equation is {unknown: coefficient}.  Returns None if the system
    is inconsistent or underdetermined.  The solution is the coordinates of
    the right-hand side over the coefficient columns of the unknowns.
    """
    cols: dict = {u: {} for u in unknowns}
    for r, eq in enumerate(equations):
        for u, c in eq.items():
            if c:
                cols[u][r] = Fraction(c)
    span = Reducer()
    if not all(span.add(u, col) for u, col in cols.items()):
        return None  # underdetermined
    combo = span.solve({r: Fraction(v) for r, v in enumerate(rhs) if v})
    if combo is None:
        return None  # inconsistent
    return {u: Fraction(combo.get(u, 0)) for u in unknowns}
