"""Composable linear operators on polynomials, matrices, and span closure.

Operators are expression trees built from four leaves (multiplication by a
polynomial, a derivative word, a grade-affine multiplier, a grade-affine
divisor) and three nodes (sum, scalar multiple, composition).  All action
is exact; each operator memoizes its action on monomials, so repeated
application over a fixed basis is cheap.  The memo belongs to the context
it was filled under and is dropped when another context arrives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .exactalg import (ContextMismatchError, Polynomial, VariableContext,
                       diff_terms, poly_mul_terms)


class SingularGradeError(ArithmeticError):
    """A grade divisor hit a monomial where its affine function vanishes."""

    def __init__(self, monomial, grade):
        super().__init__(f"grade divisor is singular on {monomial} (grade {grade})")
        self.monomial = monomial
        self.grade = grade


class OperatorExpr:
    """Base class; subclasses implement `_apply_terms` on term dicts."""

    _ctx = None  # the context the monomial memo `_cache` was filled under

    def apply(self, poly: Polynomial) -> Polynomial:
        return Polynomial(poly.ctx, self.apply_terms(poly.ctx, poly.terms))

    def apply_terms(self, ctx: VariableContext, terms: dict) -> dict:
        if ctx is not self._ctx:
            self._ctx, self._cache = ctx, {}
        cache = self._cache
        out: dict = {}
        for m, c in terms.items():
            img = cache.get(m)
            if img is None:
                img = self._apply_terms(ctx, {m: Fraction(1)})
                cache[m] = img
            for m2, c2 in img.items():
                v = out.get(m2, Fraction(0)) + c * c2
                if v:
                    out[m2] = v
                elif m2 in out:
                    del out[m2]
        return out

    def _apply_terms(self, ctx: VariableContext, terms: dict) -> dict:
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

    def _apply_terms(self, ctx, terms):
        if self.poly.ctx is not ctx:
            raise ContextMismatchError("multiplier from a different context")
        return poly_mul_terms(self.poly.terms, terms)


class OpDeriv(OperatorExpr):
    """Composition of partial derivatives, given as a variable-name word."""

    def __init__(self, word: Iterable[str]):
        self.word = tuple(word)

    def _apply_terms(self, ctx, terms):
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

    def _apply_terms(self, ctx, terms):
        out = {}
        for m, c in terms.items():
            f = self._factor(ctx, m)
            if f:
                out[m] = c * f
        return out


class OpGradeDivide(OpGradeScale):
    """Divide each graded component by c0 + c1*grade (error where it vanishes)."""

    def _apply_terms(self, ctx, terms):
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

    def _apply_terms(self, ctx, terms):
        return {m: c * self.c for m, c in terms.items()} if self.c else {}


class OpSum(OperatorExpr):
    def __init__(self, ops: Sequence[OperatorExpr]):
        self.ops = tuple(ops)

    def _apply_terms(self, ctx, terms):
        out: dict = {}
        for op in self.ops:
            for m, c in op.apply_terms(ctx, terms).items():
                v = out.get(m, Fraction(0)) + c
                if v:
                    out[m] = v
                elif m in out:
                    del out[m]
        return out


class OpScaled(OperatorExpr):
    def __init__(self, c, op: OperatorExpr):
        self.c = Fraction(c)
        self.op = op

    def _apply_terms(self, ctx, terms):
        return {m: c * self.c for m, c in self.op.apply_terms(ctx, terms).items()} if self.c else {}


class OpCompose(OperatorExpr):
    """`outer * inner`: apply `inner` first."""

    def __init__(self, outer: OperatorExpr, inner: OperatorExpr):
        self.outer = outer
        self.inner = inner

    def _apply_terms(self, ctx, terms):
        return self.outer.apply_terms(ctx, self.inner.apply_terms(ctx, terms))


def commutator(a: OperatorExpr, b: OperatorExpr) -> OperatorExpr:
    return OpSum((OpCompose(a, b), OpScaled(Fraction(-1), OpCompose(b, a))))


@dataclass
class OperatorMatrix:
    """Exact matrix of an operator over monomial bases.

    `entries[(i, j)]` is the coefficient of target monomial i in the image
    of source monomial j; images outside the target span are listed in
    `escaped` as (source index, stray monomial, coefficient).
    """

    source: tuple
    target: tuple
    entries: dict
    escaped: list


def matrix_on_basis(op: OperatorExpr, ctx: VariableContext, source: Sequence[tuple],
                    target: Sequence[tuple] | None = None) -> OperatorMatrix:
    source = tuple(source)
    target = source if target is None else tuple(target)
    tindex = {m: i for i, m in enumerate(target)}
    entries: dict = {}
    escaped: list = []
    for j, m in enumerate(source):
        for m2, c in op.apply_terms(ctx, {m: Fraction(1)}).items():
            i = tindex.get(m2)
            if i is None:
                escaped.append((j, m2, c))
            else:
                entries[(i, j)] = c
    return OperatorMatrix(source, target, entries, escaped)


class SpanSolver:
    """Incremental exact row reduction over dict-shaped vectors.

    Tracks, for each pivot, the expression of the stored vector in the
    vectors originally fed to `add`, so membership queries return exact
    coordinates in the original family.
    """

    def __init__(self):
        self.pivots: list = []  # (pivot key, vector, combo over original labels)

    @staticmethod
    def _axpy(dst: dict, a: Fraction, src: dict) -> None:
        for k, v in src.items():
            w = dst.get(k, Fraction(0)) + a * v
            if w:
                dst[k] = w
            elif k in dst:
                del dst[k]

    def _reduce(self, vec: dict, combo: dict):
        for key, pvec, pcombo in self.pivots:
            c = vec.get(key)
            if c:
                self._axpy(vec, -c, pvec)
                self._axpy(combo, -c, pcombo)
        return vec, combo

    def add(self, label, vec: dict) -> bool:
        """Insert a vector; returns True if it enlarged the span."""
        vec, combo = self._reduce(dict(vec), {label: Fraction(1)})
        if not vec:
            return False
        key = min(vec)
        c = vec[key]
        if c != 1:
            vec = {k: v / c for k, v in vec.items()}
            combo = {k: v / c for k, v in combo.items()}
        self.pivots.append((key, vec, combo))
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def solve(self, vec: dict) -> dict | None:
        """Coordinates of `vec` over the original labels, or None."""
        vec = dict(vec)
        combo: dict = {}
        for key, pvec, pcombo in self.pivots:
            c = vec.get(key)
            if c:
                self._axpy(vec, -c, pvec)
                self._axpy(combo, c, pcombo)
        return combo if not vec else None


@dataclass
class SpanReport:
    rank: int
    closed: bool
    independent: bool
    structure_constants: dict  # (i, j) with i < j -> {k: Fraction}
    failures: list = field(default_factory=list)


def _op_column_images(op: OperatorExpr, ctx: VariableContext, basis: Sequence[tuple]) -> list:
    return [op.apply_terms(ctx, {m: Fraction(1)}) for m in basis]


def _stack(images: Sequence[dict]) -> dict:
    out = {}
    for j, img in enumerate(images):
        for m, c in img.items():
            out[(m, j)] = c
    return out


def span_structure(ops: Sequence[OperatorExpr], ctx: VariableContext,
                   basis: Sequence[tuple]) -> SpanReport:
    """Commutator closure of `ops` acting on the span of `basis`.

    All images are computed exactly (no truncation): a bracket fails only
    if it genuinely leaves the linear span of the given operators as maps
    on the basis columns.
    """
    basis = tuple(basis)
    images = [_op_column_images(op, ctx, basis) for op in ops]
    solver = SpanSolver()
    independent = True
    for k, img in enumerate(images):
        if not solver.add(k, _stack(img)):
            independent = False
    sc: dict = {}
    failures: list = []
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            vec = {}
            for col, m in enumerate(basis):
                ij = ops[i].apply_terms(ctx, images[j][col])
                ji = ops[j].apply_terms(ctx, images[i][col])
                SpanSolver._axpy(vec, Fraction(1), {(m2, col): c for m2, c in ij.items()})
                SpanSolver._axpy(vec, Fraction(-1), {(m2, col): c for m2, c in ji.items()})
            combo = solver.solve(vec)
            if combo is None:
                failures.append((i, j))
            else:
                sc[(i, j)] = combo
    return SpanReport(solver.rank, not failures, independent, sc, failures)


def verify_structure_constants(ops: Sequence[OperatorExpr], ctx: VariableContext,
                               sc: dict, basis: Sequence[tuple]) -> list:
    """Check [op_i, op_j] = sum_k sc[i,j][k] op_k column-by-column on `basis`.

    Returns the list of (i, j) pairs that fail; used to confirm constants
    solved on a smaller basis remain exact on a larger one.
    """
    images = [_op_column_images(op, ctx, basis) for op in ops]
    bad = []
    for (i, j), combo in sorted(sc.items()):
        ok = True
        for col in range(len(basis)):
            lhs: dict = {}
            SpanSolver._axpy(lhs, Fraction(1), ops[i].apply_terms(ctx, images[j][col]))
            SpanSolver._axpy(lhs, Fraction(-1), ops[j].apply_terms(ctx, images[i][col]))
            for k, c in combo.items():
                SpanSolver._axpy(lhs, -c, images[k][col])
            if lhs:
                ok = False
                break
        if not ok:
            bad.append((i, j))
    return bad


def solve_linear_system(equations: Sequence[dict], rhs: Sequence[Fraction],
                        unknowns: Sequence) -> dict | None:
    """Unique exact solution of a (possibly overdetermined) linear system.

    Each equation is {unknown: coefficient}.  Returns None if the system
    is inconsistent or underdetermined.
    """
    rows = [dict(eq) for eq in equations]
    vals = [Fraction(r) for r in rhs]
    pos = {u: i for i, u in enumerate(unknowns)}
    solution: dict = {}
    order: list = []
    for _ in unknowns:
        pivot_row = None
        for ridx, row in enumerate(rows):
            if row:
                pivot_row = ridx
                break
        if pivot_row is None:
            break
        row = rows.pop(pivot_row)
        val = vals.pop(pivot_row)
        key = min(row, key=pos.__getitem__)
        c = row.pop(key)
        row = {k: v / c for k, v in row.items()}
        val = val / c
        for ridx, other in enumerate(rows):
            a = other.pop(key, None)
            if a:
                for k, v in row.items():
                    w = other.get(k, Fraction(0)) - a * v
                    if w:
                        other[k] = w
                    elif k in other:
                        del other[k]
                vals[ridx] -= a * val
        order.append((key, row, val))
    for row, val in zip(rows, vals):
        if not row and val:
            return None  # inconsistent
    seen = {key for key, _, _ in order}
    if seen != set(unknowns):
        return None  # underdetermined
    for key, row, val in reversed(order):
        solution[key] = val - sum(v * solution[k] for k, v in row.items())
    return solution
