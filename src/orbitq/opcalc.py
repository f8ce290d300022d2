"""Linear operators on polynomials as sums of shift-symbol paths, their
compiled columns, and span closure.

An operator is an `Op`: a variable context and a tuple of paths, the
Ore-algebra view of a differential operator.  A path is a coefficient
times a word of steps, and each step sends a monomial to one monomial
times a scalar.  Five leaves give the steps: `mul` (a shift per term of a
polynomial), `deriv` (a derivative word), `scalar`, and `grade_scale` and
`grade_divide` (a grade-affine multiplier or divisor).  Operators combine
by `+`, `-`, scalar `*` and composition `@`.  All action is exact, and an
`Op` is immutable.  `compile_ops` numbers the monomials and evaluates the
paths once per monomial, in `int` arithmetic, into columns listed by
number.  Closure checks compose operators as products of those columns,
stacked over monomial ranges, on `Fraction` columns or, once cleared by
`sparse.clear_denominators`, on `int` ones.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import lcm, perm
from typing import Iterable, Sequence

from .exactalg import ContextMismatchError, Polynomial, VariableContext, narrow
from .sparse import ONE, Reducer


class SingularGradeError(ArithmeticError):
    """A grade divisor hit a monomial where its affine function vanishes."""

    def __init__(self, monomial, grade):
        super().__init__(f"grade divisor is singular on {monomial} (grade {grade})")
        self.monomial = monomial
        self.grade = grade


# step kinds of a path
SHIFT, DERIV, GRADE = 0, 1, 2


@dataclass(frozen=True, eq=False)
class Op:
    """A linear operator on the polynomials of `ctx`: the sum of its
    paths, each a (coefficient, steps) pair.  On x^e a path multiplies its
    coefficient by each step's factor, in order:

    - (SHIFT, ((i, k), ...)): e_i += k, factor 1;
    - (DERIV, ((i, k), ...)): factor e_i!/(e_i - k)!, and e_i -= k;
    - (GRADE, (((i, A_i), ...), B, Q, divide, grading)): factor
      (sum_i A_i e_i + B)/Q, with integers A, B and Q > 0, or its inverse
      when `divide`.

    `a + b` and `a - b` concatenate paths, `c * a` scales each coefficient
    (zero leaves no path) and `outer @ inner` takes outer x inner paths,
    inner steps first.  A divisor is thus checked per path:
    `SingularGradeError` is raised where a path meets a vanishing divisor,
    also where a sum inside a composition would cancel that monomial first.
    Operators of different contexts do not combine: that raises
    `ContextMismatchError`."""

    ctx: VariableContext
    paths: tuple = ()

    def _paths_of(self, other: Op) -> tuple:
        if other.ctx is not self.ctx:
            raise ContextMismatchError("operators from different contexts")
        return other.paths

    def __add__(self, other: Op) -> Op:
        return Op(self.ctx, self.paths + self._paths_of(other))

    def __sub__(self, other: Op) -> Op:
        return self + -1 * other

    def __rmul__(self, c) -> Op:
        c = Fraction(c)
        return Op(self.ctx, tuple((c * k, steps) for k, steps in self.paths) if c else ())

    def __matmul__(self, inner: Op) -> Op:
        paths = self._paths_of(inner)
        return Op(self.ctx, tuple((co * ci, si + so) for co, so in self.paths
                                  for ci, si in paths))


def mul(poly: Polynomial) -> Op:
    """Multiplication by a fixed polynomial: one shift per term."""
    return Op(poly.ctx, tuple((c, ((SHIFT, tuple((i, k) for i, k in enumerate(t) if k)),))
                              for t, c in poly.terms.items()))


def deriv(ctx: VariableContext, word: Iterable[str]) -> Op:
    """Composition of partial derivatives, given as a variable-name word."""
    counts = Counter(map(ctx.index, word))
    return Op(ctx, ((ONE, ((DERIV, tuple(sorted(counts.items()))),)),))


def scalar(ctx: VariableContext, c) -> Op:
    c = Fraction(c)
    return Op(ctx, ((c, ()),) if c else ())


def _grade(ctx: VariableContext, grading: str, c0, c1, divide: bool) -> Op:
    g = ctx.gradings[grading]
    c0, c1 = Fraction(c0), Fraction(c1)
    coeffs = [c1 * w for w in g.weights] + [c0 + c1 * g.shift]
    q = lcm(*(c.denominator for c in coeffs))
    *a, b = (int(c * q) for c in coeffs)
    return Op(ctx, ((ONE, ((GRADE, (tuple((i, x) for i, x in enumerate(a) if x), b, q,
                                    divide, grading)),)),))


def grade_scale(ctx: VariableContext, grading: str, c0, c1) -> Op:
    """Multiply each graded component by c0 + c1*grade."""
    return _grade(ctx, grading, c0, c1, False)


def grade_divide(ctx: VariableContext, grading: str, c0, c1) -> Op:
    """Divide each graded component by c0 + c1*grade (error where it vanishes)."""
    return _grade(ctx, grading, c0, c1, True)


def commutator(a: Op, b: Op) -> Op:
    return a @ b - b @ a


def _image(paths: tuple, ctx: VariableContext, m: tuple, number: dict) -> dict:
    """The paths applied to x^m, {number: `int` when integral, else
    `Fraction`}, numbering new monomials in `number`.  Each path's factors
    go into an `int` numerator and denominator, normalized once."""
    acc: dict = {}
    for coef, steps in paths:
        num, den, e = coef.numerator, coef.denominator, list(m)
        for kind, data in steps:
            if kind == SHIFT:
                for i, k in data:
                    e[i] += k
            elif kind == DERIV:
                for i, k in data:
                    num *= perm(e[i], k)
                    e[i] -= k
            else:
                terms, val, q, divide, grading = data
                for i, a in terms:
                    val += a * e[i]
                if divide and not val:
                    key = tuple(e)
                    raise SingularGradeError(key, ctx.grade_of(key, grading))
                num, den = (num * q, den * val) if divide else (num * val, den * q)
            if not num:
                break
        else:
            key = tuple(e)
            pn, pd = acc.get(key, (0, 1))
            acc[key] = (pn * den + num * pd, pd * den)
    return {number.setdefault(key, len(number)): num // den if num % den == 0
            else Fraction(num, den) for key, (num, den) in acc.items() if num}


def compile_ops(ops: Sequence[Op], monos: Iterable[tuple]) -> tuple:
    """(table, cols): `table` lists the monomials by number, `monos` first
    without repeats, then those images reach, in first-seen order.
    cols[i][k] is operator i's image {number: value} of monomial k, in path
    order, on `monos` and what they reach: all that products of two of the
    operators look up on `monos`.  The same operator object shares one
    column list.  Raises `ContextMismatchError` across contexts."""
    ctx = ops[0].ctx if ops else None
    if any(op.ctx is not ctx for op in ops):
        raise ContextMismatchError("operators from different contexts")
    number = {m: k for k, m in enumerate(dict.fromkeys(monos))}
    table = list(number)
    unique = {id(op): op.paths for op in ops}
    cols = {k: [_image(paths, ctx, m, number) for m in table] for k, paths in unique.items()}
    reach = list(number)[len(table):]
    for k, paths in unique.items():
        cols[k] += [_image(paths, ctx, m, number) for m in reach]
    return list(number), [cols[id(op)] for op in ops]


def bracket(a, b, monos, terms=()) -> dict:
    """A(B m) - B(A m) - sum of c * C m over the (C, c) in `terms`, from the
    columns of A, B and each C, stacked over the monomial numbers m of
    `monos`: {(image, m): value}, nonzero entries only, in `monos` order.

    The closure checks run this on every pair of operators, so it is one
    fused accumulate per monomial rather than `sparse.axpy` calls on
    intermediate images."""
    out: dict = {}
    for m in monos:
        acc: dict = {}
        get = acc.get
        for outer, inner, sign in ((a, b, 1), (b, a, -1)):
            for k, c in inner[m].items():
                c *= sign
                for k2, x in outer[k].items():
                    w = get(k2)
                    acc[k2] = c * x if w is None else w + c * x
        for cols, c in terms:
            for k2, x in cols[m].items():
                w = get(k2)
                acc[k2] = -c * x if w is None else w - c * x
        for k2, x in acc.items():
            if x:
                out[k2, m] = x
    return out


@dataclass
class SpanReport:
    rank: int
    closed: bool
    independent: bool
    structure_constants: dict  # (i, j) with i < j -> {k: exact coefficient}
    failures: list = field(default_factory=list)


def span_structure(cols: Sequence, basis: Sequence[int]) -> SpanReport:
    """Commutator closure of operators, given by their `compile_ops`
    columns, acting on the span of the monomial numbers `basis`.

    All images are exact (no truncation): a bracket fails only if it
    genuinely leaves the linear span of the operators as maps on the basis
    columns.
    """
    span = Reducer()
    independent = True
    for k, col in enumerate(cols):
        if not span.add(k, {(k2, m): c for m in basis for k2, c in col[m].items()}):
            independent = False
    sc: dict = {}
    failures: list = []
    for i, j in combinations(range(len(cols)), 2):
        combo = span.solve(bracket(cols[i], cols[j], basis))
        if combo is None:
            failures.append((i, j))
        else:
            sc[(i, j)] = combo
    return SpanReport(span.rank, not failures, independent, sc, failures)


def residual(cols: Sequence, pair: tuple, combo: dict, basis: Sequence[int]) -> dict:
    """The stacked residual of [op_i, op_j] - sum_k combo[k] op_k on the
    monomial numbers `basis`, for pair = (i, j).  Integral constants enter
    it as `int`, so on `int` columns it is summed in `int`."""
    i, j = pair
    return bracket(cols[i], cols[j], basis, [(cols[k], narrow(c)) for k, c in combo.items()])


def verify_structure_constants(cols: Sequence, sc: dict, basis: Sequence[int]) -> list:
    """Check [op_i, op_j] = sum_k sc[i,j][k] op_k column-by-column on the
    monomial numbers `basis`, with the operators given by their
    `compile_ops` columns.

    Returns the list of (i, j) pairs that fail; used to confirm constants
    solved on a smaller basis remain exact on a larger one.
    """
    return [pair for pair, combo in sorted(sc.items()) if residual(cols, pair, combo, basis)]


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
