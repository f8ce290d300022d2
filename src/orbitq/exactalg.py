"""Sparse multivariate polynomials over the rationals, with gradings.

Coefficients are exact `fractions.Fraction` values.  A `VariableContext`
fixes an ordered variable set; exponents are non-negative integers.
Contexts also register named gradings: linear weight functionals on
exponent vectors plus a constant shift, taking values in the rationals.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping
from fractions import Fraction

from .sparse import axpy


class ContextMismatchError(ValueError):
    """Raised when operands were built over different variable contexts."""


def narrow(x):
    """x as an `int` when it is integral, else as a `Fraction`, so that
    arithmetic on integral values stays in `int`."""
    q = Fraction(x)
    return q.numerator if q.denominator == 1 else q


# a `Fraction` weight per variable plus a constant `Fraction` shift
Grading = namedtuple("Grading", "weights shift")


class VariableContext:
    """Ordered variable set and named gradings."""

    __slots__ = ("names", "_index", "gradings")

    def __init__(self, names: Iterable[str]):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        self._index = {n: i for i, n in enumerate(self.names)}
        self.gradings: dict[str, Grading] = {}

    def add_grading(self, name: str, weights: Iterable, shift=0) -> None:
        g = Grading(tuple(map(Fraction, weights)), Fraction(shift))
        if len(g.weights) != len(self.names):
            raise ValueError("grading weight count does not match variable count")
        self.gradings[name] = g

    def index(self, name: str) -> int:
        return self._index[name]

    def _check_exponent(self, i: int, e) -> None:
        if not isinstance(e, int) or e < 0:
            raise ValueError(f"exponent of {self.names[i]} must be a non-negative int, got {e!r}")

    def mono(self, exps: Mapping[str, object], coeff=1) -> "Polynomial":
        tup = [0] * len(self.names)
        for name, e in exps.items():
            i = self._index[name]
            self._check_exponent(i, e)
            tup[i] = e
        return Polynomial(self, {tuple(tup): Fraction(coeff)})

    def var(self, name: str) -> "Polynomial":
        return self.mono({name: 1})

    def const(self, c) -> "Polynomial":
        return Polynomial(self, {(0,) * len(self.names): Fraction(c)})

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)

    def grade_of(self, exps: tuple, grading: str) -> Fraction:
        g = self.gradings[grading]
        return g.shift + sum(w * e for w, e in zip(g.weights, exps))


class Polynomial:
    """Immutable-by-convention sparse polynomial: {exponent tuple: Fraction}."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: VariableContext, terms: dict):
        self.ctx = ctx
        self.terms = {m: c for m, c in terms.items() if c}

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.ctx is not self.ctx:
                raise ContextMismatchError("mixed variable contexts")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.const(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        axpy(out, 1, o.terms)
        return Polynomial(self.ctx, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ctx, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return Polynomial(self.ctx, {m: c * q for m, c in self.terms.items()})
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Polynomial(self.ctx, poly_mul_terms(self.terms, o.terms))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative int")
        out = self.ctx.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def diff(self, word: Iterable[str]) -> "Polynomial":
        terms = self.terms
        for name in word:
            terms = diff_terms(self.ctx, terms, name)
        return Polynomial(self.ctx, terms)

    def __repr__(self):
        return f"Polynomial({self.terms!r})"


def poly_mul_terms(a: dict, b: dict) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        axpy(out, ca, {tuple(x + y for x, y in zip(ma, mb)): cb for mb, cb in b.items()})
    return out


def diff_terms(ctx: VariableContext, terms: dict, name: str) -> dict:
    """d/d name of `terms`: distinct monomials have distinct derivatives,
    so no two terms meet."""
    i = ctx.index(name)
    return {m[:i] + (m[i] - 1,) + m[i + 1:]: c * m[i] for m, c in terms.items() if m[i]}
