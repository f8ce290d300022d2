"""Sparse multivariate polynomials over the rationals: the tests'
reference ring.

The package does no polynomial arithmetic: it applies operators as
compiled shift diagonals.  The tests check those against this ring, in
which `test_opcalc._reference` applies an operator's description node by
node.  A polynomial
lives in an `opcalc.VariableContext` and holds exact `Fraction`
coefficients over exponent tuples; `var`, `mono`, `const`, `zero` and
`one` build them from a context.  `opcalc.mul` reads its `ctx` and
`terms`, so a `Polynomial` here is also a valid operator input.
`pochhammer`, the rising factorial, is the reference the ladder norms'
and kernel coefficients' closed forms are checked against, and
`multiplier_profile`, built entry by entry in `Fraction`s, the reference
for the integer profile that `orbitq.ladder` reads over one denominator.
`sweep_seed` seeds the tests' randomized sweeps.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Mapping
from fractions import Fraction

from orbitq.jordan import derived_vectors
from orbitq.opcalc import ContextMismatchError, VariableContext
from orbitq.sparse import axpy


def sweep_seed() -> int:
    """Seed for randomized sweeps; override with ORBITQ_SEED."""
    return int(os.environ.get("ORBITQ_SEED", 20260826))


def mono(ctx: VariableContext, exps: Mapping[str, object], coeff=1) -> "Polynomial":
    tup = [0] * len(ctx.names)
    for name, e in exps.items():
        i = ctx.index(name)
        if not isinstance(e, int) or e < 0:
            raise ValueError(f"exponent of {name} must be a non-negative int, got {e!r}")
        tup[i] = e
    return Polynomial(ctx, {tuple(tup): Fraction(coeff)})


def var(ctx: VariableContext, name: str) -> "Polynomial":
    return mono(ctx, {name: 1})


def const(ctx: VariableContext, c) -> "Polynomial":
    return Polynomial(ctx, {(0,) * len(ctx.names): Fraction(c)})


def zero(ctx: VariableContext) -> "Polynomial":
    return Polynomial(ctx, {})


def one(ctx: VariableContext) -> "Polynomial":
    return const(ctx, 1)


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
            return const(self.ctx, other)
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
        out = one(self.ctx)
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


def pochhammer(x, n: int) -> Fraction:
    """The rising factorial x (x + 1) ... (x + n - 1), exactly."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out = Fraction(1)
    x = Fraction(x)
    for k in range(n):
        out *= x + k
    return out


def multiplier_profile(case, mu) -> dict:
    """The multiplier profile at multidegree mu: {(i + 1, j): (mu_i +
    delta_i - 2j) / (2 v_i)} for each slot i and j = 0..v_i - 1, in that
    order."""
    v, delta = derived_vectors(case)
    return {(i + 1, j): Fraction(mu[i] + delta[i] - 2 * j, 2 * v[i])
            for i in range(len(v)) for j in range(v[i])}


def diff_terms(ctx: VariableContext, terms: dict, name: str) -> dict:
    """d/d name of `terms`: distinct monomials have distinct derivatives,
    so no two terms meet."""
    i = ctx.index(name)
    return {m[:i] + (m[i] - 1,) + m[i + 1:]: c * m[i] for m, c in terms.items() if m[i]}
