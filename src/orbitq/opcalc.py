"""Linear operators on polynomials as sums of shift-symbol paths, their
compiled shift diagonals, and span closure.

A `VariableContext` fixes an ordered variable set, so a monomial is a
tuple of non-negative exponents, and registers named gradings.  An
operator is an `Op`: a variable context and a tuple of paths, the
Ore-algebra view of a differential operator.  A path sends a monomial
to one monomial, moved by a fixed net shift, times its coefficient and
factors read off the source exponents.  Five leaves give the paths: `mul`
(a shift per term of a `Polynomial`, a record of terms with no
arithmetic), `deriv` (a derivative word), `scalar`, and `grade_scale` and
`grade_divide` (a grade-affine multiplier or divisor).  Operators combine
by `+`, `-`, scalar `*` and composition `@`.  All action is exact, and an
`Op` is never changed once built: each combination builds a new one.

Every path moves a monomial by a fixed exponent shift, so an operator is
a few diagonals, as in the DIA sparse format (Saad, *Iterative Methods for
Sparse Linear Systems*, 2nd ed., 3.4).  `compile_ops` numbers the
monomials it compiles and evaluates each operator's paths, grouped by net
shift, in `int` arithmetic into one value list per shift, indexed by
monomial number.  Each grade divisor product is inverted once per batch
of monomials, as the lcm Δ of its values and the list Δ // product, so a
path's values are `int`s N_m over one `int`, and the values' least common
denominator d stays least: lcm_m(Δ/gcd(N_m, Δ)) = Δ/gcd(Δ, N_1, ..., N_M).
A `Shifts` registry, shared by the operators of one compile, holds d and,
for each shift and each input monomial m, the number of m + shift, found
by adding integer monomial codes whose digits never carry; every list it
derives is built once.  `bracket` composes diagonals as list kernels over
a range of input monomial numbers, read straight off the compiled
diagonals: one fused pass per pair of diagonals, skipping pairs that
provably commute, and `combination` sums operators in the same form.
`span_structure` compares each bracket with the combination of its
constants; `automorphisms` finds the signed variable permutations that
permute the operators up to sign, `pair_orbits` the orbits of the
operator pairs under them, and `span_structure` then brackets each
orbit's least pair and relabels its constants, with their signs, for
the rest.  Only the operators of those pairs need values past the
compiled sources, which `compile_ops`' `reach` limits them to.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import chain, combinations, compress, count, repeat
from math import gcd, lcm, perm
from operator import add, floordiv, mul as times

from .sparse import ONE, Reducer


class ContextMismatchError(ValueError):
    """Raised when operands were built over different variable contexts."""


# a `Fraction` weight per variable plus a constant `Fraction` shift
Grading = namedtuple("Grading", "weights shift")


class VariableContext:
    """Ordered variable set and named gradings: linear weight functionals
    on exponent vectors plus a constant shift, valued in the rationals."""

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

    def grade_of(self, exps: tuple, grading: str) -> Fraction:
        g = self.gradings[grading]
        return g.shift + sum(w * e for w, e in zip(g.weights, exps))


# the input of `mul`: a polynomial of `ctx` as {exponent tuple: coefficient},
# a record with no arithmetic
Polynomial = namedtuple("Polynomial", "ctx terms")


class SingularGradeError(ArithmeticError):
    """A grade divisor hit a monomial where its affine function vanishes."""

    def __init__(self, monomial, grade):
        super().__init__(f"grade divisor is singular on {monomial} (grade {grade})")
        self.monomial = monomial
        self.grade = grade


# factor kinds of a path
DERIV, GRADE = 1, 2


class Op:
    """A linear operator on the polynomials of `ctx`: the sum of its
    paths, each a (shift, coefficient, factors) triple.  A path sends x^e
    to x^(e + shift) times its coefficient and each factor, all read off
    the source exponents e:

    - (DERIV, i, r, k): (e_i + r)!/(e_i + r - k)!;
    - (GRADE, ((i, A_i), ...), B, Q, divide, grading, run): factor
      (sum_i A_i e_i + B)/Q, with integers A, B and Q > 0, or its inverse
      when `divide`; it is a grade of x^(e + run), which names the
      monomial where a divisor vanishes.

    `a + b` and `a - b` concatenate paths, `c * a` scales each coefficient
    (zero leaves no path) and `outer @ inner` takes outer x inner paths:
    the shifts add, and the inner factors come first, then the outer ones
    read after the inner shift.  A divisor is thus checked per path:
    `SingularGradeError` is raised where a path meets a vanishing divisor,
    also where a sum inside a composition would cancel that monomial first.
    Operators of different contexts do not combine: that raises
    `ContextMismatchError`.  Equality and hash are identity."""

    __slots__ = ("ctx", "paths")

    def __init__(self, ctx: VariableContext, paths: tuple):
        self.ctx = ctx
        self.paths = paths

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
        return Op(self.ctx, tuple((vec, c * k, fs) for vec, k, fs in self.paths) if c else ())

    def __matmul__(self, inner: Op) -> Op:
        paths = self._paths_of(inner)
        return Op(self.ctx, tuple((tuple(map(add, vo, vi)), co * ci, fi + _after(fo, vi))
                                  for vo, co, fo in self.paths for vi, ci, fi in paths))


def _after(factors: tuple, shift: tuple) -> tuple:
    """`factors` read at the exponents e + shift, as factors of e."""
    out = []
    for f in factors:
        if f[0] == DERIV:
            _, i, r, k = f
            out.append((DERIV, i, r + shift[i], k))
        else:
            _, terms, b, q, divide, grading, run = f
            out.append((GRADE, terms, b + sum(a * shift[i] for i, a in terms), q, divide,
                        grading, tuple(map(add, run, shift))))
    return tuple(out)


def mul(poly: Polynomial) -> Op:
    """Multiplication by a fixed polynomial, any object with `ctx` and
    `terms`: one shift per nonzero term."""
    return Op(poly.ctx, tuple((tuple(t), c, ()) for t, c in poly.terms.items() if c))


def deriv(ctx: VariableContext, word: Iterable[str]) -> Op:
    """Composition of partial derivatives, given as a variable-name word."""
    counts = Counter(map(ctx.index, word))
    vec = tuple(-counts[i] for i in range(len(ctx.names)))
    return Op(ctx, ((vec, ONE, tuple((DERIV, i, 0, k) for i, k in sorted(counts.items()))),))


def scalar(ctx: VariableContext, c) -> Op:
    c = Fraction(c)
    return Op(ctx, (((0,) * len(ctx.names), c, ()),) if c else ())


def _grade(ctx: VariableContext, grading: str, c0, c1, divide: bool) -> Op:
    g = ctx.gradings[grading]
    c0, c1 = Fraction(c0), Fraction(c1)
    coeffs = [c1 * w for w in g.weights] + [c0 + c1 * g.shift]
    q = lcm(*(c.denominator for c in coeffs))
    *a, b = (int(c * q) for c in coeffs)
    zero = (0,) * len(a)
    return Op(ctx, ((zero, ONE, ((GRADE, tuple((i, x) for i, x in enumerate(a) if x), b, q,
                                  divide, grading, zero),)),))


def grade_scale(ctx: VariableContext, grading: str, c0, c1) -> Op:
    """Multiply each graded component by c0 + c1*grade."""
    return _grade(ctx, grading, c0, c1, False)


def grade_divide(ctx: VariableContext, grading: str, c0, c1) -> Op:
    """Divide each graded component by c0 + c1*grade (error where it vanishes)."""
    return _grade(ctx, grading, c0, c1, True)


def automorphisms(ops: Sequence[Op], offers: Iterable[tuple]) -> dict:
    """{(perm, neg): (image, signs)} for each offered signed variable
    permutation T (variable i renamed perm[i], those in `neg` negated) that
    sends every operator of `ops` to plus or minus one of them and moves
    some: T A_k T^-1 = signs[k] A_image[k].  T scales x^e by
    (-1)^(sum over neg of e_i), so conjugation renames a path's variables
    and multiplies its coefficient by (-1)^(sum over neg of its net shift).
    Operators are compared as multisets of (coefficient, net shift, factor
    multiset), with nothing evaluated; a `GRADE` factor carries its
    coefficient for each variable, so equal multisets are equal operators.
    A path's body, its net shift and factors, is numbered as the multiset
    of its atoms: each (None, i, k) term of the shift and each factor, less
    a `GRADE` factor's run, which only names a singular monomial.  Each
    distinct atom and body is numbered once and renamed once per offer.
    If any two of the operators and their negatives are equal, none is
    given."""
    atoms, bodies, info, paths, index = {}, {}, [], [], {}
    for k, op in enumerate(ops):
        mine, negs = [], []
        for vec, coef, fs in op.paths:
            keys = [(None, i, x) for i, x in enumerate(vec) if x] + [f[:6] for f in fs]
            key = tuple(sorted([atoms.setdefault(a, len(atoms)) for a in keys]))
            b = bodies.get(key)
            if b is None:
                b = bodies[key] = len(info)
                info.append((key, sum((x & 1) << i for i, x in enumerate(vec))))
            n, d = coef.numerator, coef.denominator
            mine.append((n, d, b))
            negs.append((-n, d, b))
        paths.append(mine)
        index.setdefault(tuple(sorted(mine)), (k, 1))
        index.setdefault(tuple(sorted(negs)), (k, -1))
    kept, fixed = {}, list(range(len(ops)))
    if len(index) < 2 * len(ops):
        return kept
    for perm, neg in offers:
        flip = sum(1 << i for i in neg)
        rename = [atoms.get(_renamed(atom, perm), -1) for atom in atoms]
        new = [bodies.get(tuple(sorted(map(rename.__getitem__, key))), -1) for key, _ in info]
        odd = [(o & flip).bit_count() & 1 for _, o in info]
        image, signs = [], []
        for mine in paths:
            k, sign = index.get(tuple(sorted([(-n if odd[b] else n, d, new[b])
                                              for n, d, b in mine])), (None, 0))
            if k is None:
                break
            image.append(k)
            signs.append(sign)
        else:
            if image != fixed:
                kept[tuple(perm), tuple(neg)] = tuple(image), tuple(signs)
    return kept


def _renamed(atom: tuple, perm: Sequence[int]) -> tuple:
    """A shift term or factor key of `automorphisms` with each variable i
    renamed perm[i]."""
    if atom[0] == GRADE:
        return (GRADE, tuple(sorted((perm[i], a) for i, a in atom[1]))) + atom[2:]
    return (atom[0], perm[atom[1]]) + atom[2:]


class Shifts:
    """The shift registry of one `compile_ops` call.  An id names an
    exponent shift: `vecs[s]` is its vector and `ids` maps a vector back to
    its id.  `idx[s][m]`, for each shift s of the compile's paths, is the
    number of m + vecs[s] for each input monomial number m, None where that
    monomial is not numbered; the shifts that `bracket` registers later
    have no index.  Each monomial of the compile's table is numbered;
    those past the inputs, which their images reach, have no index, for
    no caller reads one, and values only in the `Diagonals` that are
    `full`.  `d` is the least common denominator of the values computed.
    `moves[s]` is the bit mask of the coordinates vecs[s] changes (bit i
    for variable i), which `bracket` tests against `Diagonals.reads`;
    `bracket` also registers the sums of shifts it composes."""

    def __init__(self):
        self.ids: dict = {}
        self.vecs: list = []
        self.moves: list = []
        self.idx: list = []
        self.d = 1

    def id(self, vec: tuple) -> int:
        s = self.ids.get(vec)
        if s is None:
            s = self.ids[vec] = len(self.vecs)
            self.vecs.append(vec)
            self.moves.append(sum(1 << i for i, k in enumerate(vec) if k))
        return s


class Diagonals(dict):
    """One compiled operator as shift diagonals (the DIA sparse format):
    {shift id: `int` value list}, where vals[m]/shifts.d is the coefficient
    of x^(m + shift) in the image of monomial number m, 0 where there is
    none.  `shifts` is the registry all diagonals of one compile share.
    The lists cover every monomial of the compile's table where `full`,
    else its input monomials alone: a `bracket` reads past the inputs.

    `reads[s]` is the bit mask of the exponent coordinates the paths of
    shift s read: the variable of each `DERIV` factor and of each term of
    a `GRADE` factor.  A path's value is its coefficient times those
    factors, so vals[m] is a function of these coordinates of monomial m
    alone: two monomials equal on them have equal values."""

    __slots__ = ("shifts", "reads", "full")

    def __init__(self, shifts: Shifts, reads: dict, full: bool):
        super().__init__()
        self.shifts = shifts
        self.reads = reads
        self.full = full


def _reads(factors: Iterable) -> int:
    """The exponent coordinates `factors` read, as a bit mask: each term
    of a `GRADE` factor, else the one variable f[1] of a `DERIV` factor."""
    mask = 0
    for f in factors:
        if f[0] == GRADE:
            for i, _ in f[1]:
                mask |= 1 << i
        else:
            mask |= 1 << f[1]
    return mask


def block_degrees(ops: Iterable[Op], blocks: Sequence[range]) -> list | None:
    """Per block, a range of variable numbers, the largest total degree in
    its source exponents of a path of `ops`: a `DERIV` factor of order k
    counts k, a `GRADE` factor 1 in each block it reads, or 0 when it is
    constant where each block's exponent sum is fixed, its coefficients
    equal on each block.  None if a divisor is not constant."""
    top, where = [0] * len(blocks), {i: p for p, blk in enumerate(blocks) for i in blk}
    for op in ops:
        for _, _, factors in op.paths:
            deg = [0] * len(blocks)
            for f in factors:
                if f[0] == DERIV:
                    deg[where[f[1]]] += f[3]
                    continue
                a = dict(f[1])
                read = {where[i] for i in a}
                if all(len({a.get(i, 0) for i in blocks[p]}) == 1 for p in read):
                    continue
                if f[4]:
                    return None
                for p in read:
                    deg[p] += 1
            top = list(map(max, top, deg))
    return top


class _Batch:
    """The monomials of one batch of `compile_ops`, also as exponent columns,
    and the lists its paths share, each built once and never written to: the
    product of each run of multiplier factors, `DERIV` or grade, keyed by
    their (DERIV, variable, running shift, order) or (GRADE, terms, B)
    tuples, so paths that share a prefix share its product; each grade's
    linear part, keyed by its terms, and its value list and zeros, keyed
    by (terms, B); each divisor product, keyed by its grade factors,
    inverted once as the `int` Δ, the lcm of its values, and the list
    Δ // product, which every path dividing by it multiplies in, over Δ.
    It dies with its batch."""

    __slots__ = ("monos", "exps", "size", "linear", "grades", "products", "divisors")

    def __init__(self, monos: list, nv: int):
        self.monos = monos
        self.exps = [list(col) for col in zip(*monos)] if monos else [[] for _ in range(nv)]
        self.size = len(monos)
        self.linear, self.grades = {}, {}
        self.products, self.divisors = {(): [1] * self.size}, {}

    def grade(self, key: tuple) -> tuple:
        """(sum_i A_i e_i + B on each monomial, where it is 0), key (terms,
        B).  The linear part sum_i A_i e_i is walked over the exponent
        columns once per terms and shared by every B, so E and E + 1, or
        one grade read after different running shifts, cost one pass
        each beyond it."""
        got = self.grades.get(key)
        if got is None:
            terms, b = key
            lin = self.linear.get(terms)
            if lin is None:
                cols = [self.exps[i] if a == 1 else list(map(times, self.exps[i], repeat(a)))
                        for i, a in terms]
                lin = self.linear[terms] = list(map(sum, zip(*cols))) if terms else [0] * self.size
            val = list(map(add, lin, repeat(b))) if b else lin
            zeros = [j for j, v in enumerate(val) if not v] if 0 in val else []
            got = self.grades[key] = val, zeros
        return got

    def product(self, mults: tuple) -> list:
        """The product of the factors `mults`; a falling factorial is read
        only where the product before it is not 0."""
        num = self.products.get(mults)
        if num is None:
            prev, f = self.product(mults[:-1]), mults[-1]
            col = self.grade(f[1:])[0] if f[0] == GRADE else self.exps[f[1]]
            if f[0] == GRADE or f[2:] == (0, 1):
                num = list(map(times, prev, col)) if mults[:-1] else col
            else:
                _, _, r, k = f
                num = [x and x * perm(e + r, k) for x, e in zip(prev, col)]
            self.products[mults] = num
        return num

    def divisor(self, keys: tuple) -> tuple:
        """The product of the grade factors `keys`, 1 where it is 0,
        inverted once: (Δ, Δ // product), Δ the lcm of its values."""
        got = self.divisors.get(keys)
        if got is None:
            den = [x or 1 for x in self.product(keys)]
            delta = lcm(*set(den))
            got = self.divisors[keys] = delta, list(map(floordiv, repeat(delta), den))
        return got

    def evaluate(self, coef: Fraction, factors: tuple, values: bool = True) -> tuple:
        """One path on the batch: (numerators, `int` denominator), and, for
        the first monomial where a divisor vanishes on a live path, (its
        index, the grading, the running shift there), else None, on which
        `compile_ops` raises.  A path that reaches 0 stays 0 and reads no
        later divisor there, as when the factors are read in order one
        monomial at a time.  Without `values` the divisors alone are
        checked, and the numerators and denominator are None.
        Liveness is read before the coefficient, which no path has 0, is
        multiplied in last with each factor's Q.  Divisors enter as the
        numerators times their product's list Δ // product, over Δ; that
        and the coefficient build new lists, so no shared list is written.
        The numerator c carries each divisor's Q, and gcd(c, Δ) is divided
        out of c and Δ before c is multiplied in.  Where a grade is
        integral on the batch, as a pair model's energy E is on every
        level, Q divides each of its values: all of 1/(E(E+1))'s Q² (16
        in so44, 36 in g2) leaves c, which is left the coefficient's own
        numerator."""
        mults, c, den, divs, bad = (), coef.numerator, coef.denominator, (), None
        for f in factors:
            if f[0] == DERIV:
                mults += (f,)
                continue
            _, terms, b, q, divide, grading, run = f
            if not divide:
                mults += ((GRADE, terms, b),)
                den *= q
                continue
            zeros = self.grade((terms, b))[1]
            if zeros:
                live = self.product(mults)
                j = next((j for j in zeros if live[j]), None)
                if j is not None and (bad is None or j < bad[0]):
                    bad = (j, grading, run)
            c *= q
            divs += ((GRADE, terms, b),)
        if not values:
            return None, None, bad
        num = self.product(mults)
        if divs:
            delta, inv = self.divisor(divs)
            g = gcd(c, delta)
            num, c, den = list(map(times, num, inv)), c // g, den * (delta // g)
        if c != 1:
            num = list(map(times, num, repeat(c)))
        return num, den, bad


def _group_values(evals: list) -> tuple:
    """The summed values of the paths of one net shift, unreduced, as
    (numerators, den, g): the paths' (numerators, `int` denominator) pairs
    of `evals`, only read, summed over den, the lcm of their denominators.
    g = den/gcd(den, x_1, ..., x_M) is the lcm over m of the reduced
    denominators den/gcd(den, x_m) of the values, prime by prime."""
    den = lcm(*(e for _, e in evals))
    num, *rest = (n if e == den else list(map(times, n, repeat(den // e))) for n, e in evals)
    for n in rest:
        num = list(map(add, num, n))
    return num, den, den // gcd(den, *num)


def _over(num: list, den: int, g: int, d: int) -> Iterable:
    """num/den as `int`s over d, which g of `_group_values` divides, in at
    most two C-level passes: h = den // g = gcd(den, *num) divides every
    x, so x*d/den = (x // h) * (d // g) exactly, never x*d // den."""
    h, k = den // g, d // g
    if h != 1:
        num = map(floordiv, num, repeat(h))
    return num if k == 1 else map(times, num, repeat(k))


def compile_ops(ops: Sequence[Op], monos: Iterable[tuple], reach=None) -> tuple:
    """(table, cols): `table` lists the compiled monomials by number,
    `monos` first without repeats, then those their images reach, in
    first-seen order of (operator, monomial, path).  cols[i] is operator
    i as `Diagonals` on `monos` and what they reach: all that products of
    two of the operators look up on `monos`.  `idx` covers `monos` alone:
    the reached monomials get no index, so what only they reach gets no
    number.  Values past `monos` go only to the operators whose numbers
    are in `reach` (every operator where it is None), whose `Diagonals`
    are `full`; the table, the numbering and the divisor check, of every
    operator on every monomial of the table, do not depend on it.  Each
    operator's paths are grouped by net shift, in first-path order, and
    evaluated in `int` over all monomials of a batch; all-zero diagonals
    are dropped.  The values are `int`s over shifts.d, with no `Fraction`
    built per monomial.  The same operator object shares one
    `Diagonals`, scaled once.  Raises `ContextMismatchError` across
    contexts, and `SingularGradeError` at the first (operator, monomial,
    path) that meets a vanishing divisor.

    Monomials are keyed by integer codes, summed over the exponent columns
    of `monos`, and a tuple is built only for a monomial that gets a
    number.  Digit i of the code of x^e is e_i + off in base
    off + E + top + 1, where off is the largest negative shift component,
    top the largest positive one (each 0 if there is none) and E the
    largest exponent of `monos`.  A shift's code is its vector read as
    digits without the offset, so code(m) + code(shift) has the digits
    e_i + shift_i + off.  Only monomials of `monos` are looked up from, so
    those digits stay in 0..base-1: no sum carries or borrows, and
    code(m + shift) = code(m) + code(shift).  A vector with a negative
    entry has a digit below off, which no monomial's code has, so it is
    never taken for a numbered monomial.  An operator's new images are its
    nonzero sources' m + shift whose codes have no number yet; each
    shift's index is one pass over `monos` once every image is numbered.

    Each list is built once per compile: the paths of all operators share
    a batch's derivative-word products, grade values and divisor products,
    each inverted once as Δ and Δ // product (`_Batch`), so each path is
    an `int` list N_m over one `int`.  A shift's sum stays unreduced
    (`_group_values`) until d is known, then is scaled to d (`_over`); d
    is the least d of the values computed, for
    lcm_m(Δ/gcd(N_m, Δ)) = Δ/gcd(Δ, N_1, ..., N_M).
    No list of the result is shared with another compile."""
    ctx = ops[0].ctx if ops else None
    if any(op.ctx is not ctx for op in ops):
        raise ContextMismatchError("operators from different contexts")
    table = list(dict.fromkeys(monos))
    full = {id(op) for op in ops} if reach is None else {id(ops[i]) for i in reach}
    shifts, nv = Shifts(), len(ctx.names) if ctx else 0
    groups = {}  # id(op) -> {shift id: [(path index, coefficient, factors)]}
    for op in ops:
        if id(op) not in groups:
            groups[id(op)] = by_shift = {}
            for p, (vec, coef, factors) in enumerate(op.paths):
                by_shift.setdefault(shifts.id(vec), []).append((p, coef, factors))
    vals = {key: {s: [] for s in by_shift} for key, by_shift in groups.items()}
    vecs = shifts.vecs
    comps = [k for v in vecs for k in v]
    off, top = max(0, -min(comps, default=0)), max(0, max(comps, default=0))
    base = off + max(chain.from_iterable(table), default=0) + top + 1
    place = [base ** i for i in range(nv)]
    lift = off * sum(place)  # the code of the offset digits

    shared = _Batch(table[:], nv)
    codes = [lift] * shared.size
    for p, col in zip(place, shared.exps):
        codes = list(map(add, codes, map(times, col, repeat(p))))
    code = dict(zip(codes, count()))  # monomial code -> number
    dks = [sum(map(times, v, place)) for v in vecs]
    for last in (False, True):  # `monos`, then what they reach
        if last:
            shared = _Batch(table[len(codes):], nv)
        for key, by_shift in groups.items():
            values = not last or key in full
            evals, bad = {}, []
            for paths in by_shift.values():
                for p, coef, factors in paths:
                    num, den, hit = shared.evaluate(coef, factors, values)
                    evals[p] = num, den
                    if hit:
                        bad.append((hit[0], p, hit))
            if bad:
                j, _, (_, grading, run) = min(bad, key=lambda b: b[:2])
                m = tuple(map(add, shared.monos[j], run))
                raise SingularGradeError(m, ctx.grade_of(m, grading))
            if not values:
                continue
            new = []
            for s, paths in by_shift.items():
                v, den, g = _group_values([evals[p] for p, _, _ in paths])
                vals[key][s].append((v, den, g))
                if last:
                    continue
                # new monomials are numbered per source in the order of the
                # first path that is nonzero there
                first, dk = paths[0][0], dks[s]
                new += [(j, first if len(paths) == 1 else
                         next(p for p, _, _ in paths if evals[p][0][j]), s)
                        for j in compress(count(), v) if codes[j] + dk not in code]
            new.sort()
            for j, _, s in new:
                c = codes[j] + dks[s]
                if c not in code:
                    code[c] = len(table)
                    table.append(tuple(map(add, shared.monos[j], vecs[s])))
    shifts.idx = [list(map(code.get, map(add, codes, repeat(dk)))) for dk in dks]
    d = shifts.d = lcm(*(g for by_shift in vals.values() for parts in by_shift.values()
                         for _, _, g in parts))
    cols = {}
    for key, by_shift in vals.items():
        cols[key] = Diagonals(shifts, {s: _reads(f for _, _, fs in paths for f in fs)
                                       for s, paths in groups[key].items()}, key in full)
        for s, parts in by_shift.items():
            v = list(chain.from_iterable(_over(n, den, g, d) for n, den, g in parts))
            parts.clear()  # frees the batch lists as they are joined
            if any(v):
                cols[key][s] = v
    return table, [cols[id(op)] for op in ops]


def bracket(a: Diagonals, b: Diagonals, monos: range) -> dict:
    """A(B m) - B(A m) for the monomial numbers m of the range `monos`,
    from the diagonals of A and B: {shift id: value list over `monos`},
    all-zero lists dropped.  `combination` gives a sum of operators in
    the same form, so the bracket equals that sum on `monos` exactly when
    the two dicts are equal.

    Shift s of A after shift t of B and shift t of B after shift s of A
    both move m to m + s + t, so each pair (s, t) of diagonals is one list
    comprehension over the slice, B_t[m] A_s[m + t] - A_s[m] B_t[m + s],
    each value read at the number of m + shift.  The closure checks run
    this on every pair of operators, with `monos` inside the monomials
    `compile_ops` was given; on its `int` diagonals, the operators times
    d, the kernel sums in `int`.  A_s[m + t] is read only where
    B_t[m] != 0, for there m + t is numbered and compiled, and likewise
    B_t[m + s] only where A_s[m] != 0.

    A pair is skipped when t moves no coordinate that A_s reads and s
    moves none that B_t reads (`Shifts.moves`, `Diagonals.reads`): its
    term is then 0 on every m.  A_s is a function of the coordinates it
    reads alone, and m + t agrees with m on them, so A_s[m + t] = A_s[m]
    wherever B_t[m] != 0, for there m + t is numbered and compiled.
    Likewise B_t[m + s] = B_t[m] wherever A_s[m] != 0.  Where both are
    nonzero the term is B_t[m] A_s[m] - A_s[m] B_t[m] = 0.  Where B_t[m]
    is 0 the first product is 0, and the second is 0 or
    A_s[m] B_t[m + s] = A_s[m] B_t[m] = 0; the case A_s[m] = 0 is the
    same with the roles swapped."""
    reg, lo, hi = a.shifts, monos.start, monos.stop
    sides = [(s, v, v[lo:hi], reg.idx[s][lo:hi], a.reads[s], reg.moves[s])
             for s, v in a.items()]
    out: dict = {}
    for t, bv in b.items():
        ys, kt, rt, mt = bv[lo:hi], reg.idx[t][lo:hi], b.reads[t], reg.moves[t]
        for s, av, xs, ks, rs, ms in sides:
            if not (rs & mt or rt & ms):
                continue
            v = [(y * av[j] if y else 0) - (x * bv[k] if x else 0)
                 for x, y, j, k in zip(xs, ys, kt, ks)]
            st = reg.id(tuple(map(add, reg.vecs[s], reg.vecs[t])))
            old = out.get(st)
            out[st] = v if old is None else list(map(add, old, v))
    return {st: v for st, v in out.items() if any(v)}


def _stacked(diags: dict, lo: int) -> dict:
    """Per-shift lists over a range starting at `lo` as one vector
    {(shift id, source number): value}."""
    return {(s, lo + p): x for s, v in diags.items() for p, x in enumerate(v) if x}


# structure_constants: (i, j) with i < j -> {k: exact coefficient};
# unstable: ((i, j), first source number at or past basis.stop where the
# constants fail), only when every pair closes
SpanReport = namedtuple("SpanReport", "rank closed independent structure_constants"
                                      " failures unstable")


def pair_orbits(size: int, perms: Iterable) -> dict:
    """The orbits of the pairs i < j of `size` operators under the group
    that the signed operator permutations `perms` = (image, signs) of
    `automorphisms` generate, as {least pair: [(pair, parent, image,
    signs), ...]}: each orbit is keyed by its least pair in pair order and
    lists its other pairs in breadth-first order from it, each with the
    pair and the generator that first reached it."""
    perms, orbits, seen = list(perms), {}, set()
    for root in combinations(range(size), 2):
        if root in seen:
            continue
        seen.add(root)
        orbits[root] = members = []
        queue = [root]
        for a, b in queue:
            for image, signs in perms:
                x, y = image[a], image[b]
                key = (x, y) if x < y else (y, x)
                if key not in seen:
                    seen.add(key)
                    members.append((key, (a, b), image, signs))
                    queue.append(key)
    return orbits


def span_structure(cols: Sequence, basis: range, stop: int,
                   orbits: dict | None = None) -> SpanReport | None:
    """Commutator closure of operators, given by their `compile_ops`
    diagonals, acting on the span of the monomial numbers in the range
    `basis`, and stability of the structure constants on the sources
    basis.stop..stop-1.  An operator or bracket on a range of sources
    enters the `Reducer` stacked and keyed (shift id, source number), a
    bijection with the (image, source) entries of its matrix.

    The operators are reduced on a prefix of `basis`, 8 sources long and
    doubled until they are independent there or the prefix is all of
    `basis`.  Each checked pair is bracketed once, from the prefix's start
    to the end of its check range: it is solved on the prefix slice and
    checked on every later source up to `stop`.  The combination
    sum_k c_k op_k of its constants is built on the same range
    (`combination`), and the bracket is compared with it: both drop
    all-zero lists, so they are equal exactly when the residual, their
    difference, is zero.  On the prefix it is, so
    the first source where a shift's lists differ (a missing list read as
    zeros) is the first where the residual is nonzero, and is read off the
    two with nothing bracketed again.  This is exact: restriction to a
    prefix is linear, so operators independent on it have unique
    coordinates, and a bracket lies in their span on `basis` if and only if
    the prefix solution's residual vanishes on all of `basis`.  Operators
    dependent on all of `basis` are reduced on all of it, and only the
    sources from basis.stop on are left to check.  The first source where
    the residual is nonzero decides: inside `basis` the bracket leaves the
    span, a closure failure; from basis.stop on the pair closes but is
    unstable, with that source as its witness.  All images are exact (no
    truncation): a bracket fails only if it genuinely leaves the linear
    span of the operators as maps on the basis columns.

    `orbits` are those of `pair_orbits`, under signed operator
    permutations (π, ε) from `automorphisms`, each of a signed variable
    permutation T that maps each sampled level's monomials to its
    monomials up to sign, with T A_k T^-1 = ε_k A_πk.  A pair i < j is
    checked as above unless constants were handed to it.  If
    [A_i, A_j] = sum_k c_k A_k has residual R, then
    [A_πi, A_πj] = ε_i ε_j sum_k ε_k c_k A_πk has ε_i ε_j T R T^-1, zero on
    each level where R is, for T maps the level to itself up to sign.  So
    where an orbit's least pair closes with stable constants (or closes,
    checked to basis.stop after a failure) they are handed along the
    orbit's links, each pair reached from its parent (a, b) by (π, ε)
    getting {π(k): ε_a ε_b ε_k c_k}, negated where π reverses the pair: its
    unique coordinates, the operators being independent.  Where they are
    dependent nothing is handed on.  Where a least pair fails or is
    unstable each pair of its orbit does too, and each is checked itself,
    so failures and witnesses are the pair-by-pair ones.

    A bracket reads past `basis` and `stop`, so it needs `full` diagonals
    (`compile_ops`' `reach`).  Where some operator's are not, only the
    least pairs' operators need be `full`, and the result is None, with
    nothing more bracketed, as soon as a pair other than a least pair
    would be: when the operators are dependent, or at the first least pair
    that fails or is unstable.
    """
    partial = not all(col.full for col in cols)
    lo, hi, size = basis.start, basis.stop, 8
    while True:
        prefix, span = range(lo, min(lo + size, hi)), Reducer()
        for k, col in enumerate(cols):
            span.add(k, _stacked({s: v[lo:prefix.stop] for s, v in col.items()}, lo))
        if span.rank == len(cols) or prefix.stop == hi:
            break
        size *= 2
    if span.rank < len(cols):  # constants are not unique, so none is handed on
        if partial:
            return None
        orbits = None
    sc: dict = {}
    failures: list = []
    unstable: list = []
    handed: dict = {}  # pair -> constants handed on from the least pair of its orbit
    for i, j in combinations(range(len(cols)), 2):
        if (i, j) in handed:
            sc[(i, j)] = handed[i, j]
            continue
        # after a closure failure no pair is reported unstable, so the
        # sources from basis.stop on are no longer checked
        check = range(prefix.stop, hi if failures else stop)
        whole = range(lo, check.stop)
        full = bracket(cols[i], cols[j], whole)
        combo = span.solve(_stacked({s: v[:len(prefix)] for s, v in full.items()}, lo))
        first = stop
        if combo is not None:
            want = combination(cols, combo, whole)
            zeros = [0] * len(whole)
            pairs = (zip(full.get(s, zeros), want.get(s, zeros))
                     for s in full.keys() | want.keys() if full.get(s) != want.get(s))
            first = min((lo + next(p for p, (x, y) in enumerate(xy) if x != y) for xy in pairs),
                        default=stop)
        stable = combo is not None and first == stop
        if partial and not stable:
            return None
        if combo is None or first < hi:
            failures.append((i, j))
        else:
            sc[(i, j)] = combo
            if first < stop:
                unstable.append(((i, j), first))
        if orbits and stable:
            got = {(i, j): combo}
            for pair, (a, b), image, signs in orbits.get((i, j), ()):
                sign = signs[a] * signs[b] if image[a] < image[b] else -signs[a] * signs[b]
                got[pair] = {image[k]: v if signs[k] == sign else -v
                             for k, v in got[a, b].items()}
            handed.update(got)
    return SpanReport(span.rank, not failures, span.rank == len(cols), sc, failures,
                      [] if failures else unstable)


def combination(cols: Sequence, combo: dict, basis: range) -> dict:
    """sum_k combo[k] op_k on the range of monomial numbers `basis`, as
    {shift id: value list}, all-zero lists dropped like `bracket`'s.
    A constant enters as it was solved, an `int` or a `Fraction`; an
    integral `Fraction` gives entries equal to the `int`s of `bracket`."""
    lo, hi = basis.start, basis.stop
    out: dict = {}
    for k, c in combo.items():
        for s, v in cols[k].items():
            xs = v[lo:hi]
            old = out.get(s)
            out[s] = [c * x for x in xs] if old is None else [y + c * x for y, x in zip(old, xs)]
    return {s: v for s, v in out.items() if any(v)}

