"""Concrete operator realizations at desk scale.

Two kinds of model ship: the flat oscillator tower on n variables, and
the pair models, each read off a registry row by one rule.  Each model
knows its graded basis, its raising/lowering pairs, and its compact
operators; brute-force closure, the level contract on the operators'
paths and the invariant Gram recursion live here.  Every operator is an
`opcalc.Op`, built from its leaves with `+`, `-`, `*` and `@`, so its
shift-symbol paths are in place once the model is built.

`pair_model(name, ws, r0)` builds the model of a case whose Jordan blocks
all have q = 1 from the blocks' weights w and a bundle's r0 alone, as in
Kostant's SO(4,4) model (Progr. Math. 92, 1990) and Brylinski-Kostant
(PNAS 91, 1994):

- Block p is the pair x{p}_1, x{p}_2, of degree a*n + b on level n with
  a = w and b = w*r0 - 1, and carries the sl2 triple E{p} = x_1 d_2,
  F{p} = x_2 d_1, H{p} = x_1 d_1 - x_2 d_2 (E, F adjoint; H self-adjoint).
- The generators f are every product of one x_1^(w-k) x_2^k per block,
  pure powers first, then rising k.  Their tag has one digit k+1 per
  block: f is x<tag>, its algebra operator A<tag>.
- With g = (degree + 1)/w of the first block of least w (the `beta`
  grading) and scale = prod w^(-w), f lowers by scale/(g(g+1)) d^f, and
  A<tag> = f - sign * scale/(g(g+1)) d^conj, where conj swaps the two
  variables of each block and sign = (-1)^(sum of the k).  In g2 this
  gives the mixed cubics the opposite parity from the pure cubics, the
  unique assignment under which its brackets close.
- The distinguished triple (e, ebar, h) is the A of every k = 0, that of
  its conjugate, and half the sum of the H.

`PAIR_MODELS` names two rows by their (ws, r0): so44 (SO:4,4) and g2
(G2:2); a test ties them to the registry.

Level data comes from the blocks alone, for every model: level n is the
product of each block's compositions of a*n + b, and its highest weight
puts each block's whole degree on the block's first variable.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import accumulate, chain, product
from math import comb, factorial, lcm, prod
from operator import add

from .exactalg import Polynomial, VariableContext
from .opcalc import (Op, block_degrees, bracket, compile_ops, deriv, grade_divide,
                     grade_scale, mul, residual, scalar, span_structure)
from .sparse import ONE, Reducer, axpy, ldl_pivots, matvec

Q = Fraction


class Block(namedtuple("Block", "names a b", defaults=(1, 0))):
    """names: variables, consecutive in the context; the degree on level n
    is a*n + b."""

    __slots__ = ()

    def degree(self, n: int) -> int:
        return self.a * n + self.b


# (ws, r0): the blocks' weights of SO:4,4 and G2:2 and their L0 bundle's r0
PAIR_MODELS = {"so44": ((1, 1, 1, 1), 1), "g2": ((3, 1), 1)}


# f: the raising section, a `Polynomial` of one monomial with coefficient 1;
# lower: the adjoint of multiplication by f, for the Gram recursion
GeneratorInfo = namedtuple("GeneratorInfo", "name f lower")


class ModelSpec(namedtuple("ModelSpec", "name ctx blocks compact_ops generators"
                                        " algebra_ops sl2")):
    """blocks: `Block`s covering ctx.names in order; compact_ops: (name, op,
    adjoint index into compact_ops); generators: `GeneratorInfo`s;
    algebra_ops: (name, op), the full transcribed list; sl2: the (e, ebar,
    h) operators.  Each is a tuple, so no check can edit a shared model."""

    __slots__ = ()

    def level_basis(self, n: int) -> list:
        parts = [_compositions(blk.degree(n), len(blk.names)) for blk in self.blocks]
        return sorted((sum(combo, ()) for combo in product(*parts)), reverse=True)

    def hw_monomial(self, n: int) -> tuple:
        return sum(((blk.degree(n),) + (0,) * (len(blk.names) - 1)
                    for blk in self.blocks), ())


def build_model(name: str, n: int = 1) -> ModelSpec:
    if name in PAIR_MODELS:
        return pair_model(name, *PAIR_MODELS[name])
    if name in ("oscillator", "osc"):
        if n < 1:
            raise ValueError("oscillator needs n >= 1")
        return _build_oscillator(n)
    raise ValueError(f"unknown model {name!r}")


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _x_d(ctx: VariableContext, a: str, b: str) -> Op:
    return mul(ctx.var(a)) @ deriv(ctx, (b,))


# ---------------------------------------------------------------- oscillator

def _build_oscillator(nv: int) -> ModelSpec:
    names = [f"z{j + 1}" for j in range(nv)]
    ctx = VariableContext(names)
    ctx.add_grading("energy", [1] * nv, Q(nv, 2))
    zs = [ctx.var(nm) for nm in names]

    compact = []
    for j, k in product(range(nv), repeat=2):
        op = _x_d(ctx, names[j], names[k])
        if j == k:
            op = op + scalar(ctx, Q(1, 2))
        # adjoint of z_j d_k + delta/2 is z_k d_j + delta/2
        compact.append((f"z{j + 1}d{k + 1}", op, k * nv + j))

    gens = [GeneratorInfo(names[j], zs[j], deriv(ctx, (names[j],)))
            for j in range(nv)]

    algebra = [(nm, op) for nm, op, _ in compact]
    for j in range(nv):
        for k in range(j, nv):
            algebra.append((f"z{j + 1}z{k + 1}", mul(zs[j] * zs[k])))
            algebra.append((f"d{j + 1}d{k + 1}", deriv(ctx, (names[j], names[k]))))

    e_op = Q(1, 2) * mul(sum((z * z for z in zs), ctx.zero()))
    ebar_op = Q(-1, 2) * sum((deriv(ctx, (nm, nm)) for nm in names), scalar(ctx, 0))
    # multiplication by the energy grade sum_i z_i d_i + n/2
    h_op = grade_scale(ctx, "energy", 0, 1)
    return ModelSpec("oscillator", ctx, (Block(tuple(names)),),
                     tuple(compact), tuple(gens), tuple(algebra), (e_op, ebar_op, h_op))


# --------------------------------------------------------------- pair models

def pair_model(name: str, ws, r0) -> ModelSpec:
    """The pair model of a row with block weights `ws` and a bundle of
    grading eigenvalue `r0`, by the rule of the module docstring;
    ValueError unless every w*r0 - 1 is a non-negative integer."""
    blocks = []
    for p, w in enumerate(ws, start=1):
        b = w * Q(r0) - 1
        if b < 0 or b.denominator != 1:
            raise ValueError(f"block {p}: w*r0 - 1 = {b} is not a non-negative integer")
        blocks.append(Block((f"x{p}_1", f"x{p}_2"), w, int(b)))
    ctx = VariableContext([v for blk in blocks for v in blk.names])
    # g = (degree + 1)/w of the first block of least w
    low = ws.index(min(ws))
    weights = [0] * len(ctx.names)
    weights[2 * low] = weights[2 * low + 1] = Q(1, ws[low])
    ctx.add_grading("beta", weights, Q(1, ws[low]))
    # 1/(g(g+1)), applied after the inner operator
    recip = grade_divide(ctx, "beta", 1, 1) @ grade_divide(ctx, "beta", 0, 1)
    scale = Q(1, prod(w ** w for w in ws))

    compact, hs = [], []
    for p, blk in enumerate(blocks, start=1):
        x1, x2 = blk.names
        hs.append(_x_d(ctx, x1, x1) - _x_d(ctx, x2, x2))
        k = len(compact)
        compact += [(f"E{p}", _x_d(ctx, x1, x2), k + 1),
                    (f"F{p}", _x_d(ctx, x2, x1), k),
                    (f"H{p}", hs[-1], k + 2)]

    def lowering(exps):
        """scale/(g(g+1)) d^exps"""
        word = [v for v, e in zip(ctx.names, exps) for _ in range(e)]
        return scale * (recip @ deriv(ctx, word))

    # per block, the k of x_1^(w-k) x_2^k: pure powers first, then rising k
    orders = [sorted(range(w + 1), key=lambda k: (-abs(w - 2 * k), k)) for w in ws]
    gens, algebra, by_ks = [], [(nm, op) for nm, op, _ in compact], {}
    for ks in product(*orders):
        tag = "".join(str(k + 1) for k in ks)
        exps = sum(((w - k, k) for w, k in zip(ws, ks)), ())
        conj = sum(((k, w - k) for w, k in zip(ws, ks)), ())
        f = Polynomial(ctx, {exps: ONE})
        gens.append(GeneratorInfo(f"x{tag}", f, lowering(exps)))
        # sum(ks) letters of the word are second variables
        by_ks[ks] = mul(f) - (-1) ** sum(ks) * lowering(conj)
        algebra.append((f"A{tag}", by_ks[ks]))

    h_op = Q(1, 2) * sum(hs, scalar(ctx, 0))
    return ModelSpec(name, ctx, tuple(blocks), tuple(compact), tuple(gens), tuple(algebra),
                     (by_ks[(0,) * len(ws)], by_ks[tuple(ws)], h_op))


# --------------------------------------------------------------- verification

# unstable: (name_i, name_j, first level-max_level monomial its constants
# fail on)
BracketReport = namedtuple("BracketReport", "rank closed independent stable sl2_ok"
                                            " structure_constants failures unstable")


def verify_brackets(model: ModelSpec, max_level: int) -> BracketReport:
    """Closure on levels 0..max_level-1, stability of its constants on
    level max_level, plus the distinguished raising/lowering commutator,
    all decided on a sample of each level that proves a residual zero on
    all of the level.  Each operator, the sl2 triple included, is compiled
    once, in one call, on the samples of levels 0..max_level and what they
    reach, numbered 0, 1, ... in level order.  `span_structure` decides
    closure and stability by one residual per pair over these sources:
    where it is first nonzero below level max_level the pair does not
    close; on level max_level the pair is unstable, reported only when
    every pair closes.

    A path's value on a source is a product of falling factorials and
    grade factors in its exponents, of degree at most delta_p in block p's
    exponents (`block_degrees`, over the algebra and the sl2 triple), so on
    level n each diagonal of a combination of operators, and each entry of
    a bracket residual, is a polynomial of degree at most D_p = 2*delta_p
    in them.  With e_pk = a_p*n + b_p less the block's other exponents, it
    is one of that degree in the first k_p - 1 alone, and the compositions
    whose first k_p - 1 parts sum to at most D_p (all, below D_p) are
    unisolvent for those: D_p + 1 values of e_p1 for a pair (N. Alon,
    Combinatorial Nullstellensatz, 1999, Lemma 2.1), the principal lattice
    for more parts (K. C. Chung and T. H. Yao, SIAM J. Numer. Anal. 14,
    1977).  Their product over the blocks is the level's sample.  A
    combination of operators that vanishes on the samples thus vanishes on
    every source, so rank, independence and the prefix solve are those of
    all sources, and a residual is zero on a level exactly when it is zero
    on its sample.  A level is its own sample where a grade divisor varies
    within a level or the level is not every product of the blocks'
    compositions.  An unstable pair's witness is the first monomial of all
    of level max_level where its constants fail, found by one more compile
    of that level, made only when some pair is unstable.  A
    `SingularGradeError` names the first sampled monomial (or one it
    reaches) where a divisor vanishes, which may differ from the first
    monomial of the same level.

    `compile_ops` gives the diagonals as `int`s over d = shifts.d, the lcm
    of their values' denominators, and every bracket is checked on these
    diagonals of dA: [A_i, A_j] = sum c_k A_k holds exactly when
    [dA_i, dA_j] = sum (d c_k)(dA_k), so rank, independence, closure and
    stability are those of the operators themselves; [e, ebar] = h is
    checked as [de, d ebar] - d (dh) = 0.  The constants solved for the
    dA_k are divided by d before they are reported."""
    if max_level < 2:
        raise ValueError("need max_level >= 2")
    ops = [op for _, op in model.algebra_ops]
    every = ops + list(model.sl2)
    bases = [model.level_basis(n) for n in range(max_level + 1)]
    sample = _sample(model, bases, every)
    _, cols = compile_ops(every, chain.from_iterable(sample))
    d = cols[0].shifts.d
    cols, (e, ebar, h) = cols[:len(ops)], cols[len(ops):]
    stop = sum(map(len, sample))
    small = stop - len(sample[-1])
    rep = span_structure(cols, range(small), stop)
    names = [name for name, _ in model.algebra_ops]
    sc = {pair: {k: Q(c, d) for k, c in combo.items()}
          for pair, combo in rep.structure_constants.items()}
    return BracketReport(rep.rank, rep.closed, rep.independent,
                         rep.closed and not rep.unstable,
                         not bracket(e, ebar, range(small), ((h, d),)),
                         sc, [(names[i], names[j]) for i, j in rep.failures],
                         _witnesses(model, bases[-1], [pair for pair, _ in rep.unstable], sc))


def _witnesses(model: ModelSpec, level: list, pairs: list, sc: dict) -> list:
    """(name_i, name_j, first monomial of `level` where [A_i, A_j] =
    sum_k sc[i, j][k] A_k fails) for each pair (i, j) of `pairs`, from one
    compile of `level`, the constants scaled to its d; none for none."""
    if not pairs:
        return []
    table, cols = compile_ops([op for _, op in model.algebra_ops], level)
    d, out = cols[0].shifts.d, []
    for i, j in pairs:
        res = residual(cols, (i, j), {k: c * d for k, c in sc[i, j].items()}, range(len(level)))
        out.append((model.algebra_ops[i][0], model.algebra_ops[j][0],
                    table[min(next(p for p, x in enumerate(v) if x) for v in res.values())]))
    return out


def _sample(model: ModelSpec, bases: list, ops: list) -> list:
    """The sample of each level of `bases`, in its order: the monomials
    whose first k_p - 1 exponents in each block p sum to at most
    D_p = 2*block_degrees(ops)[p].  The whole level where a grade divisor
    of `ops` varies within a level, or where the level is not every
    product of the blocks' compositions."""
    ends = list(accumulate(len(blk.names) for blk in model.blocks))
    ranges = [range(end - len(blk.names), end) for blk, end in zip(model.blocks, ends)]
    degrees = block_degrees(ops, ranges)
    return [basis if degrees is None or len(basis) != prod(
                comb(blk.degree(n) + len(r) - 1, len(r) - 1)
                for blk, r in zip(model.blocks, ranges)) else
            [m for m in basis if all(sum(m[r.start:r.stop - 1]) <= 2 * dp
                                     for r, dp in zip(ranges, degrees))]
            for n, basis in enumerate(bases)]


def degree_contract_failures(model: ModelSpec) -> list:
    """The level contract the Gram recursion presumes, checked on the
    operators' paths: each compact operator keeps every level,
    multiplication by each raising section f raises it by one, and each
    lowering operator lowers it by one and kills level 0.  A path moves
    every exponent by its fixed net shift, so it changes the degree of
    block k by the same amount on every level; it maps level n into level
    n + step for every n exactly when that amount is step * a_k for each
    block.  Lowering then kills level 0 when level -1 is empty, that is
    when some block has b < a.  The paths thus decide the contract for all
    levels at once, with nothing compiled.

    The check is stricter than evaluation: a path with the wrong shift is
    named even where its values vanish, as those of z^(L+2) d^(L+1) do on
    levels 0..L.  One witness per (operator, wrong shift), naming the
    operator set, the operator and the net shift; empty when the contract
    holds."""
    sets = (("compact", 0, [(name, op) for name, op, _ in model.compact_ops]),
            ("raising", 1, [(g.name, mul(g.f)) for g in model.generators]),
            ("lowering", -1, [(g.name, g.lower) for g in model.generators]))
    ends = list(accumulate(len(blk.names) for blk in model.blocks))
    kills = any(blk.b < blk.a for blk in model.blocks)
    failures = []
    for kind, step, ops in sets:
        for name, op in ops:
            for vec in dict.fromkeys(op.shifts()):
                if any(sum(vec[end - len(blk.names):end]) != step * blk.a
                       for blk, end in zip(model.blocks, ends)):
                    failures.append(f"{kind} {name}: path shift {vec} does not map"
                                    f" level n into level n{step:+d}")
                elif step < 0 and not kills:
                    failures.append(f"{kind} {name}: path shift {vec} maps level 0"
                                    " into level -1, which is not empty")
    return failures


# -------------------------------------------------------------- Gram solving

# grams: per level, a dict {(i, j): Fraction}, zero entries absent.
# well_defined: every (generator, level-(n-1) monomial) pair gives the same
# row and every row is reached.  adjoint_ok is the first condition alone,
# so the two differ only when an unreached row is the sole failure; all
# four flags are False when the level contract or the level-0 solve fails.
# pivots: per level, up to the first level that is not positive-definite,
# the LDLᵀ pivots of its Gram, one positive pivot per basis monomial when
# it is; the certificate of `positive_definite`
GramReport = namedtuple("GramReport", "max_level bases grams well_defined symmetric"
                                      " positive_definite adjoint_ok failures pivots")


def _level0_gram(model: ModelSpec, basis: list):
    """Solve the level-0 Gram on the basis numbered 0..k-1 from compact
    skew-pairing plus the highest-weight normalization; its rows, or a
    failure message.  Each unknown B(s_i, s_j), i <= j, is its column over
    the equations, and the `Reducer` spans these columns: a dependent one
    leaves the system underdetermined, a right-hand side outside their
    span makes it inconsistent.  The level contract keeps every compact
    image on the basis."""
    k = len(basis)
    table, diags = compile_ops([op for _, op, _ in model.compact_ops], basis)
    # column i of each operator's matrix, {image number: value}
    mats = [[{col.shifts.idx[s][i]: v[i] for s, v in col.items() if v[i]} for i in range(k)]
            for col in diags]

    def key(i, j):
        return (i, j) if i <= j else (j, i)

    cols = {(i, j): {} for i in range(k) for j in range(i, k)}
    equations = product(zip(model.compact_ops, mats), product(range(k), repeat=2))
    for r, (((_, _, adj), mat), (i, j)) in enumerate(equations):
        # equation r: B(op s_i, s_j) - B(s_i, adj s_j) = 0, times d
        eq = {key(kk, j): c for kk, c in mat[i].items()}
        axpy(eq, -1, {key(i, kk): c for kk, c in mats[adj][j].items()})
        for u, c in eq.items():
            cols[u][r] = c
    # equation -1: B(s_hw, s_hw) = 1
    hw = table.index(model.hw_monomial(0))
    cols[hw, hw][-1] = 1
    span = Reducer()
    independent = all(span.add(u, col) for u, col in cols.items())
    sol = span.solve({-1: 1}) if independent else None
    if sol is None:
        return "level-0 solve failed (inconsistent or underdetermined)"
    rows = [{} for _ in basis]
    for i, j in cols:
        if sol.get((i, j)):
            rows[i][j] = rows[j][i] = Q(sol[i, j])
    return rows


def _transposed(col, source: range, lo: int, hi: int) -> list:
    """Rows of the transpose of an operator's matrix, given by its
    diagonals, from the monomial numbers `source` to lo..hi-1, where every
    image of a source lies: row k maps j to the coefficient of lo + k in
    the image of source[j]."""
    rows = [{} for _ in range(lo, hi)]
    diags = [(v[source.start:source.stop], col.shifts.idx[s][source.start:source.stop])
             for s, v in col.items()]
    for j in range(len(source)):
        for v, ks in diags:
            c = v[j]
            if c:
                rows[ks[j] - lo][j] = c
    return rows


def solve_gram(model: ModelSpec, max_level: int) -> GramReport:
    """Grams of levels 0..max_level.  Level 0 is solved; level n follows
    from B_n(f m', v) = B_{n-1}(m', L v), the adjointness of raising by f
    and lowering by L, compiled on all levels: level n is the numbers
    off[n]..off[n+1]-1.  One pass over every (generator, level-(n-1)
    monomial m') pair sets the row of f_gen m' to G_{n-1}[m'] L_gen on its
    first visit and compares it on every later one, with each lowering
    matrix L_gen built once per level.  That comparison is the adjointness
    check: a mismatch fails both `well_defined` and `adjoint_ok`.  Each
    f_gen is one monomial with coefficient 1, which the recursion assumes:
    the row of f_gen m' is found by adding exponents, and no coefficient
    divides it.  The rows are `int`s: level 0 times D_0, the lcm of its
    denominators, and level n, G_{n-1}[m'] (dL_gen)ᵀ on the `int`
    diagonals over d, times D_n = D_{n-1} d; each entry x is reported, and
    certified, as x/D_n.

    Each level is finished as soon as it is built: its `int` rows are
    checked for symmetry, divided by D_n once, certified while every lower
    level is positive-definite, and reported; only its `int` rows are kept,
    to build the next level.  A pivot failure is listed after the
    adjointness failures of every level.

    The recursion presumes the level contract, so
    `degree_contract_failures` runs first; where it names a path, or the
    level-0 solve fails, the report has no Grams, all four flags False
    and those failures.  Under the contract f_gen m' is a level-n monomial
    and L_gen maps level n into level n-1, for every n."""
    if max_level < 0:
        raise ValueError("need max_level >= 0")
    bases = [model.level_basis(n) for n in range(max_level + 1)]
    off = list(accumulate(map(len, bases), initial=0))
    failures = degree_contract_failures(model)
    g0 = None if failures else _level0_gram(model, bases[0])
    if isinstance(g0, str):
        failures = [g0]
    if failures:
        return GramReport(max_level, bases, [], False, False, False, False, failures, [])
    table, lower = compile_ops([g.lower for g in model.generators],
                               chain.from_iterable(bases))
    number = {m: k for k, m in enumerate(table)}
    fexps = [next(iter(g.f.terms)) for g in model.generators]
    d = lower[0].shifts.d if lower else 1
    scale = lcm(*(v.denominator for row in g0 for v in row.values()))
    gram = [{j: int(v * scale) for j, v in row.items()} for row in g0]
    grams, pivots, not_positive = [], [], []
    well_defined = adjoint_ok = symmetric = positive_definite = True
    for n in range(max_level + 1):
        if n:
            lo, mid, hi = off[n - 1], off[n], off[n + 1]
            prev, gram = gram, [None] * (hi - mid)
            for gen, fexp, cols in zip(model.generators, fexps, lower):
                lt = _transposed(cols, range(mid, hi), lo, mid)
                witness = None
                for k, m in enumerate(bases[n - 1]):
                    i = number[tuple(map(add, m, fexp))] - mid
                    row = matvec(lt, prev[k])
                    if gram[i] is None:
                        gram[i] = row
                    elif witness is None and gram[i] != row:
                        witness = f"{m}: row of {bases[n][i]} disagrees"
                if witness is not None:
                    well_defined = adjoint_ok = False
                    failures.append(f"level {n}: adjointness fails for {gen.name}"
                                    f" at {witness}")
            for i, row in enumerate(gram):
                if row is None:
                    failures.append(f"level {n}: no factorization of {bases[n][i]}")
                    well_defined = False
                    gram[i] = {}
            scale *= d
        symmetric = symmetric and all(gram[j].get(i) == x for i, row in enumerate(gram)
                                      for j, x in row.items())
        rows = [{j: Q(x, scale) for j, x in row.items()} for row in gram]
        if positive_definite:
            positive_definite = _positive_definite(n, bases[n], rows, not_positive, pivots)
        grams.append({(i, j): val for i, row in enumerate(rows) for j, val in row.items()})
    return GramReport(max_level, bases, grams, well_defined, symmetric, positive_definite,
                      adjoint_ok, failures + not_positive, pivots)


def _positive_definite(n: int, basis, gram, failures, certificate) -> bool:
    """The LDLᵀ pivots of the level-n Gram certify positive-definiteness;
    a failure names the first pivot that is not positive.  The pivots are
    appended to `certificate`."""
    pivots = ldl_pivots(gram, len(basis))
    certificate.append(pivots)
    if len(pivots) == len(basis) and all(d > 0 for d in pivots):
        return True
    failures.append(f"level {n}: pivot {pivots[-1]} at {basis[len(pivots) - 1]}"
                    " is not positive")
    return False


def model_hw_norm(model: ModelSpec, n: int, report: GramReport) -> Fraction:
    """Squared norm of the level-n highest-weight monomial divided by (n!)^2."""
    if n >= len(report.grams):
        raise ValueError("Gram data does not reach that level")
    i = report.bases[n].index(model.hw_monomial(n))
    return Q(report.grams[n].get((i, i), 0), factorial(n) ** 2)
