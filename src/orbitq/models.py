"""Concrete operator realizations at desk scale.

Two kinds of model ship: the flat oscillator tower on n variables, and
the pair models, each read off a registry row by one rule.  Each model
knows its graded basis, its raising/lowering pairs, and its compact
operators; closure, decided exactly on a unisolvent sample of each
level, the level contract on the operators' paths and the invariant
Gram live here: c_n times the Fischer form on level n where every
lowering is one path kappa(n) d^f (`solve_gram`'s lemma), and the
recursion over every factorization elsewhere.  Every operator is an
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
- The inverted operator is the energy E = (1/P) sum_p (degree_p + 1)/w_p
  over the P blocks (the `energy` grading, each variable of block p of
  weight 1/(P w_p)), n + r0 on level n and unchanged by any swap of
  equal blocks.  With scale = prod w^(-w), f lowers by
  scale/(E(E+1)) d^f, and A<tag> = f - sign * scale/(E(E+1)) d^conj,
  where conj swaps the two variables of each block and
  sign = (-1)^(sum of the k).  In g2 this gives the mixed cubics the
  opposite parity from the pure cubics, the unique assignment under which
  its brackets close.
- The distinguished triple (e, ebar, h) is the A of every k = 0, that of
  its conjugate, and half the sum of the H.

`PAIR_MODELS` names two rows by their (ws, r0): so44 (SO:4,4) and g2
(G2:2); a test ties them to the registry.

Level data comes from the blocks alone, for every model: level n is the
product of each block's compositions of a*n + b, descending, so it lists
first its highest weight, each block's whole degree on its first variable,
which the Gram layer reads at number 0.  The rotation x_i -> x_j,
x_j -> -x_i of two variables of one block (in a pair model the Weyl
element of its SL2: E -> -F, F -> -E, H -> -H) maps each level to itself
up to sign, and a swap of two blocks with equal (number of names, a, b)
permutes it; the closure check offers generators of both to
`opcalc.automorphisms`.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import accumulate, chain, compress, count, product
from math import factorial, lcm, prod

from .opcalc import (DERIV, GRADE, Op, Polynomial, VariableContext, automorphisms,
                     block_degrees, bracket, combination, compile_ops, deriv, grade_divide,
                     grade_scale, mul, pair_orbits, scalar, span_structure)
from .sparse import ONE, Reducer, axpy

Q = Fraction


class Block(namedtuple("Block", "names a b", defaults=(1, 0))):
    """names: variables, consecutive in the context; the degree on level n
    is a*n + b."""

    __slots__ = ()

    def degree(self, n: int) -> int:
        return self.a * n + self.b


# (ws, r0): the blocks' weights of SO:4,4 and G2:2 and their L0 bundle's r0
PAIR_MODELS = {"so44": ((1, 1, 1, 1), 1), "g2": ((3, 1), 1)}


# f: the raising section, an `opcalc.Polynomial` record of one monomial
# with coefficient 1; lower: the adjoint of multiplication by f, for the
# Gram recursion
GeneratorInfo = namedtuple("GeneratorInfo", "name f lower")


class ModelSpec(namedtuple("ModelSpec", "name ctx blocks compact_ops generators"
                                        " algebra_ops sl2")):
    """blocks: `Block`s covering ctx.names in order, whose levels list their
    highest weight first; compact_ops: (name, op, adjoint's index);
    generators: `GeneratorInfo`s; algebra_ops: (name, op), all transcribed;
    sl2: (e, ebar, h).  Each is a tuple: no check can edit a shared model."""

    __slots__ = ()

    def level_basis(self, n: int) -> list:
        return _level(self.blocks, n)


def build_model(name: str, n: int = 1) -> ModelSpec:
    if name in PAIR_MODELS:
        return pair_model(name, *PAIR_MODELS[name])
    if name == "oscillator":
        if n < 1:
            raise ValueError("oscillator needs n >= 1")
        return _build_oscillator(n)
    raise ValueError(f"unknown model {name!r}")


def _compositions(total, parts, extra):
    """The compositions of total into `parts` parts, descending, each last part plus extra."""
    if parts == 1:
        yield (total + extra,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1, extra):
            yield (first,) + rest


def _level(blocks, n: int, caps=None) -> list:
    """Level n's monomials whose first k - 1 exponents in each block of k
    variables sum to at most its cap (all where `caps` is None), descending:
    the product of each block's compositions of a*n + b so cut, descending."""
    tops = [blk.degree(n) for blk in blocks]
    heads = tops if caps is None else list(map(min, tops, caps))
    parts = [_compositions(h, len(blk.names), t - h) for blk, t, h in zip(blocks, tops, heads)]
    return [sum(combo, ()) for combo in product(*parts)]


def _monomial(ctx: VariableContext, *names: str) -> Polynomial:
    """The product of the variables `names`, coefficient 1."""
    exps = [0] * len(ctx.names)
    for name in names:
        exps[ctx.index(name)] += 1
    return Polynomial(ctx, {tuple(exps): ONE})


def _x_d(ctx: VariableContext, a: str, b: str) -> Op:
    return mul(_monomial(ctx, a)) @ deriv(ctx, (b,))


# ---------------------------------------------------------------- oscillator

def _build_oscillator(nv: int) -> ModelSpec:
    names = [f"z{j + 1}" for j in range(nv)]
    ctx = VariableContext(names)
    ctx.add_grading("energy", [1] * nv, Q(nv, 2))

    compact = []
    for j, k in product(range(nv), repeat=2):
        op = _x_d(ctx, names[j], names[k])
        if j == k:
            op = op + scalar(ctx, Q(1, 2))
        # adjoint of z_j d_k + delta/2 is z_k d_j + delta/2
        compact.append((f"z{j + 1}d{k + 1}", op, k * nv + j))

    gens = [GeneratorInfo(nm, _monomial(ctx, nm), deriv(ctx, (nm,))) for nm in names]

    algebra = [(nm, op) for nm, op, _ in compact]
    for j in range(nv):
        for k in range(j, nv):
            algebra.append((f"z{j + 1}z{k + 1}", mul(_monomial(ctx, names[j], names[k]))))
            algebra.append((f"d{j + 1}d{k + 1}", deriv(ctx, (names[j], names[k]))))

    e_op = Q(1, 2) * sum((mul(_monomial(ctx, nm, nm)) for nm in names), scalar(ctx, 0))
    ebar_op = Q(-1, 2) * sum((deriv(ctx, (nm, nm)) for nm in names), scalar(ctx, 0))
    # multiplication by the energy grade sum_i z_i d_i + n/2
    h_op = grade_scale(ctx, "energy", 0, 1)
    return ModelSpec("oscillator", ctx, (Block(tuple(names)),),
                     tuple(compact), tuple(gens), tuple(algebra), (e_op, ebar_op, h_op))


# --------------------------------------------------------------- pair models

def pair_model(name: str, ws, r0) -> ModelSpec:
    """The pair model of a row with block weights `ws` and a bundle of
    grading eigenvalue `r0`, by the rule of the module docstring: each
    lowering operator inverts the energy operator E, as E(E+1), after its
    derivative word.  ValueError unless every w*r0 - 1 is a non-negative
    integer."""
    blocks = []
    for p, w in enumerate(ws, start=1):
        b = w * Q(r0) - 1
        if b < 0 or b.denominator != 1:
            raise ValueError(f"block {p}: w*r0 - 1 = {b} is not a non-negative integer")
        blocks.append(Block((f"x{p}_1", f"x{p}_2"), w, int(b)))
    ctx = VariableContext([v for blk in blocks for v in blk.names])
    # E = (1/P) sum_p (degree_p + 1)/w_p over the P blocks: n + r0 on level n
    unit = [Q(1, len(ws) * w) for w in ws]
    ctx.add_grading("energy", [u for u, blk in zip(unit, blocks) for _ in blk.names], sum(unit))
    # 1/(E(E+1)), applied after the inner operator
    recip = grade_divide(ctx, "energy", 1, 1) @ grade_divide(ctx, "energy", 0, 1)
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
        """scale/(E(E+1)) d^exps"""
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

# unstable: (name_i, name_j, first sampled level-max_level monomial its
# constants fail on)
BracketReport = namedtuple("BracketReport", "rank closed independent stable sl2_ok"
                                            " structure_constants failures unstable")


def verify_brackets(model: ModelSpec, max_level: int) -> BracketReport:
    """Closure on levels 0..max_level-1, stability of its constants on
    level max_level, plus the distinguished raising/lowering commutator,
    all decided on a sample of each level that proves a residual zero on
    all of the level.  Each operator, the sl2 triple included, is compiled
    in one call (two where closure recompiles, below) on the samples of
    levels 0..max_level and what they reach, numbered 0, 1, ... in level
    order.  `span_structure` decides
    closure and stability by one bracket per pair over these sources,
    compared with the combination of its constants: where they first
    differ below level max_level the pair does not close; on level
    max_level the pair is unstable, reported only when every pair closes.

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
    1977).  Their product over the blocks is the level's sample, generated
    from the blocks in the level's order with no level listed (`_sample`).
    A combination of operators that vanishes on the samples thus vanishes
    on every source, so rank, independence and the prefix solve are those
    of all sources, and a residual is zero on a level exactly when it is
    zero on its sample.  A level is its own sample, from `level_basis`,
    where a grade divisor varies within a level.  Every monomial named is
    a sampled one or one it reaches: an unstable pair's witness is the
    first sampled monomial of level max_level where its constants fail,
    and a `SingularGradeError` names the first sampled monomial (or one it
    reaches) where a divisor vanishes.  Either may differ from the first
    such monomial of all of the level.

    `compile_ops` gives the diagonals as `int`s over d = shifts.d, the lcm
    of the denominators of the values it computes, and every bracket is
    checked on these diagonals of dA: [A_i, A_j] = sum c_k A_k holds
    exactly when [dA_i, dA_j] = sum (d c_k)(dA_k), so rank, independence,
    closure and stability are those of the operators themselves;
    [e, ebar] = h is checked as [de, d ebar] = d (dh).  The constants
    solved for the dA_k are divided by d before they are reported.

    `span_structure` brackets the least pair of each orbit
    (`pair_orbits`, found before the compile) of the signed variable
    permutations T that map each level to itself up to sign
    (`_variable_swaps`) with T A_k T^-1 = ε_k A_πk (`automorphisms`):
    the constants c_k of [A_i, A_j] give [A_πi, A_πj] the constants
    ε_i ε_j ε_k c_k at π(k), whose residual is ε_i ε_j T R T^-1, R the
    first residual, which vanishes on each level where R does.  Constants
    are reported in ascending operator order, however they were found.

    Only a bracket reads values past the sources, so the compile's `reach`
    is the operators of the least pairs and e, ebar; every divisor is
    still checked on every monomial it reaches.
    Where a least pair fails or is unstable, or the operators are
    dependent, `span_structure` returns None, and closure recompiles with
    every operator: each report, witness and `SingularGradeError` is that
    of the compile of every operator."""
    if max_level < 2:
        raise ValueError("need max_level >= 2")
    ops = [op for _, op in model.algebra_ops]
    every = ops + list(model.sl2)
    sample = _sample(model, max_level, every)
    sources = list(chain.from_iterable(sample))
    small = range(len(sources) - len(sample[-1]))
    orbits = pair_orbits(len(ops), automorphisms(ops, _variable_swaps(model)).values())
    reach = set(chain.from_iterable(orbits)) | {len(ops), len(ops) + 1}  # least pairs', e, ebar
    _, cols = compile_ops(every, sources, reach)
    rep = span_structure(cols[:len(ops)], small, len(sources), orbits)
    if rep is None:  # a least pair fails or is unstable, or the operators are dependent
        _, cols = compile_ops(every, sources)
        rep = span_structure(cols[:len(ops)], small, len(sources), orbits)
    d = cols[0].shifts.d
    e, ebar, h = cols[len(ops):]
    names = [name for name, _ in model.algebra_ops]
    scaled = {c: Q(c, d) for c in {c for combo in rep.structure_constants.values()
                                   for c in combo.values()}}
    sc = {pair: {k: scaled[c] for k, c in sorted(combo.items())}
          for pair, combo in rep.structure_constants.items()}
    return BracketReport(rep.rank, rep.closed, rep.independent,
                         rep.closed and not rep.unstable,
                         bracket(e, ebar, small) == combination((h,), {0: d}, small),
                         sc, [(names[i], names[j]) for i, j in rep.failures],
                         [(names[i], names[j], sources[m]) for (i, j), m in rep.unstable])


def _sample(model: ModelSpec, max_level: int, ops: list) -> list:
    """The sample of each level 0..max_level: the monomials whose first
    k_p - 1 exponents in each block p sum to at most
    D_p = 2*block_degrees(ops)[p], generated from the blocks (`_level`).
    The whole level, from `level_basis`, where a grade divisor of `ops`
    varies within a level."""
    degrees = block_degrees(ops, _ranges(model.blocks))
    if degrees is None:
        return [model.level_basis(n) for n in range(max_level + 1)]
    return [_level(model.blocks, n, [2 * dp for dp in degrees]) for n in range(max_level + 1)]


def _ranges(blocks) -> list:
    """Each block's variables as a range of variable numbers."""
    ends = accumulate(len(blk.names) for blk in blocks)
    return [range(end - len(blk.names), end) for blk, end in zip(blocks, ends)]


def _variable_swaps(model: ModelSpec) -> list:
    """Generators of the signed variable permutations that keep every
    level up to sign, as (perm, neg) pairs (variable i renamed perm[i],
    those in neg negated): for each two adjacent variables i, i + 1 of one
    block the rotation x_i -> x_(i+1), x_(i+1) -> -x_i, then the swap of
    each block with the next block of equal (number of names, a, b).  These
    generate every rotation of two variables of a block and every swap of
    two equal blocks."""
    ranges, nv = _ranges(model.blocks), len(model.ctx.names)
    out = []
    for r in ranges:
        for i in r[:-1]:
            perm = list(range(nv))
            perm[i], perm[i + 1] = i + 1, i
            out.append((tuple(perm), (i + 1,)))
    shapes = [(len(blk.names), blk.a, blk.b) for blk in model.blocks]
    for p, rp in enumerate(ranges):
        q = next((q for q in range(p + 1, len(shapes)) if shapes[q] == shapes[p]), None)
        if q is not None:
            rq, perm = ranges[q], list(range(nv))
            perm[rp.start:rp.stop], perm[rq.start:rq.stop] = rq, rp
            out.append((tuple(perm), ()))
    return out


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
    levels at once, with nothing compiled.  The recursion reads f m' as
    the monomial that the lowering's path of net shift -f returns to m',
    and divides it by no coefficient: each raising section must be one
    monomial with coefficient 1, and where it passes, its lowering must
    have that back path.

    The check is stricter than evaluation: a path with the wrong shift is
    named even where its values vanish, as those of z^(L+2) d^(L+1) do on
    levels 0..L.  One witness per (operator, wrong shift), naming the
    operator set, the operator and the net shift, and one per lowering
    operator with no back path; empty when the contract holds."""
    sets = (("compact", 0, [(name, op) for name, op, _ in model.compact_ops]),
            ("raising", 1, [(g.name, mul(g.f)) for g in model.generators]),
            ("lowering", -1, [(g.name, g.lower) for g in model.generators]))
    ranges = _ranges(model.blocks)
    kills = any(blk.b < blk.a for blk in model.blocks)

    def steps(vec, step):
        return all(sum(vec[r.start:r.stop]) == step * blk.a for blk, r in zip(model.blocks, ranges))

    failures = [f"raising {g.name}: section is not one monomial with coefficient 1"
                for g in model.generators if list(g.f.terms.values()) != [1]]
    for kind, step, ops in sets:
        for name, op in ops:
            for vec in dict.fromkeys(vec for vec, _, _ in op.paths):
                if not steps(vec, step):
                    failures.append(f"{kind} {name}: path shift {vec} does not map"
                                    f" level n into level n{step:+d}")
                elif step < 0 and not kills:
                    failures.append(f"{kind} {name}: path shift {vec} maps level 0"
                                    " into level -1, which is not empty")
    for g in model.generators:
        back = tuple(-e for e in next(iter(g.f.terms), ()))
        if (list(g.f.terms.values()) == [1] and steps(back, -1)
                and back not in {vec for vec, _, _ in g.lower.paths}):
            failures.append(f"lowering {g.name}: no path of shift {back} returns f m' to m'")
    return failures


# -------------------------------------------------------------- Gram solving

# grams: per level, a dict {(i, j): Fraction}, zero entries absent, at (0, 0)
# the highest weight's squared norm.  well_defined: every (generator,
# level-(n-1) monomial) pair gives the same row and every row is reached.
# adjoint_ok is the first condition alone, so the two differ only when an
# unreached row is the sole failure; all four flags are False when the level
# contract or the level-0 solve fails.  pivots: per level, up to the first
# level that is not positive-definite, the LDLᵀ pivots of its Gram, which
# certify `positive_definite` with one positive pivot per basis monomial
GramReport = namedtuple("GramReport", "bases grams well_defined symmetric positive_definite"
                                      " adjoint_ok failures pivots")


def _level0_gram(model: ModelSpec, basis: list):
    """Solve the level-0 Gram on the basis numbered 0..k-1 from compact
    skew-pairing and B(s_0, s_0) = 1 at the highest weight s_0; its rows, as
    solved, or a failure message.  Each unknown B(s_i, s_j), i <= j, is a
    column over the equations, which the `Reducer` spans: a dependent one
    leaves the system underdetermined, a right-hand side outside the span
    makes it inconsistent.  The level contract keeps every compact image on
    the basis."""
    k = len(basis)
    _, diags = compile_ops([op for _, op, _ in model.compact_ops], basis)
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
    # equation -1: B(s_0, s_0) = 1, s_0 the highest weight
    cols[0, 0][-1] = 1
    span = Reducer()
    independent = all(span.add(u, col) for u, col in cols.items())
    sol = span.solve({-1: 1}) if independent else None
    if sol is None:
        return "level-0 solve failed (inconsistent or underdetermined)"
    rows = [{} for _ in basis]
    for i, j in cols:
        if sol.get((i, j)):
            rows[i][j] = rows[j][i] = sol[i, j]
    return rows


def solve_gram(model: ModelSpec, max_level: int) -> GramReport:
    """Grams of levels 0..max_level: level 0 is solved (`_level0_gram`),
    level n follows from B_n(f m', v) = B_{n-1}(m', L_f v), the adjointness
    of raising by each generator f and lowering by its L_f.

    Lemma (E. Fischer, 1917; V. Bargmann, 1961).  Let F_n be the Fischer
    form <x^a, x^b> = a! delta_ab on level n, under which d^f is adjoint to
    multiplication by f, and suppose, on levels 0..L = max_level, that
    (a) each L_f is one path, whose factors are the falling factorials of
        d^f (`DERIV`, r = 0, spelling f), then only grade factors;
    (b) each grade factor's coefficients are constant on each block, so it
        is affine in the source level n, and it vanishes on no level 1..L;
    (c) every L_f has the same kappa(n), its coefficient times its grade
        factors, so L_f = kappa(n) d^f on levels 1..L;
    (d) the f are every product over the blocks of one monomial of degree
        a_p, so each monomial of a level n >= 1 is some f m';
    (e) the level contract holds and level 0 solves to c_0 F_0.
    Then each (f, m') gives f m' the row G_{n-1}[m'] L_f =
    kappa(n) c_{n-1} F_n[f m'], so by induction G_n = c_n F_n with
    c_n = kappa(n) c_{n-1} for every factorization.  `_fischer_multiples`
    checks (a)-(e) on the paths, compiling no lowering.  Level n is then
    the diagonal c_n a!, a! the product of each block's factorials in
    `_level`'s order: symmetric, with LDLᵀ pivots read off it, not factored,
    all positive or up to the first where c_n < 0 (never 0, by (b) and
    (e)).  Level 0 needs no grade check: d^f comes first and kills it, so
    no divisor there is read on a live path.  Where a hypothesis fails (a
    mutant, a subset of the generators, a Gram that is not diagonal),
    `_gram_recursion` computes, compares and certifies every row, and
    raises `SingularGradeError` where a lowering's divisor vanishes; the
    report is the recursion's, field for field.

    Both routes presume the level contract, so `degree_contract_failures`
    runs first, once for both; where it names a path, or the level-0 solve
    fails, the report has no Grams, all four flags False and those
    failures.  Under the contract the recursion lists every image with no
    check: f_gen moves each block's degree from level n-1's to level n's, and
    level n lists every monomial of its block degrees, so f_gen m' is a
    level-n monomial.  A lowering path's falling factorials vanish wherever
    its image would have a negative exponent, so every nonzero image under
    L_gen of a level-n monomial lies in level n-1."""
    if max_level < 0:
        raise ValueError("need max_level >= 0")
    bases = [model.level_basis(n) for n in range(max_level + 1)]
    failures = degree_contract_failures(model)
    g0 = None if failures else _level0_gram(model, bases[0])
    if failures or isinstance(g0, str):
        return GramReport(bases, [], False, False, False, False, failures or [g0], [])
    cs = _fischer_multiples(model, bases, g0)
    if cs is None:
        return _gram_recursion(model, bases, g0)
    grams, pivots, not_positive = [], [], []
    for n, (c, basis) in enumerate(zip(cs, bases)):
        per_block = [[prod(map(factorial, m)) for m in _level((blk,), n)] for blk in model.blocks]
        fischer = list(map(prod, product(*per_block)))
        value = {x: c * x for x in set(fischer)}  # one Fraction per distinct value
        diag = [value[x] for x in fischer]
        grams.append({(i, i): x for i, x in enumerate(diag)})
        if not not_positive:
            pivots.append(diag if c > 0 else diag[:1])
            if c < 0:
                not_positive.append(f"level {n}: pivot {diag[0]} at {basis[0]} is not positive")
    return GramReport(bases, grams, True, True, not not_positive, True, not_positive, pivots)


def _fischer_multiples(model: ModelSpec, bases: list, g0: list):
    """c_0..c_L, each G_n = c_n F_n, where the hypotheses (a)-(e) of
    `solve_gram`'s lemma hold on levels 0..L = len(bases) - 1 of a model
    whose level contract holds and whose solved level-0 Gram is `g0`;
    None where one fails.  The contract gives each lowering a path of
    shift -f, its only one under (a).  A grade factor (sum_i A_i e_i + B)/Q
    with A_i = alpha_p on each block p is (sum_p alpha_p (a_p n + b_p) + B)/Q
    on level n: its value at level n's highest weight."""
    fischer = [prod(map(factorial, m)) for m in bases[0]]
    c0 = Q(g0[0].get(0, 0), fischer[0])  # a Fraction: level-0 entries can be ints
    if g0 != [{i: c0 * x} for i, x in enumerate(fischer)]:
        return None
    # level 1 of the blocks with b = 0: every product of one degree-a_p monomial per block
    tops = _level([blk._replace(b=0) for blk in model.blocks], 1)
    if {next(iter(g.f.terms)) for g in model.generators} != set(tops):
        return None
    ranges = _ranges(model.blocks)
    shapes = set()  # per lowering: its coefficient and grade factors (terms, B, Q, divide)
    for g in model.generators:
        (f,), paths = g.f.terms, g.lower.paths
        word = tuple((DERIV, i, 0, e) for i, e in enumerate(f) if e)
        if len(paths) != 1 or paths[0][2][:len(word)] != word:
            return None
        (_, coef, factors), = paths
        for x in factors[len(word):]:
            if x[0] != GRADE or any(len({dict(x[1]).get(i, 0) for i in r}) > 1 for r in ranges):
                return None
        shapes.add((coef, tuple(x[1:5] for x in factors[len(word):])))
    kappas = set()
    for coef, grades in shapes:
        kappa = []
        for basis in bases[1:]:
            k = coef
            for terms, b, q, divide in grades:
                x = Q(sum(a * basis[0][i] for i, a in terms) + b, q)
                if not x:
                    return None
                k = k / x if divide else k * x
            kappa.append(k)
        kappas.add(tuple(kappa))
    if len(kappas) != 1:
        return None
    return list(accumulate(kappas.pop(), Q.__mul__, initial=c0))


def _gram_recursion(model: ModelSpec, bases: list, g0: list) -> GramReport:
    """`solve_gram` where its lemma's hypotheses fail, on the levels `bases`
    of a model whose level contract holds and whose level-0 Gram solves to
    `g0`.  Level n follows from B_n(f m', v) = B_{n-1}(m', L v), the
    adjointness of raising by f and lowering by L, compiled on all levels:
    level n is the numbers off[n]..off[n+1]-1.  Every (generator, level-(n-1)
    monomial m') pair gives the row G_{n-1}[m'] L_gen of f_gen m',
    scattered straight from the diagonals of L_gen: a value c at the
    level-n monomial v, whose image is m'', adds G_{n-1}[m', m''] c at
    column v for each nonzero entry of column m'' of G_{n-1}.  The first
    row of a monomial is kept and every later one compared with it; that
    is the adjointness check, and a mismatch fails both `well_defined` and
    `adjoint_ok`.  As `degree_contract_failures` checks, f_gen is one
    monomial with coefficient 1, so no coefficient divides its row, and
    f_gen m' is the v that L_gen's path of shift -f_gen returns to m'
    (`Shifts.idx` over level n, whose order m' -> f_gen m' keeps, so rows
    meet in m' order).  The rows are `int`s: level 0 times D_0, the lcm of
    its denominators, and level n, G_{n-1}[m'] (dL_gen)ᵀ on the `int`
    diagonals over d, times D_n = D_{n-1} d > 0; each entry x is reported
    as x/D_n.  Each level is checked for symmetry and, while every lower
    level is positive-definite, certified (`_positive_definite`) as soon as
    it is built; only its `int` rows are kept, to build the next level.  A
    pivot failure is listed after every adjointness failure."""
    off = list(accumulate(map(len, bases), initial=0))
    failures = []
    _, lower = compile_ops([g.lower for g in model.generators], chain.from_iterable(bases))
    d = lower[0].shifts.d if lower else 1
    scale = lcm(*(v.denominator for row in g0 for v in row.values()))
    gram = [{j: int(v * scale) for j, v in row.items()} for row in g0]
    grams, pivots, not_positive = [], [], []
    well_defined = adjoint_ok = symmetric = True
    for n in range(len(bases)):
        if n:
            lo, mid, hi = off[n - 1], off[n], off[n + 1]
            prev, gram = gram, [None] * (hi - mid)
            pcols = [[] for _ in prev]  # column kk of G_{n-1} as (row, entry) pairs
            for k, row in enumerate(prev):
                for kk, x in row.items():
                    pcols[kk].append((k, x))
            for gen, cols in zip(model.generators, lower):
                cand = [{} for _ in prev]  # the row of f_gen m' for each m'
                for s, v in cols.items():
                    vals, ts = v[mid:hi], cols.shifts.idx[s][mid:hi]
                    for j, c, t in compress(zip(count(), vals, ts), vals):
                        for k, x in pcols[t - lo]:
                            row = cand[k]
                            row[j] = row.get(j, 0) + x * c
                if len(cols) > 1:  # columns in order, none that cancelled
                    cand = [{j: row[j] for j in sorted(row) if row[j]} for row in cand]
                # each level-n v whose path of shift -f_gen returns to an m' is f_gen m'
                back = cols.shifts.ids[tuple(-e for e in next(iter(gen.f.terms)))]
                witness = None
                for i, t in enumerate(cols.shifts.idx[back][mid:hi]):
                    if t is None:
                        continue
                    row = cand[t - lo]
                    if gram[i] is None:
                        gram[i] = row
                    elif witness is None and gram[i] != row:
                        witness = f"{bases[n - 1][t - lo]}: row of {bases[n][i]} disagrees"
                if witness is not None:
                    well_defined = adjoint_ok = False
                    failures.append(f"level {n}: adjointness fails for {gen.name} at {witness}")
            for i, row in enumerate(gram):
                if row is None:
                    failures.append(f"level {n}: no factorization of {bases[n][i]}")
                    well_defined = False
                    gram[i] = {}
            scale *= d
        if not not_positive:
            _positive_definite(n, bases[n], gram, scale, not_positive, pivots)
        # one Fraction per distinct value: a level has far fewer values than entries
        value = {x: Q(x, scale) for x in set(chain.from_iterable(map(dict.values, gram)))}
        grams.append({(i, j): value[x] for i, row in enumerate(gram) for j, x in row.items()})
        symmetric = symmetric and all(gram[j].get(i) == x for i, row in enumerate(gram)
                                      for j, x in row.items())
    return GramReport(bases, grams, well_defined, symmetric, not not_positive, adjoint_ok,
                      failures + not_positive, pivots)


def _positive_definite(n: int, basis, gram, scale, failures, certificate) -> None:
    """The LDLᵀ pivots of the level-n Gram, the rows `gram` over `scale` > 0,
    certify positive-definiteness; they stop at the first that is not
    positive, which a failure appended to `failures` names, and are
    appended to `certificate`.
    A `Reducer` takes the rows in order: while the pivots so far are
    positive, row k reduced by rows 0..k-1 is row k of the Schur complement
    of the leading k x k block, whose entry k is the k-th pivot (0 where the
    row reduces to nothing; on a Gram that is not symmetric, its LU's)."""
    span, pivots = Reducer(), []
    for k, row in enumerate(gram):
        pivots.append(Q(span.pivots[-1][1].get(k, 0) if span.add(k, row) else 0, scale))
        if pivots[-1] <= 0:
            break
    certificate.append(pivots)
    if pivots and pivots[-1] <= 0:
        failures.append(f"level {n}: pivot {pivots[-1]} at {basis[len(pivots) - 1]}"
                        " is not positive")


def model_hw_norm(model: ModelSpec, n: int, report: GramReport) -> Fraction:
    """Level n's Gram entry (0, 0), the hw norm, over (n!)^2; `model` is unused."""
    if n >= len(report.grams):
        raise ValueError("Gram data does not reach that level")
    return Q(report.grams[n].get((0, 0), 0), factorial(n) ** 2)
