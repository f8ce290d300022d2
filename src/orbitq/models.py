"""Concrete operator realizations at desk scale.

Three models ship: the flat oscillator tower, the rank-8 example on
8 variables (16 quartic raising operators), and the rank-14 example on
4 variables (8 raising operators with a 1/27 factor).  Each model knows
its graded basis, its raising/lowering pairs, and its compact operators;
brute-force closure and the invariant Gram recursion live here.

The two pair models are rows of `PAIR_MODELS`, built by one constructor.
A row holds:

- `blocks`: pairs of variables, in context order.  Block k has degree
  a*n + b on level n, and `suffix` names its compact operators E, F, H.
- `grading`: (name, weights, shift), registered on the context; the grade
  g enters every lowering operator through 1/(g(g+1)).
- `generators`: (generator name, algebra-operator name, derivative word).
  The raising section f is the product of the word's variables.
- `scale`: the constant in front of every lowering derivative.

From a row the constructor derives an sl2 triple x_1 d_2, x_2 d_1,
x_1 d_1 - x_2 d_2 on each pair (E and F adjoint, H self-adjoint), the
lowering operator scale/(g(g+1)) d^word of each generator, and its algebra
operator f - sign * scale/(g(g+1)) d^conj.  The conjugate word swaps the
two variables of each block letter by letter, and sign is (-1) to the
number of letters that are the second variable of their block.  The
distinguished triple is (e, ebar, h): e is the algebra operator whose word
uses only first variables, ebar that of its conjugate, h half the sum of
the H operators.

Level data comes from the blocks alone, for all three models: level n is
the product of each block's compositions of a*n + b, and its highest
weight puts each block's whole degree on the block's first variable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import factorial

from .exactalg import Polynomial, VariableContext
from .opcalc import (OpCompose, OpDeriv, OpGradeDivide, OpMul, OpScalar,
                     OpScaled, OpSum, OperatorExpr, matrix_on_basis,
                     solve_linear_system, span_structure,
                     verify_structure_constants)

Q = Fraction


@dataclass(frozen=True)
class Block:
    names: tuple             # variables, consecutive in the context
    a: int = 1               # degree on level n is a*n + b
    b: int = 0
    suffix: str = ""         # compact-operator name suffix (pair models)

    def degree(self, n: int) -> int:
        return self.a * n + self.b


@dataclass(frozen=True)
class PairModel:
    blocks: tuple            # Block, each a pair of variables
    grading: tuple           # (name, weights, shift)
    generators: tuple        # (generator name, algebra-op name, word)
    scale: Fraction


PAIR_MODELS = {
    "so44": PairModel(
        blocks=tuple(Block((f"x{p}_1", f"x{p}_2"), suffix=str(p))
                     for p in range(1, 5)),
        grading=("beta", (1, 1, 0, 0, 0, 0, 0, 0), 1),
        generators=tuple((f"x{''.join(idx)}", f"A{''.join(idx)}",
                          tuple(f"x{p}_{i}" for p, i in enumerate(idx, start=1)))
                         for idx in product("12", repeat=4)),
        scale=Q(1)),
    # A_ij = u_i^3 x_j and B_ij = u_i^2 u_i' x_j; the sign rule gives the
    # mixed cubics the opposite parity from the pure cubics, the unique
    # assignment under which the brackets close
    "g2": PairModel(
        blocks=(Block(("u1", "u2"), 3, 2, "u"), Block(("x1", "x2"), suffix="x")),
        grading=("beta", (0, 0, 1, 1), 1),
        generators=(("A11", "PA11", ("u1", "u1", "u1", "x1")),
                    ("A12", "PA12", ("u1", "u1", "u1", "x2")),
                    ("A21", "PA21", ("u2", "u2", "u2", "x1")),
                    ("A22", "PA22", ("u2", "u2", "u2", "x2")),
                    ("B11", "PB11", ("u1", "u1", "u2", "x1")),
                    ("B12", "PB12", ("u1", "u1", "u2", "x2")),
                    ("B21", "PB21", ("u2", "u2", "u1", "x1")),
                    ("B22", "PB22", ("u2", "u2", "u1", "x2"))),
        scale=Q(1, 27)),
}


@dataclass
class GeneratorInfo:
    name: str
    f: Polynomial            # single-monomial raising section
    raise_op: OperatorExpr   # multiplication by f
    lower: OperatorExpr      # adjoint of raise_op for the Gram recursion


@dataclass
class ModelSpec:
    name: str
    ctx: VariableContext
    blocks: tuple            # Block, covering ctx.names in order
    grading_op: OperatorExpr
    compact_ops: list        # (name, op, adjoint index into compact_ops)
    generators: list         # GeneratorInfo
    algebra_ops: list        # (name, op) — the full transcribed list
    sl2: tuple               # (e, ebar, h) operators

    def level_of(self, mono: tuple):
        """The n with every block of degree a*n + b, else None."""
        levels, start = set(), 0
        for blk in self.blocks:
            deg = sum(mono[start:start + len(blk.names)])
            start += len(blk.names)
            n, rem = divmod(deg - blk.b, blk.a)
            if rem or n < 0:
                return None
            levels.add(n)
        return levels.pop() if len(levels) == 1 else None

    def level_basis(self, n: int) -> list:
        parts = [_compositions(blk.degree(n), len(blk.names)) for blk in self.blocks]
        return sorted((sum(combo, ()) for combo in product(*parts)), reverse=True)

    def hw_monomial(self, n: int) -> tuple:
        return sum(((blk.degree(n),) + (0,) * (len(blk.names) - 1)
                    for blk in self.blocks), ())


def build_model(name: str, n: int = 1) -> ModelSpec:
    if name in PAIR_MODELS:
        return _build_pair_model(name, PAIR_MODELS[name])
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


def _x_d(ctx: VariableContext, a: str, b: str) -> OperatorExpr:
    return OpCompose(OpMul(ctx.var(a)), OpDeriv((b,)))


def _grading_op(ctx: VariableContext, grading: str) -> OperatorExpr:
    """sum_i w_i x_i d_i + shift: multiplication by the grade."""
    g = ctx.gradings[grading]
    terms = tuple(_x_d(ctx, v, v) if w == 1 else OpScaled(w, _x_d(ctx, v, v))
                  for v, w in zip(ctx.names, g.weights) if w)
    return OpSum(terms + (OpScalar(g.shift),))


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
            op = OpSum((op, OpScalar(Q(1, 2))))
        # adjoint of z_j d_k + delta/2 is z_k d_j + delta/2
        compact.append((f"z{j + 1}d{k + 1}", op, k * nv + j))

    gens = [GeneratorInfo(names[j], zs[j], OpMul(zs[j]), OpDeriv((names[j],)))
            for j in range(nv)]

    algebra = [(nm, op) for nm, op, _ in compact]
    for j in range(nv):
        for k in range(j, nv):
            algebra.append((f"z{j + 1}z{k + 1}", OpMul(zs[j] * zs[k])))
            algebra.append((f"d{j + 1}d{k + 1}", OpDeriv((names[j], names[k]))))

    e_op = OpScaled(Q(1, 2), OpMul(sum((z * z for z in zs), ctx.zero())))
    ebar_op = OpScaled(Q(-1, 2), OpSum(tuple(OpDeriv((nm, nm)) for nm in names)))
    grading_op = _grading_op(ctx, "energy")
    return ModelSpec("oscillator", ctx, (Block(tuple(names)),), grading_op,
                     compact, gens, algebra, (e_op, ebar_op, grading_op))


# --------------------------------------------------------------- pair models

def _build_pair_model(name: str, table: PairModel) -> ModelSpec:
    ctx = VariableContext([v for blk in table.blocks for v in blk.names])
    ctx.add_grading(*table.grading)
    grading = table.grading[0]
    # 1/(g(g+1)), applied after the inner operator; one node per model
    recip = OpCompose(OpGradeDivide(grading, 1, 1), OpGradeDivide(grading, 0, 1))

    compact, hs, swap = [], [], {}
    for blk in table.blocks:
        x1, x2 = blk.names
        swap[x1], swap[x2] = x2, x1
        hs.append(OpSum((_x_d(ctx, x1, x1), OpScaled(-1, _x_d(ctx, x2, x2)))))
        k = len(compact)
        compact += [(f"E{blk.suffix}", _x_d(ctx, x1, x2), k + 1),
                    (f"F{blk.suffix}", _x_d(ctx, x2, x1), k),
                    (f"H{blk.suffix}", hs[-1], k + 2)]
    second = {blk.names[1] for blk in table.blocks}

    gens, algebra, by_word = [], [(nm, op) for nm, op, _ in compact], {}
    for gname, aname, word in table.generators:
        f = ctx.one()
        for v in word:
            f = f * ctx.var(v)
        lower = OpCompose(recip, OpDeriv(word))
        if table.scale != 1:
            lower = OpScaled(table.scale, lower)
        gens.append(GeneratorInfo(gname, f, OpMul(f), lower))
        conj = tuple(swap[v] for v in word)
        sign = (-1) ** sum(v in second for v in word)
        op = OpSum((OpMul(f), OpScaled(-sign * table.scale,
                                       OpCompose(recip, OpDeriv(conj)))))
        algebra.append((aname, op))
        by_word[word] = op

    top = next(w for w in by_word if not second.intersection(w))
    h_op = OpScaled(Q(1, 2), OpSum(tuple(hs)))
    return ModelSpec(name, ctx, table.blocks, _grading_op(ctx, grading),
                     compact, gens, algebra,
                     (by_word[top], by_word[tuple(swap[v] for v in top)], h_op))


# --------------------------------------------------------------- verification

@dataclass
class BracketReport:
    rank: int
    closed: bool
    independent: bool
    stable: bool
    sl2_ok: bool
    structure_constants: dict
    failures: list


def _stacked_basis(model: ModelSpec, levels) -> list:
    out = []
    for n in levels:
        out.extend(model.level_basis(n))
    return out


def verify_brackets(model: ModelSpec, max_level: int) -> BracketReport:
    """Closure on levels 0..max_level-1, constants re-verified on level
    max_level, plus the distinguished raising/lowering commutator."""
    if max_level < 2:
        raise ValueError("need max_level >= 2")
    ops = [op for _, op in model.algebra_ops]
    small = _stacked_basis(model, range(max_level))
    rep = span_structure(ops, model.ctx, small)
    stable = False
    if rep.closed:
        extra = model.level_basis(max_level)
        stable = not verify_structure_constants(ops, model.ctx,
                                                rep.structure_constants, extra)
    sl2_ok = _check_sl2(model, small)
    failures = [(model.algebra_ops[i][0], model.algebra_ops[j][0])
                for i, j in rep.failures]
    return BracketReport(rep.rank, rep.closed, rep.independent, stable,
                         sl2_ok, rep.structure_constants, failures)


def _check_sl2(model: ModelSpec, basis) -> bool:
    e, ebar, h = model.sl2
    one = Q(1)
    for mono in basis:
        t = {mono: one}
        lhs = e.apply_terms(model.ctx, ebar.apply_terms(model.ctx, t))
        for m2, c in ebar.apply_terms(model.ctx, e.apply_terms(model.ctx, t)).items():
            v = lhs.get(m2, Q(0)) - c
            if v:
                lhs[m2] = v
            elif m2 in lhs:
                del lhs[m2]
        if lhs != h.apply_terms(model.ctx, t):
            return False
    return True


def check_degree_contract(model: ModelSpec, max_level: int) -> bool:
    """Compact ops preserve level, raising ops raise by 1, lowering ops
    lower by 1 (and kill level 0)."""
    for n in range(max_level + 1):
        for mono in model.level_basis(n):
            t = {mono: Q(1)}
            for _, op, _ in model.compact_ops:
                for m2 in op.apply_terms(model.ctx, t):
                    if model.level_of(m2) != n:
                        return False
            for g in model.generators:
                for m2 in g.raise_op.apply_terms(model.ctx, t):
                    if model.level_of(m2) != n + 1:
                        return False
                img = g.lower.apply_terms(model.ctx, t)
                if n == 0 and img:
                    return False
                for m2 in img:
                    if model.level_of(m2) != n - 1:
                        return False
    return True


# -------------------------------------------------------------- Gram solving

@dataclass
class GramReport:
    max_level: int
    bases: list
    grams: list        # per level: dict {(i, j): Fraction}, zero entries absent
    well_defined: bool
    symmetric: bool
    positive_definite: bool
    adjoint_ok: bool
    failures: list


def _level0_gram(model: ModelSpec, basis: list):
    """Solve the level-0 Gram from compact skew-pairing plus the
    highest-weight normalization."""
    k = len(basis)
    hw = basis.index(model.hw_monomial(0))
    unknowns = [(i, j) for i in range(k) for j in range(i, k)]

    def key(i, j):
        return (i, j) if i <= j else (j, i)

    equations, rhs = [], []
    for _, op, adj in model.compact_ops:
        mat = matrix_on_basis(op, model.ctx, basis)
        aop = model.compact_ops[adj][1]
        amat = matrix_on_basis(aop, model.ctx, basis)
        if mat.escaped or amat.escaped:
            return None
        for i in range(k):
            for j in range(k):
                # B(op s_i, s_j) - B(s_i, adj s_j) = 0
                eq = {}
                for (kk, col), c in mat.entries.items():
                    if col == i:
                        eq[key(kk, j)] = eq.get(key(kk, j), Q(0)) + c
                for (kk, col), c in amat.entries.items():
                    if col == j:
                        eq[key(i, kk)] = eq.get(key(i, kk), Q(0)) - c
                eq = {u: c for u, c in eq.items() if c}
                if eq:
                    equations.append(eq)
                    rhs.append(Q(0))
    equations.append({(hw, hw): Q(1)})
    rhs.append(Q(1))
    sol = solve_linear_system(equations, rhs, unknowns)
    if sol is None:
        return None
    gram = {}
    for (i, j), val in sol.items():
        if val:
            gram[(i, j)] = val
            if i != j:
                gram[(j, i)] = val
    return gram


def _apply_single(op: OperatorExpr, ctx, mono):
    return op.apply_terms(ctx, {mono: Q(1)})


def solve_gram(model: ModelSpec, max_level: int) -> GramReport:
    ctx = model.ctx
    bases = [model.level_basis(n) for n in range(max_level + 1)]
    failures = []
    g0 = _level0_gram(model, bases[0])
    if g0 is None:
        return GramReport(max_level, bases, [], False, False, False, False,
                          ["level-0 solve failed (inconsistent or underdetermined)"])
    grams = [g0]
    well_defined = True
    for n in range(1, max_level + 1):
        basis, prev = bases[n], bases[n - 1]
        prev_index = {m: i for i, m in enumerate(prev)}
        prev_set = prev_index
        gram_prev = grams[n - 1]

        def row_via(gen, mprime_idx):
            # B(m_i, .) with m_i = f_gen * prev[mprime_idx]
            row = {}
            for jj, mono in enumerate(basis):
                img = _apply_single(gen.lower, ctx, mono)
                val = Q(0)
                for m2, c in img.items():
                    kk = prev_index.get(m2)
                    if kk is not None:
                        val += c * gram_prev.get((mprime_idx, kk), Q(0))
                if val:
                    row[jj] = val
            return row

        gram = {}
        for i, mono in enumerate(basis):
            facts = _factorizations(model, mono, prev_set)
            if not facts:
                failures.append(f"level {n}: no factorization of {mono}")
                well_defined = False
                continue
            first = row_via(*facts[0])
            for alt in facts[1:]:
                if row_via(*alt) != first:
                    well_defined = False
                    failures.append(f"level {n}: factorizations disagree on {mono}")
                    break
            for jj, val in first.items():
                gram[(i, jj)] = val
        grams.append(gram)

    symmetric = all(
        all(g.get((j, i)) == val for (i, j), val in g.items()) for g in grams)
    positive_definite = all(_positive_definite(g, len(b))
                            for g, b in zip(grams, bases))
    adjoint_ok = _check_adjointness(model, bases, grams, failures)
    return GramReport(max_level, bases, grams, well_defined, symmetric,
                      positive_definite, adjoint_ok, failures)


def _factorizations(model: ModelSpec, mono, prev_index):
    out = []
    for gi, gen in enumerate(model.generators):
        (gexp,) = gen.f.terms  # single monomial
        mprime = tuple(a - b for a, b in zip(mono, gexp))
        if all(e >= 0 for e in mprime) and mprime in prev_index:
            out.append((gen, prev_index[mprime]))
    return out


def _positive_definite(gram: dict, dim: int) -> bool:
    rows = [dict() for _ in range(dim)]
    for (i, j), val in gram.items():
        rows[i][j] = val
    for kdx in range(dim):
        piv = rows[kdx].get(kdx, Q(0))
        if piv <= 0:
            return False
        for i in range(kdx + 1, dim):
            c = rows[i].pop(kdx, None)
            if c:
                f = c / piv
                for j, v in rows[kdx].items():
                    if j > kdx:
                        w = rows[i].get(j, Q(0)) - f * v
                        if w:
                            rows[i][j] = w
                        elif j in rows[i]:
                            del rows[i][j]
    return True


def _check_adjointness(model: ModelSpec, bases, grams, failures) -> bool:
    """Raising and lowering are mutually adjoint across consecutive Grams:
    F^T G_n = G_{n-1} L for every generator."""
    ok = True
    ctx = model.ctx
    for n in range(1, len(grams)):
        prev, cur = bases[n - 1], bases[n]
        prev_index = {m: i for i, m in enumerate(prev)}
        cur_index = {m: i for i, m in enumerate(cur)}
        for gen in model.generators:
            # F[k, i]: raise maps prev[i] to a single monomial
            raise_img = []
            for m in prev:
                img = _apply_single(gen.raise_op, ctx, m)
                (m2, c), = img.items()
                raise_img.append((cur_index[m2], c))
            # LHS entries: (i, j) -> sum_k F[k,i] G_n[k, j] = c_i * G_n[k0(i), j]
            lhs = {}
            for i, (k0, c) in enumerate(raise_img):
                for j in range(len(cur)):
                    v = grams[n].get((k0, j))
                    if v:
                        lhs[(i, j)] = c * v
            rhs = {}
            for j, m in enumerate(cur):
                img = _apply_single(gen.lower, ctx, m)
                for m2, c in img.items():
                    k = prev_index.get(m2)
                    if k is None:
                        continue
                    for i in range(len(prev)):
                        v = grams[n - 1].get((i, k))
                        if v:
                            w = rhs.get((i, j), Q(0)) + c * v
                            if w:
                                rhs[(i, j)] = w
                            elif (i, j) in rhs:
                                del rhs[(i, j)]
            if lhs != rhs:
                ok = False
                failures.append(f"adjointness fails for {gen.name} at level {n}")
    return ok


def model_hw_norm(model: ModelSpec, n: int, report: GramReport) -> Fraction:
    """Squared norm of the level-n highest-weight monomial divided by (n!)^2."""
    if n > report.max_level:
        raise ValueError("Gram data does not reach that level")
    i = report.bases[n].index(model.hw_monomial(n))
    return report.grams[n].get((i, i), Q(0)) / (factorial(n) ** 2)
