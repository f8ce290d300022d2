"""Sparse exact linear algebra over dict-shaped vectors.

A vector is a dict {key: value} that holds no zero values; a value is an
exact `int` or `Fraction`, never a float.  Compiled operators are not
dicts but shift diagonals, one `int` value list per exponent shift
indexed by monomial number, over one denominator d (`opcalc.Diagonals`).
Every accumulate and eliminate loop of the package lives here, except
the loops that read those value lists directly: the list kernels of
`opcalc` (`bracket`, the inner loop of the closure checks, whose
per-shift lists the `Reducer` solves stacked as {(shift id, source):
value}; `combination`, which sums the operators' lists times the
constants solved for, to be compared with a bracket; `_group_values`,
which sums the paths of one shift over the lcm of their `int`
denominators, a divisor product's lcm Δ among them; and `_over`, which
scales each sum to the compile's d in at most two exact passes), and the
Gram recursion of `models.solve_gram` (`_gram_recursion`, run where the
Gram is not read off the Fischer form), which scatters each lowering
diagonal through the columns of the level below:

- `axpy`, the in-place accumulate loop, which deletes keys that cancel;
- `Reducer`, the one elimination kernel: incremental row reduction that
  keeps each stored vector's expression in the labelled vectors it was
  fed, for exact coordinates; it stores vectors unscaled and divides only
  the multiplier of each elimination, so a vector that reduces in `int`
  is stored in `int`.  It solves the closure checks and the level-0 Gram,
  and certifies the recursion's Grams (`models._positive_definite`).
"""

from fractions import Fraction

ONE = Fraction(1)


def axpy(dst: dict, a, src: dict) -> None:
    """dst += a * src in place; entries that cancel to zero are deleted."""
    if not a:
        return
    for k, v in src.items():
        w = dst.get(k)
        if w is None:
            dst[k] = a * v
        else:
            w += a * v
            if w:
                dst[k] = w
            else:
                del dst[k]


class Reducer:
    """Incremental exact row reduction.

    Each stored vector has a pivot key, its least key, that no later
    stored vector holds, and carries its expression as a combination of
    the labelled vectors passed to `add`, so `solve` returns exact
    coordinates over those labels.  A vector is stored as reduced, not
    scaled to pivot coefficient 1: each elimination divides only its
    multiplier c / pivot, so a vector that reduces in `int` keeps `int`
    entries and its eliminations stay in `int` arithmetic wherever the
    pivot divides c.  (Keeping pivots unscaled is the first step of
    fraction-free elimination, E. H. Bareiss, Math. Comp. 22, 1968.)
    """

    def __init__(self):
        self.pivots: list = []  # (pivot key, vector, combination over labels)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _reduce(self, vec: dict, combo: dict, sign: int) -> None:
        """Eliminate every pivot key from `vec`, adding sign * m times the
        pivot's combination to `combo` for each multiple m removed."""
        for key, pvec, pcombo in self.pivots:
            c = vec.get(key)
            if c:
                p = pvec[key]  # c / p would give floats for an int c
                m = c // p if type(c) is int and not c % p else Fraction(c) / p
                axpy(vec, -m, pvec)
                axpy(combo, sign * m, pcombo)

    def add(self, label, vec: dict) -> bool:
        """Insert a labelled vector; True if it enlarged the span."""
        vec, combo = dict(vec), {label: 1}
        self._reduce(vec, combo, -1)
        if not vec:
            return False
        self.pivots.append((min(vec), vec, combo))
        return True

    def solve(self, vec: dict) -> dict | None:
        """Coordinates of `vec` over the labels, or None outside the span."""
        vec, combo = dict(vec), {}
        self._reduce(vec, combo, 1)
        return None if vec else combo

