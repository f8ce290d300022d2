"""Case registry: block data (q, d, w) per case, plus derived vectors.

Every downstream spectral quantity is computed from the block list and m
alone; `tests/test_jordan.py` checks the registry's identities.  Case
identifiers are "FAMILY:params" strings:

    E6:6  E7:7  E8:8  F4:4  E6:2  E7:-5  E8:-24  G2:2
    SO:p,q   (3 <= p <= q)
    SL:n     (n >= 3)
"""

from collections import namedtuple


class UnknownCaseError(ValueError):
    pass


class JordanBlock(namedtuple("JordanBlock", "q d w")):
    """q: degree of the simple component, 1..4; d: root multiplicity;
    w: exponent of this block's norm in the degree-4 monomial."""

    __slots__ = ()

    def __new__(cls, q, d, w):
        if not (1 <= q <= 4) or d < 0 or w < 1:
            raise ValueError(f"bad block ({q},{d},{w})")
        return super().__new__(cls, q, d, w)


class JordanCase(namedtuple("JordanCase", "id blocks m labels")):
    """labels: display strings k, p, g, G, norm_monomial."""

    __slots__ = ()

    @property
    def q_total(self) -> int:
        return sum(b.q for b in self.blocks)


_blk = JordanBlock


# Fixed rows: compact part, degree-1 space, complex algebra, real group.
_EXCEPTIONAL = {
    "E6:6": ((_blk(4, 1, 1),), 10,
             {"k": "sp8", "p": "Wedge_o^4 C^8", "g": "E6", "G": "E6(6)",
              "norm_monomial": "P_{4,R}"}),
    "E7:7": ((_blk(4, 2, 1),), 16,
             {"k": "sl8", "p": "Wedge^4 C^8", "g": "E7", "G": "E7(7)",
              "norm_monomial": "P_{4,C}"}),
    "E8:8": ((_blk(4, 4, 1),), 28,
             {"k": "so16", "p": "C^128", "g": "E8", "G": "E8(8)",
              "norm_monomial": "P_{4,H}"}),
    "F4:4": ((_blk(3, 1, 1), _blk(1, 0, 1)), 7,
             {"k": "sp6+sl2", "p": "Wedge_o^3 C^6 (x) C^2", "g": "F4", "G": "F4(4)",
              "norm_monomial": "P_{3,R} P'_1"}),
    "E6:2": ((_blk(3, 2, 1), _blk(1, 0, 1)), 10,
             {"k": "sl6+sl2", "p": "Wedge^3 C^6 (x) C^2", "g": "E6", "G": "E6(2)",
              "norm_monomial": "P_{3,C} P'_1"}),
    "E7:-5": ((_blk(3, 4, 1), _blk(1, 0, 1)), 16,
              {"k": "so12+sl2", "p": "C^32 (x) C^2", "g": "E7", "G": "E7(-5)",
               "norm_monomial": "P_{3,H} P'_1"}),
    "E8:-24": ((_blk(3, 8, 1), _blk(1, 0, 1)), 28,
               {"k": "e7+sl2", "p": "C^56 (x) C^2", "g": "E8", "G": "E8(-24)",
                "norm_monomial": "P_{3,O} P'_1"}),
    "G2:2": ((_blk(1, 0, 3), _blk(1, 0, 1)), 2,
             {"k": "sl2+sl2", "p": "S^3 C^2 (x) C^2", "g": "G2", "G": "G2(2)",
              "norm_monomial": "P_1^3 P'_1"}),
}


def _so_side(s: int, mark: str = "") -> tuple:
    """One orthogonal side's blocks and norm label, its P marked with
    `mark` (twice on a split side's second factor): s>=5 one rank-2
    block, s=4 splits, s=3 degenerates."""
    if s >= 5:
        return [_blk(2, s - 4, 1)], f"P{mark}_{{2;{s}}}"
    if s == 4:
        return [_blk(1, 0, 1), _blk(1, 0, 1)], f"P{mark}_1 P{mark}{mark}_1"
    return [_blk(1, 0, 2)], f"P{mark}_1^2"


def _case_numbers(case_id: str, count: int) -> tuple:
    """The `count` integers of an "SO:p,q" or "SL:n" id spelled as
    `sweep_case_ids` spells it (`int` also takes " 3", "+3", "03", "0_3")."""
    try:
        nums = tuple(int(x) for x in case_id[3:].split(","))
    except ValueError:
        nums = ()
    if len(nums) != count or case_id[3:] != ",".join(map(str, nums)):
        raise UnknownCaseError(f"malformed case id {case_id!r}")
    return nums


def lookup_case(case_id: str) -> JordanCase:
    if case_id in _EXCEPTIONAL:
        blocks, m, labels = _EXCEPTIONAL[case_id]
        return JordanCase(case_id, blocks, m, dict(labels))  # a copy: no caller edits the registry
    if case_id.startswith("SO:"):
        p, q = _case_numbers(case_id, 2)
        if not (3 <= p <= q):
            raise UnknownCaseError(f"need 3 <= p <= q in {case_id!r}")
        (p_blocks, p_norm), (q_blocks, q_norm) = _so_side(p), _so_side(q, "'")
        labels = {"k": f"so{p}+so{q}", "p": f"C^{p} (x) C^{q}",
                  "g": f"so{p + q}", "G": f"SO({p},{q})~",
                  "norm_monomial": f"{p_norm} {q_norm}"}
        return JordanCase(case_id, tuple(p_blocks + q_blocks), p + q - 4, labels)
    if case_id.startswith("SL:"):
        n, = _case_numbers(case_id, 1)
        if n < 3:
            raise UnknownCaseError(f"need n >= 3 in {case_id!r}")
        # the norm squares the orthogonal side's: each block's w doubles
        blocks = tuple(_blk(b.q, b.d, 2 * b.w) for b in _so_side(n)[0])
        if n >= 5:
            norm = f"P_{{2;{n}}}^2"
        elif n == 4:
            norm = "P_1^2 P'_1^2"
        else:
            norm = "P_1^4"
        labels = {"k": f"so{n}", "p": f"S_o^2 C^{n}", "g": f"sl{n}",
                  "G": f"SL({n},R)~", "norm_monomial": norm}
        return JordanCase(case_id, blocks, n - 2, labels)
    raise UnknownCaseError(f"unknown case id {case_id!r}")


def derived_vectors(case: JordanCase):
    """(v, delta): one slot per degree step, q_total in all."""
    v, delta = [], []
    for b in case.blocks:
        for j in range(1, b.q + 1):
            v.append(b.w)
            delta.append(b.d * (b.q - j))
    return tuple(v), tuple(delta)


def sweep_case_ids(pmax: int = 12, nmax: int = 12) -> list:
    """Deterministic enumeration: fixed rows, then SO(p,q), then SL(n)."""
    ids = list(_EXCEPTIONAL)
    for p in range(3, pmax + 1):
        for q in range(p, pmax + 1):
            ids.append(f"SO:{p},{q}")
    for n in range(3, nmax + 1):
        ids.append(f"SL:{n}")
    return ids
